"""Optimal transport between boundary measures under the Gromov cost.

The cost of sending a unit of mass from end ``a`` to end ``b`` is minus
the squared Gromov product (squared distance from the base vertex to
the geodesic joining the two ends).  Antipodality keeps the diagonal,
where the product is infinite, out of every instance.

On a tree this problem needs no general solver.  A coupling is optimal
exactly when every pair rides only edge orientations that carry
positive flow, and then it puts exactly the flow on each of them.  So
the optimal coupling is a greedy walk capped by the residual edge
flows of a :class:`~wassertree.flows.FlowField`
(:func:`solve_optimal_coupling`), and the optimal value is a closed
form in the subtree masses (:func:`optimal_value`).  Neither builds a
cost table.

Cyclical monotonicity reduces to antagonism: a coupling is monotone
exactly when no two of its pairs traverse an edge in opposite
directions, and any two that do form a strictly violating 2-cycle
(:func:`is_cyclically_monotone`, one scan over the pairs' paths, exact
for every support size).

Both routes walk a pair's path once, with
:meth:`~wassertree.tree.MetricTree.path`.  No route here builds a cost
table or runs a general transport solver; the tests compare each route
with such solvers by exact equality.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Union

from .errors import DomainError
from .flows import BoundaryMeasure, FlowField, _below_sums, _squared_depth_sum, check_antipodal
from .rationals import parse_fraction
from .tree import MetricTree

__all__ = [
    "Coupling",
    "MonotonicityResult",
    "solve_optimal_coupling",
    "optimal_value",
    "is_cyclically_monotone",
]

_ZERO = Fraction(0)


class Coupling:
    """A transport plan: nonnegative masses on ordered end pairs."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Mapping[tuple[str, str], Union[Fraction, int, str]]):
        cleaned: dict[tuple[str, str], Fraction] = {}
        for pair in sorted(atoms):
            mass = parse_fraction(atoms[pair])
            if mass < 0:
                raise DomainError(f"negative mass {mass} on pair {pair!r}")
            if mass > 0:
                cleaned[(str(pair[0]), str(pair[1]))] = mass
        self.atoms = cleaned

    def marginals(self) -> tuple[BoundaryMeasure, BoundaryMeasure]:
        left: dict[str, Fraction] = {}
        right: dict[str, Fraction] = {}
        for (a, b), mass in self.atoms.items():
            left[a] = left.get(a, Fraction(0)) + mass
            right[b] = right.get(b, Fraction(0)) + mass
        return BoundaryMeasure(left), BoundaryMeasure(right)

    def __eq__(self, other):
        return isinstance(other, Coupling) and self.atoms == other.atoms

    def __repr__(self):
        inner = ", ".join(f"({a},{b}): {m}" for (a, b), m in sorted(self.atoms.items()))
        return f"Coupling({{{inner}}})"


def solve_optimal_coupling(ff: FlowField) -> tuple[Coupling, Fraction]:
    """Exact minimizer over the transport polytope of ``ff``'s measures.

    Flow-capped greedy: cells are visited in (source id, target id)
    row-major order over the sorted supports of ``ff.minus`` and
    ``ff.plus``, and each gets the largest mass the residual supply,
    the residual demand and the residual flow on every edge of its path
    (in the path's direction) allow; that mass is then subtracted along
    the path.  The residual flow into a child ``y`` starts at
    ``ff.below[y]``, the flow from ``parent(y)`` into ``y`` (0 where
    ``y``'s subtree is uncharged).  The residual flows are the flows of
    the residual measures, so the greedy never dead-ends, and every pair it
    loads rides positive flow only, which makes the coupling optimal.
    Each cell gets the most any optimal coupling extending the earlier
    cells can give it, so the result is the optimal coupling whose mass
    vector, read in that order, is lexicographically greatest.  It is a
    vertex of the polytope (at most m+n-1 atoms), the same one a
    lexicographically perturbed transportation simplex returns.

    Only the paths the coupling can use are read.  A residual flow is
    read from ``ff`` the first time a path crosses its edge.  Per row,
    the source climbs from its attach vertex while the residual flow
    toward the base is positive, up to a top ``h``; a target outside
    ``h``'s subtree (its preorder interval) would have to climb past
    ``h`` against no flow, so its cell gets nothing and is skipped
    without walking its path.  ``h`` is recomputed after each loaded
    cell, and the row stops once its supply is placed.  Skipped cells
    are exactly those the full walk would load with nothing, so the
    coupling does not depend on the pruning.

    The value returned is the coupling's own cost, ``-sum m * (a|b)^2``
    over its atoms, so comparing it with ``-specific_flow_moment``
    checks the greedy.  It is summed as the cells load: the walk of a
    cell's path (:meth:`~wassertree.tree.MetricTree.path`) also yields
    its meet, whose depth is the cell's Gromov product, so no path is
    walked twice.
    """
    t, minus, plus = ff.tree, ff.minus, ff.plus
    index = t._root()
    parent, depth, pos, stop = index.parent, index.depth, index.pos, index.stop
    # residual[y]: remaining flow from parent(y) into y, once read.
    residual: dict[str, Fraction] = {}

    below = ff.below

    def read(y: str) -> Fraction:
        r = residual[y] = below.get(y, _ZERO)
        return r

    def reach_top(x: str) -> str:
        while True:
            p = parent[x]
            if p is None:
                return x
            r = residual[x] if x in residual else read(x)
            if r >= 0:
                return x
            x = p

    demand = dict(plus.atoms)
    cols = [(b, t.attach(b)) for b in sorted(plus.atoms)]
    atoms: dict[tuple[str, str], Fraction] = {}
    value = Fraction(0)
    for a in sorted(minus.atoms):
        x = t.attach(a)
        left = minus.atoms[a]
        top = reach_top(x)
        lo, hi = pos[top], stop[top]
        for b, y_b in cols:
            if not lo <= pos[y_b] < hi:
                continue
            need = demand[b]
            if not need:
                continue
            q = left if left < need else need
            steps, meet = t.path(x, y_b)
            # The climbs lie below the top, on positive residual flow, so
            # only a descent can block: read those first.
            for y, sign in reversed(steps):
                r = residual[y] if y in residual else read(y)
                cap = r if sign > 0 else -r
                if cap < q:
                    q = cap
                    if q <= 0:
                        break
            if q <= 0:
                continue
            for y, sign in steps:
                if sign > 0:
                    residual[y] -= q
                else:
                    residual[y] += q
            left -= q
            demand[b] = need - q
            atoms[(a, b)] = q
            value -= q * depth[meet] ** 2
            if not left:
                break
            top = reach_top(x)
            lo, hi = pos[top], stop[top]
        if left:
            raise DomainError("flow-capped greedy left supply unplaced")
    return Coupling(atoms), value


def optimal_value(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> Fraction:
    """Optimal transport value in closed form, without a cost matrix.

    The squared Gromov product of a pair telescopes into
    ``d(y)^2 - d(parent y)^2`` over the vertices ``y`` above the meet
    of its ends (base excluded), so a coupling costs minus the sum over
    ``y`` of that increment times the mass of pairs with both ends below
    ``y``.  That mass is at most ``min(minus(T_y), plus(T_y))``, and an
    optimal coupling attains every such bound at once, hence::

        value = -sum_{y != base} min(minus(T_y), plus(T_y)) * (d(y)^2 - d(parent y)^2)

    The subtree masses are the measures' integer ``units``, rescaled to
    the lcm ``Q`` of the two units, and the sum is one integer over
    ``Q * L**2`` (``L`` the lcm of the depth denominators read).
    """
    if not check_antipodal(t, minus, plus):
        raise DomainError("measures are not antipodal (supports intersect)")
    parent = t._root().parent
    unit = lcm(minus.unit, plus.unit)
    up, down = unit // plus.unit, unit // minus.unit
    below_plus = _below_sums(t, plus.units.items())
    weights: dict[str, int] = {}
    for y, mass in _below_sums(t, minus.units.items()).items():
        p = parent[y]
        shared = min(mass * down, below_plus.get(y, 0) * up)
        if p is not None and shared:
            weights[y] = weights.get(y, 0) + shared
            weights[p] = weights.get(p, 0) - shared
    return -_squared_depth_sum(t, weights, unit)


@dataclass(frozen=True)
class MonotonicityResult:
    """Verdict of :func:`is_cyclically_monotone`.

    ``witness`` is the violating cycle of support atoms (None when
    monotone).  The antagonism scan covers every cycle, so the verdict
    is always exhaustive.
    """

    monotone: bool
    witness: Optional[tuple[tuple[str, str], ...]]

    def __bool__(self):
        return self.monotone


def is_cyclically_monotone(pi: Coupling, t: MetricTree) -> MonotonicityResult:
    """Test cyclical monotonicity of a coupling by scanning for antagonism.

    On a tree a coupling is cyclically monotone for the Gromov cost
    exactly when no two of its pairs are antagonists, i.e. traverse some
    edge in opposite directions.  Each support atom's path is read as
    ``(child, sign)`` steps (:meth:`~wassertree.tree.MetricTree.path`),
    and one index of those steps (:func:`_crossings`) finds the
    lexicographically first pair ``i < j`` of the sorted support whose
    steps share a child with opposite signs; the witness is
    ``(support[i], support[j])``.  With no such pair the coupling is
    monotone.  The verdict is exact for every support size.

    Every such pair is a strictly violating 2-cycle.  Say ``(a, b)``
    descends the edge ``p -> y`` (base as root) and ``(c, d)`` climbs
    it, and write ``alpha = (a|b)``, ``gamma = (c|d)``.  Both geodesics
    cross ``p -> y``, so their points nearest the base lie at or above
    ``p`` and ``alpha, gamma <= d(p)``: the kept pairs cost
    ``-(alpha^2 + gamma^2)``.  After the shift, ``c`` and ``b`` both lie
    below ``y``, so ``(c|b) >= d(y)``, and the ultrametric inequality of
    Gromov products on a tree gives ``(a|d) >= min((a|b), (b|c), (c|d))
    = min(alpha, gamma)``.  The shifted pairs therefore cost at most
    ``-(min(alpha, gamma)^2 + d(y)^2)``, which is strictly less because
    ``d(y) > d(p) >= max(alpha, gamma)``.

    The coupling need not have mass 1.  An end unknown to ``t``, or an
    end that is both a source and a target, is a :class:`DomainError`.
    """
    t.require_valid()
    support = sorted(pi.atoms)
    if {a for a, _ in support} & {b for _, b in support}:
        raise DomainError("coupling source and target ends overlap")
    paths = [t.path(t.attach(a), t.attach(b))[0] for a, b in support]
    for i, shared in _crossings(paths):
        if shared:
            return MonotonicityResult(False, (support[i], support[min(shared)]))
    return MonotonicityResult(True, None)


def _crossings(paths):
    """Opposite traversals among paths, one path at a time.

    ``paths[i]`` lists path i's ``(child, sign)`` steps, as
    :meth:`~wassertree.tree.MetricTree.path` returns them.  One index
    maps each step to the increasing indices of the paths that take it.
    For each ``i`` in increasing order this yields ``(i, shared)``,
    where ``shared`` maps every ``j > i`` whose path takes some edge of
    path ``i`` the other way to those edges' children, in path ``i``'s
    order.  The work is linear in the total path length plus the number
    of crossings.
    """
    crossers: dict[tuple, list[int]] = {}
    for i, steps in enumerate(paths):
        for step in steps:
            crossers.setdefault(step, []).append(i)
    for i, steps in enumerate(paths):
        shared: dict[int, list] = {}
        for child, sign in steps:
            opposite = crossers.get((child, -sign))
            if opposite:
                for j in opposite[bisect_right(opposite, i) :]:
                    shared.setdefault(j, []).append(child)
        yield i, shared
