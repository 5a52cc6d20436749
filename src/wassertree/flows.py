"""Boundary measures, antipodality, and the induced edge/vertex flows.

A pair of antipodal probability measures (disjoint supports on the
ends) defines a signed measure whose value on the future of each
oriented edge is the *flow* through that edge.  Each flow is labelled
positive, neutral or negative by its sign (:func:`flow_class`); the
flow through a vertex aggregates its positive out-edges, and the
*specific flow* discards whatever is carried by the edge pointing back
toward the base.  The second moment of the specific flow (mass times
squared base distance, summed over vertices) is the finiteness
functional used by the realizability decision.

A :class:`FlowField` keeps only the net subtree masses and the positive
out-flows at charged vertices, and reads every other flow from them on
demand; the out-flows and specific flows stay integers until they are
first read as ``Fraction`` maps.

Every flow is a multiple of ``1/Q``, where ``Q`` is the lcm of the two
measures' denominators, so the layer sums integers in that unit: the
bottom-up subtree sums, the out-flows, the specific flows and the
second moment (one integer over ``Q·L²``, with ``L`` the lcm of the
depth denominators it reads).  A ``Fraction`` is formed once, where a
number leaves the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator, Mapping, Union

from .errors import DomainError
from .rationals import parse_fraction
from .tree import MetricTree

__all__ = [
    "BoundaryMeasure",
    "FlowField",
    "check_antipodal",
    "compute_flow_field",
    "flow_class",
    "specific_flow_second_moment",
]

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"

_ZERO = Fraction(0)


def flow_class(value: Fraction) -> str:
    """The sign label of a flow: positive, neutral or negative."""
    if not value:
        return NEUTRAL
    return POSITIVE if value > 0 else NEGATIVE


class BoundaryMeasure:
    """A finitely supported probability measure on the ends.

    Zero-mass atoms are dropped at construction so that the stored
    support equals the measure-theoretic support; masses must be
    nonnegative rationals summing to exactly 1.  ``unit`` is the lcm of
    the denominators and ``units[e]`` is the mass of ``e`` in units of
    ``1/unit``; the total is checked as the one integer sum of
    ``units``, and the ``Fraction`` total is formed only to name it in
    the error.
    """

    __slots__ = ("atoms", "unit", "units")

    def __init__(self, atoms: Mapping[str, Union[Fraction, int, str]]):
        cleaned: dict[str, Fraction] = {}
        for end_id in sorted(atoms):
            mass = parse_fraction(atoms[end_id])
            if mass.numerator < 0:
                raise DomainError(f"negative mass {mass} on end {end_id!r}")
            if mass.numerator:
                cleaned[str(end_id)] = mass
        unit = lcm(*(m.denominator for m in cleaned.values()))
        units = {e: m.numerator * (unit // m.denominator) for e, m in cleaned.items()}
        total = sum(units.values())
        if total != unit:
            raise DomainError(f"masses sum to {Fraction(total, unit)}, expected 1")
        self.atoms = cleaned
        self.unit = unit
        self.units = units

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.atoms)

    def __eq__(self, other):
        return isinstance(other, BoundaryMeasure) and self.atoms == other.atoms

    def __repr__(self):
        inner = ", ".join(f"{e}: {m}" for e, m in sorted(self.atoms.items()))
        return f"BoundaryMeasure({{{inner}}})"


def _check_measures_on_tree(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure):
    for m in (minus, plus):
        missing = sorted(e for e in m.atoms if e not in t.ends)
        if missing:
            raise DomainError(f"measure charges ends not in the tree: {missing}")


def check_antipodal(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> bool:
    """True iff the two supports are disjoint.

    On a tree every pair of distinct ends is joined by a geodesic, so
    disjoint supports are exactly the antipodal pairs of discrete
    measures.  The supports are checked against the tree's ends one
    atom at a time, so the check is linear in the supports.
    """
    t.require_valid()
    _check_measures_on_tree(t, minus, plus)
    return not (minus.support & plus.support)


@dataclass(frozen=True)
class FlowField:
    """Edge and vertex flows induced by an antipodal pair of measures.

    Only two sparse maps are stored.  ``below[y]`` is the net mass
    ``(plus - minus)(T_y)`` of the subtree under ``y`` (base as root),
    which is the flow from ``parent(y)`` into ``y``; it has a key only
    where that subtree holds a support end, and every other subtree
    carries 0.  :attr:`out` is the positive out-flow at each vertex that
    has one, and :attr:`specific` the specific flow there; every other
    vertex has 0 of both.  ``unit`` is the lcm ``Q`` of the measures'
    denominators, and ``out_units[x]`` and ``specific_units[x]`` are the
    integers ``out[x] * Q`` and ``specific[x] * Q``.  :meth:`flow` and
    :meth:`flow_to_end` read single flows in constant time, so a caller
    that follows a few paths pays for those paths only;
    :meth:`edge_flows` reads every finite edge in one pass.
    """

    tree: MetricTree
    minus: BoundaryMeasure
    plus: BoundaryMeasure
    below: Mapping[str, Fraction]
    unit: int
    out_units: Mapping[str, int]
    specific_units: Mapping[str, int]

    def flow(self, tail: str, head: str) -> Fraction:
        """Flow through an oriented edge; end ids address end-edges."""
        t = self.tree
        parent = t._root().parent
        if parent.get(head) == tail:
            return self.below.get(head, _ZERO)
        if parent.get(tail) == head:
            value = self.below.get(tail)
            return -value if value else _ZERO
        ends = t.ends
        if head in ends and tail == ends[head]:
            return self.flow_to_end(head)
        if tail in ends and head == ends[tail]:
            return -self.flow_to_end(tail)
        raise DomainError(f"no edge between {tail!r} and {head!r}")

    def flow_to_end(self, end_id: str) -> Fraction:
        """Flow through the leaf-edge of ``end_id``, oriented toward the end."""
        if end_id in self.plus.atoms:
            return self.plus.atoms[end_id]
        if end_id in self.minus.atoms:
            return -self.minus.atoms[end_id]
        if end_id not in self.tree.ends:
            raise DomainError(f"unknown end {end_id!r}")
        return _ZERO

    def edge_flows(self) -> Iterator[tuple[tuple[str, str], Fraction]]:
        """Each finite edge ``(u, v)`` of ``tree.edges`` with its flow from ``u`` to ``v``.

        One pass in the tree's edge order (smaller vertex id first); the
        opposite orientation carries the negation.
        """
        parent = self.tree._root().parent
        below = self.below
        for u, v, _length in self.tree.edges:
            if parent[v] == u:
                yield (u, v), below.get(v, _ZERO)
            else:
                value = below.get(u)
                yield (u, v), -value if value else _ZERO

    @cached_property
    def out(self) -> dict[str, Fraction]:
        """The positive out-flow at each vertex that has one; formed from
        ``out_units`` once, on first read."""
        return _fractions(self.out_units, self.unit)

    @cached_property
    def specific(self) -> dict[str, Fraction]:
        """The specific flow at each key of ``out``; it is 0 at every other vertex.

        The positive out-flow less the flow on the edge toward the base
        (none at the base).  A vertex with no positive out-flow has none
        on that edge either, so only the keys of ``out`` can carry one.
        Formed from ``specific_units`` once, on first read.
        """
        return _fractions(self.specific_units, self.unit)


def _fractions(units: Mapping[str, int], unit: int) -> dict[str, Fraction]:
    return {key: Fraction(n, unit) for key, n in units.items()}


def _below_sums(t: MetricTree, charges) -> dict[str, int]:
    """Sparse bottom-up sums of integer end charges over the rooted tree.

    ``charges`` yields ``(end id, signed mass)`` pairs, each mass an
    ``int`` in the caller's unit.  Each charge is seeded at its end's
    attach vertex; one walk over the preorder backwards then adds every
    seeded vertex into its parent.  Only vertices with a charged subtree
    get a key (the base included).
    """
    index = t._root()
    below: dict[str, int] = {}
    for end_id, mass in charges:
        v = t.attach(end_id)
        below[v] = below.get(v, 0) + mass
    parent = index.parent
    for v in reversed(index.order):
        if v in below:
            p = parent[v]
            if p is not None:
                below[p] = below.get(p, 0) + below[v]
    return below


def compute_flow_field(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> FlowField:
    """Evaluate the signed measure (plus - minus) on every edge future.

    The net mass ``below[y] = (plus - minus)(T_y)`` of every charged
    subtree comes from one sparse bottom-up pass (see
    :func:`_below_sums`); it is the flow from ``parent(y)`` into
    ``y``.  A vertex's positive out-flow is the sum of its children's
    positive ``below``, of ``-below[x]`` when that is positive (the edge
    toward the base) and of its ``plus`` end atoms; only the vertices
    where it is positive get a key.  All of it is summed in integers in
    units of ``1/Q``, ``Q`` the lcm of the two measures' units.  Only
    ``below`` is stored as ``Fraction(n, Q)``; the out-flows and
    specific flows stay integers.  Nothing else is computed here: no
    map over every edge, end or vertex is ever filled (see
    :class:`FlowField`).
    """
    if not check_antipodal(t, minus, plus):  # validates the tree first
        raise DomainError("measures are not antipodal (supports intersect)")

    parent = t._root().parent
    unit = lcm(minus.unit, plus.unit)
    up, down = unit // plus.unit, unit // minus.unit
    gains = [(e, n * up) for e, n in plus.units.items()]
    below = _below_sums(t, [*gains, *((e, -n * down) for e, n in minus.units.items())])
    out: dict[str, int] = {}
    for y, net in below.items():
        if net > 0:
            p = parent[y]
            if p is not None:
                out[p] = out.get(p, 0) + net
        elif net < 0:
            out[y] = out.get(y, 0) - net
    for e, n in gains:
        x = t.attach(e)
        out[x] = out.get(x, 0) + n
    specific = {}
    for x, total in out.items():
        net = below.get(x)
        specific[x] = total - abs(net) if net and parent[x] is not None else total
    return FlowField(
        tree=t,
        minus=minus,
        plus=plus,
        below=_fractions(below, unit),
        unit=unit,
        out_units=out,
        specific_units=specific,
    )


def _squared_depth_sum(t: MetricTree, weights: Mapping[str, int], unit: int) -> Fraction:
    """``sum(weights[x] * depth(x)**2) / unit`` as one ``Fraction``.

    Each depth ``a/b`` is scaled to the lcm ``L`` of the denominators of
    the depths read, so the sum is one integer over ``unit * L**2``.
    Zero weights are skipped and their depths never read.
    """
    depth = t._root().depth
    terms = [(w, depth[x]) for x, w in weights.items() if w]
    scale = lcm(*(d.denominator for _, d in terms))
    total = 0
    for w, d in terms:
        a = d.numerator * (scale // d.denominator)
        total += w * a * a
    return Fraction(total, unit * scale * scale)


def specific_flow_second_moment(t: MetricTree, ff: FlowField) -> Fraction:
    """Sum over vertices of specific flow times squared base distance.

    Only the vertices with a positive out-flow can carry specific flow,
    so only they are summed, in integers (see :func:`_squared_depth_sum`).
    """
    return _squared_depth_sum(t, ff.specific_units, ff.unit)
