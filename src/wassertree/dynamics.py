"""Dynamical transport plans: weighted families of complete geodesics.

A coupling of two boundary measures lifts to a plan with one atom per
coupled pair: the geodesic between the two ends, unit speed, oriented
from source to target.  On a tree two distinct ends are joined by
exactly one complete geodesic, so an atom is its two ends, its mass and
its time offset, and its path is read from the tree when needed, in one
walk (:meth:`~wassertree.tree.MetricTree.path`) that gives its edges as
``(child, sign)`` steps and its meet.  The canonical parametrization
puts each atom at time 0 on the point of its geodesic nearest the base
vertex, the meet; a rational ``time_offset`` shifts an individual atom
along its own line.

The module provides the lift of a coupling, snapshots of a plan at any
rational time, and a verifier that detects antagonist pairs and
certifies unit speed in the quadratic Wasserstein metric by two
closed-form bounds, with no transport problem solved and nothing read
beyond the atoms' paths.  The verifier takes the flow field of the
plan's marginals from the caller and refuses one built from other
measures, and picks default sample times from the same walks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DomainError
from .flows import FlowField
from .rationals import parse_fraction
from .transport import Coupling, _crossings
from .tree import MetricTree, TreePoint, _edge_key

__all__ = [
    "PlanAtom",
    "DynamicalPlan",
    "Snapshot",
    "GeodesicReport",
    "lift",
    "snapshots",
    "verify_geodesic",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PlanAtom:
    """One weighted geodesic of a dynamical plan: two ends, a mass and an offset.

    Two distinct ends of a tree are joined by exactly one complete
    geodesic, so the atom stores no path; :meth:`geodesic` reads it from
    the tree.  The atom's position at time t is the point of that
    geodesic with arc-length coordinate ``t + time_offset``, where 0 is
    the point nearest the base.
    """

    source: str
    target: str
    mass: Fraction
    time_offset: Fraction = Fraction(0)

    def geodesic(self, t: MetricTree) -> tuple[tuple[str, ...], tuple[Fraction, ...], int]:
        """``(vertices, coords, k)``: the atom's path and its arc-length coords.

        ``vertices`` is the chain from the source's attach vertex to the
        target's, read from one walk
        (:meth:`~wassertree.tree.MetricTree.path`).  It climbs ``k``
        edges to the meet of the two and then descends, so its point
        nearest the base is ``vertices[k]``, the meet, and the coord of
        a vertex ``w`` is ``depth[w] - depth[meet]``, negated on the
        climb: one subtraction per vertex.
        """
        return _arc_coords(t, *self._path(t))

    def _path(self, t: MetricTree) -> tuple[list[tuple[str, int]], str]:
        """``(steps, meet)`` of the atom's path, as :meth:`MetricTree.path` gives them."""
        return t.path(*_attaches(t, self.source, self.target))

    def _locate(self, verts, coords, time: Fraction) -> TreePoint:
        """The atom's point at ``time`` on its geodesic ``verts``, ``coords``."""
        c = time + self.time_offset
        if c <= coords[0]:
            return TreePoint.on_ray(self.source, verts[0], coords[0] - c)
        if c >= coords[-1]:
            return TreePoint.on_ray(self.target, verts[-1], c - coords[-1])
        hi = bisect_left(coords, c)
        return TreePoint.on_edge(verts[hi - 1], verts[hi], c - coords[hi - 1], coords[hi] - coords[hi - 1])


@dataclass(frozen=True)
class DynamicalPlan:
    atoms: tuple[PlanAtom, ...]


def _attaches(t: MetricTree, a: str, b: str) -> tuple[str, str]:
    """The attach vertices of two distinct ends of ``t``."""
    if a == b:
        raise DomainError(f"no geodesic from end {a!r} to itself")
    return t.attach(a), t.attach(b)


def _arc_coords(t: MetricTree, steps, meet: str) -> tuple[tuple[str, ...], tuple[Fraction, ...], int]:
    """:meth:`PlanAtom.geodesic` of the path with ``steps`` through ``meet``."""
    depth = t._root().depth
    top = depth[meet]
    k = sum(sign < 0 for _, sign in steps)
    vertices = [y for y, _ in steps]
    coords = [depth[y] - top if sign > 0 else top - depth[y] for y, sign in steps]
    vertices.insert(k, meet)
    coords.insert(k, Fraction(0))
    return tuple(vertices), tuple(coords), k


def lift(pi: Coupling, t: MetricTree) -> DynamicalPlan:
    """Canonical plan over a coupling: one atom per pair, zero offsets.

    A pair with one end on both sides, or with an end ``t`` lacks, is a
    :class:`DomainError`.  No path is built; :meth:`PlanAtom.geodesic`
    reads each atom's path from the tree when it is needed.
    """
    t.require_valid()
    atoms = []
    for (a, b) in sorted(pi.atoms):
        _attaches(t, a, b)
        atoms.append(PlanAtom(a, b, pi.atoms[(a, b)]))
    return DynamicalPlan(atoms=tuple(atoms))


def _antagonists(t: MetricTree, paths):
    """Every pair of atoms traversing some edge in opposite orientations.

    ``paths[i]`` lists atom i's ``(child, sign)`` steps.  Pairs come as
    ``(i, j, ("edge", (u, v)))`` with ``i < j``, in increasing order,
    ``(u, v)``, ``u < v``, the smallest edge the two share.  One index
    of the steps (the one behind
    :func:`~wassertree.transport.is_cyclically_monotone`) lists them, so
    the work is linear in the atoms' paths plus the pairs reported.
    Two atoms can also meet head-on on a ray, when one enters through
    the end the other leaves by, but not in a plan over antipodal
    measures, the only plans :func:`verify_geodesic` checks.
    """
    parent = t._root().parent
    return [
        (i, j, ("edge", min(_edge_key(y, parent[y]) for y in shared[j])))
        for i, shared in _crossings(paths)
        for j in sorted(shared)
    ]


def _require_marginals(plan: DynamicalPlan, ff: FlowField) -> None:
    left: dict[str, Fraction] = {}
    right: dict[str, Fraction] = {}
    for a in plan.atoms:
        mass = parse_fraction(a.mass)  # a float would compare equal to its binary fraction
        left[a.source] = left.get(a.source, _ZERO) + mass
        right[a.target] = right.get(a.target, _ZERO) + mass
    if left != ff.minus.atoms or right != ff.plus.atoms:
        raise DomainError("plan marginals do not match the flow field's measures")


@dataclass(frozen=True)
class Snapshot:
    """The plan's mass distribution at one time; atoms at coincident
    points are merged, so a snapshot is a measure, not labelled
    particles."""

    time: Fraction
    atoms: Mapping[TreePoint, Fraction]


def snapshots(plan: DynamicalPlan, times, t: MetricTree, geodesics=None) -> list[Snapshot]:
    """The plan at each of ``times``: ints, ``Fraction``s or ``"p/q"`` strings, never floats.

    Each atom's geodesic is read once and the atom located on it at
    every time, so the snapshots cost one path walk per atom in all,
    and none when the caller passes ``geodesics``, the atoms'
    :meth:`PlanAtom.geodesic` in plan order.
    """
    times = [parse_fraction(x) for x in times]
    if not times:
        return []
    if geodesics is None:
        geodesics = [a.geodesic(t) for a in plan.atoms]
    merged: list[dict[TreePoint, Fraction]] = [{} for _ in times]
    for a, (verts, coords, _) in zip(plan.atoms, geodesics):
        for atoms, time in zip(merged, times):
            p = a._locate(verts, coords, time)
            atoms[p] = atoms.get(p, _ZERO) + a.mass
    return [Snapshot(time=time, atoms=atoms) for time, atoms in zip(times, merged)]


@dataclass(frozen=True)
class GeodesicReport:
    """Verdict of :func:`verify_geodesic`.

    ``speed_checks`` holds ``(r, s, value, expected, ok)`` per sampled
    pair, ``value`` being the certificate's lower bound on W2^2, and
    ``speed_ok`` means certified unit speed on every pair.
    """

    antagonism_free: bool
    antagonists: tuple
    tau_isometric: bool
    tau_failures: tuple
    speed_checks: tuple
    speed_ok: bool

    @property
    def passed(self) -> bool:
        return self.antagonism_free and self.tau_isometric and self.speed_ok


def _sign(x: Fraction) -> int:
    return 1 if x > 0 else -1 if x < 0 else 0


def verify_geodesic(plan: DynamicalPlan, ff: FlowField, sample_times=None) -> GeodesicReport:
    """Check that a plan moves at unit Wasserstein speed on ``ff.tree``.

    ``ff`` must be the flow field of the plan's own marginals, end for
    end (a :class:`DomainError` otherwise).  Three checks: (a) no
    antagonist pair of atoms; (b) the time function of the flow field
    is isometric along every supported geodesic (each finite edge is
    traversed in its positive orientation, mass enters through negative
    end-edges and leaves through positive ones); (c) for each sampled
    pair r < s a certificate that W2^2 between the two snapshots equals
    (s - r)^2.  Each atom's path is walked once
    (:meth:`~wassertree.tree.MetricTree.path`), and its ``(child,
    sign)`` steps and meet serve all three: (a) indexes the steps, (b)
    reads each step's flow from ``ff.below`` and names an edge only for
    the atoms that fail, and its arc-length coords
    (:meth:`PlanAtom.geodesic`) are computed only for those atoms too,
    the only ones (c) needs them for.

    ``sample_times`` (two or more distinct ints, Fractions or ``"p/q"``
    strings; a float is a ParseError) default to -1, 0, 1 and
    ``-(spread + 1)``, ``spread + 1``, the spread being the largest
    ``depth[attach] - depth[meet]`` of any atom, read from the same
    walks, so that every atom is out on its rays at the outer two.

    The certificate of (c) has two sides.  Every atom moves at unit
    speed along one complete geodesic, so the plan's own coupling of
    the snapshots costs ``sum m * d(pos_r, pos_s)^2 = (s - r)^2``, an
    upper bound that needs no distance computed.  The time function tau
    has slope -1, 0 or +1 everywhere, so it is 1-Lipschitz and W2 >= W1
    >= |E_s[tau] - E_r[tau]| for the two probability snapshots, a lower
    bound.  Along an atom, tau has slope ``-sgn(flow_to_end(source))``
    on the source ray, ``sgn(flow(tail, head))`` on each path edge and
    ``sgn(flow_to_end(target))`` on the target ray, the flows that (b)
    reads anyway, each read from ``ff``'s sparse maps on demand; so tau
    at the atom's position is the integral of those slopes over its
    coords, up to a constant per atom that cancels in ``E_s[tau] -
    E_r[tau]``.  A tau-isometric atom contributes ``m * r``; any other
    one reads prefix sums of its slopes at its path vertices and
    bisects its coords once per sample time.  No time function over the
    tree, no position and no tree point is built, and no flow off the
    atoms' paths is read, so the check costs time linear in the atoms'
    paths, and (a) is linear in them too (see :func:`_antagonists`).
    Each speed check is ``(r, s, value, expected, ok)`` with ``value``
    the lower bound, ``expected = (s - r)^2`` and ``ok`` telling whether
    the bounds meet, i.e. whether unit speed is certified.  When they do
    not, the exact W2^2 lies somewhere in ``[value, expected]``.  A
    tau-isometric atom gains exactly ``s - r`` in tau, so when (b) holds
    every pair is certified; an uncertified pair implies a failure of
    (b).
    """
    if sample_times is not None:
        times = sorted({parse_fraction(x) for x in sample_times})
        if len(times) < 2:
            raise DomainError("need at least two distinct sample times")

    t = ff.tree
    _require_marginals(plan, ff)
    paths = [a._path(t) for a in plan.atoms]
    pairs = _antagonists(t, [steps for steps, _ in paths])
    parent, below = t._root().parent, ff.below
    if sample_times is None:
        depth, ends = t._root().depth, t.ends
        spread = max(
            max(depth[ends[a.source]], depth[ends[a.target]]) - depth[meet]
            for a, (_, meet) in zip(plan.atoms, paths)
        )
        far = spread + 1
        times = sorted({-far, Fraction(-1), _ZERO, Fraction(1), far})

    # Along each atom, tau has slope sgn(flow) in the atom's direction on
    # every edge and ray.  A tau-isometric atom (all slopes +1) is at
    # tau = r up to a constant per atom; the others keep their slopes
    # and the integral of them at each path vertex.  The plan carries
    # the mass of ff.minus, which is 1.
    tau_failures = []
    straight_mass = Fraction(1)
    bent = []
    for idx, (a, (steps, meet)) in enumerate(zip(plan.atoms, paths)):
        # The flow from parent(y) into y is below[y]; a climb takes it backwards.
        flows = [below.get(y, _ZERO) if sign > 0 else -below.get(y, _ZERO) for y, sign in steps]
        enter, leave = ff.flow_to_end(a.source), ff.flow_to_end(a.target)
        if enter < 0 < leave and all(f > 0 for f in flows):
            continue
        tau_failures.extend(
            (idx, ("edge", (y, parent[y]) if sign < 0 else (parent[y], y)))
            for (y, sign), f in zip(steps, flows)
            if f <= 0
        )
        if enter >= 0:
            tau_failures.append((idx, ("ray", a.source)))
        if leave <= 0:
            tau_failures.append((idx, ("ray", a.target)))
        straight_mass -= a.mass
        slopes = [_sign(f) for f in flows]
        _, coords, _ = _arc_coords(t, steps, meet)
        prefix = [Fraction(0)]
        for slope, lo, hi in zip(slopes, coords, coords[1:]):
            prefix.append(prefix[-1] + slope * (hi - lo))
        bent.append((a, coords, -_sign(enter), slopes, _sign(leave), prefix))

    def mean_tau(r: Fraction) -> Fraction:
        """E_r[tau] less the sum of the per-atom constants."""
        total = straight_mass * r
        for a, coords, enter_slope, slopes, leave_slope, prefix in bent:
            c = r + a.time_offset
            if c <= coords[0]:
                tau = enter_slope * (c - coords[0])
            elif c >= coords[-1]:
                tau = prefix[-1] + leave_slope * (c - coords[-1])
            else:
                k = bisect_left(coords, c)
                tau = prefix[k - 1] + slopes[k - 1] * (c - coords[k - 1])
            total += a.mass * tau
        return total

    means = {r: mean_tau(r) for r in times}
    speed_checks = []
    for i, r in enumerate(times):
        for s in times[i + 1 :]:
            value = (means[s] - means[r]) ** 2
            expected = (s - r) ** 2
            speed_checks.append((r, s, value, expected, value == expected))

    return GeodesicReport(
        antagonism_free=not pairs,
        antagonists=tuple(pairs),
        tau_isometric=not tau_failures,
        tau_failures=tuple(tau_failures),
        speed_checks=tuple(speed_checks),
        speed_ok=all(ok for *_, ok in speed_checks),
    )
