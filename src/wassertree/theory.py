"""The paper's statements about plans and flows, as checkable functions.

The decision path (:func:`~wassertree.realizability.decide`,
:func:`~wassertree.realizability.family_analyze` and the CLI) reaches
every number it reports from the edge flows and never imports this
module.  What lives here is the rest of the theory, each group written
so that a test can compare it with the decision path by exact equality:

* **Flow bounds and the antagonism dichotomy.**
  :func:`plan_edge_and_vertex_masses` counts the mass a plan carries
  through each oriented edge and each vertex, and
  :func:`check_flow_bounds` checks that it is at least the flow there,
  that equality everywhere holds exactly when no two atoms are
  antagonists, and that the nearest-point masses of such a plan are the
  specific flow.
* **The isometric time function.** :func:`build_time_function` gives
  every point of the tree the time coordinate of slope +1 along
  positive edges and 0 along neutral ones, and
  :func:`align_offsets_to_time_function` shifts each atom of a
  plan so that at time t it sits on level t of that function.
* **Level snapshots.** :func:`flow_level_snapshot` reads the measure at
  one time level straight from the flow field, with the neutral
  components that tie at that level; an aligned plan's
  :func:`~wassertree.dynamics.snapshot` must equal it.
* **Uncrossing.** :func:`uncross` removes opposite traversals edge by
  edge without increasing the transport objective.
* **The point metric.** :func:`dist` is the exact distance between two
  points of the tree, and :func:`second_moment` the snapshot moment the
  optimal value is compared with.  :func:`future_ends` lists the ends
  beyond an oriented edge, the sets every flow is a mass of.

:func:`with_offsets`, :func:`reverse_plan` and :func:`plan_coupling`
build and project the plans these statements are checked on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .dynamics import (
    DynamicalPlan,
    PlanAtom,
    Snapshot,
    _require_marginals,
    antagonist_pairs,
)
from .errors import DomainError
from .flows import NEGATIVE, POSITIVE, FlowField, flow_class
from .transport import Coupling
from .tree import MetricTree, TreePoint, _edge_key

__all__ = [
    "FlowBoundsReport",
    "TimeFunction",
    "LevelSnapshot",
    "plan_edge_and_vertex_masses",
    "check_flow_bounds",
    "build_time_function",
    "flow_level_snapshot",
    "align_offsets_to_time_function",
    "with_offsets",
    "reverse_plan",
    "plan_coupling",
    "second_moment",
    "uncross",
    "future_ends",
    "dist",
    "vertex_distance",
]

_ZERO = Fraction(0)


# -- plans ------------------------------------------------------------------


def with_offsets(plan: DynamicalPlan, offsets: Sequence[Fraction]) -> DynamicalPlan:
    if len(offsets) != len(plan.atoms):
        raise DomainError("one offset per atom required")
    return DynamicalPlan(
        atoms=tuple(replace(a, time_offset=Fraction(off)) for a, off in zip(plan.atoms, offsets))
    )


def plan_coupling(plan: DynamicalPlan) -> Coupling:
    """Project a plan back to its end coupling."""
    atoms: dict[tuple[str, str], Fraction] = {}
    for a in plan.atoms:
        key = (a.source, a.target)
        atoms[key] = atoms.get(key, Fraction(0)) + a.mass
    return Coupling(atoms)


def reverse_plan(plan: DynamicalPlan) -> DynamicalPlan:
    """Swap sources and targets; position at time t becomes position at -t."""
    return DynamicalPlan(
        atoms=tuple(PlanAtom(a.target, a.source, a.mass, -a.time_offset) for a in plan.atoms)
    )


# -- flow bounds --------------------------------------------------------------


def plan_edge_and_vertex_masses(plan: DynamicalPlan, t: MetricTree):
    """Oriented edge masses, vertex masses, and nearest-point masses.

    Returns ``(edge_mass, vertex_mass, base_mass)``: the mass of atoms
    traversing each oriented finite edge, passing through each vertex,
    and passing through each vertex as the point of their geodesic
    nearest the base.
    """
    edge_mass: dict[tuple[str, str], Fraction] = {}
    vertex_mass: dict[str, Fraction] = {}
    base_mass: dict[str, Fraction] = {}
    for a in plan.atoms:
        chain, _, k = a.geodesic(t)
        for e in zip(chain, chain[1:]):
            edge_mass[e] = edge_mass.get(e, Fraction(0)) + a.mass
        for v in chain:
            vertex_mass[v] = vertex_mass.get(v, Fraction(0)) + a.mass
        base_mass[chain[k]] = base_mass.get(chain[k], Fraction(0)) + a.mass
    return edge_mass, vertex_mass, base_mass


@dataclass(frozen=True)
class FlowBoundsReport:
    """Mass-versus-flow comparison over all edges and vertices.

    ``strict_edges`` and ``strict_vertices`` list the sites where the
    plan carries strictly more than the flow requires; the remaining
    flags relate the equality case to antagonism and to the specific
    flow, which is what the theory predicts.
    """

    strict_edges: tuple
    strict_vertices: tuple
    bounds_hold: bool
    all_equal: bool
    antagonism_free: bool
    equivalence_holds: bool
    specific_flow_matches: Optional[bool]

    @property
    def passed(self) -> bool:
        return (
            self.bounds_hold
            and self.equivalence_holds
            and (self.specific_flow_matches is not False)
        )


def check_flow_bounds(plan: DynamicalPlan, ff: FlowField) -> FlowBoundsReport:
    """Verify mass >= flow bounds and the equality/antagonism dichotomy."""
    t = ff.tree
    _require_marginals(plan, ff)

    edge_mass, vertex_mass, base_mass = plan_edge_and_vertex_masses(plan, t)
    edges = []  # (site, plan mass, flow)
    for u, v, _length in t.edges:
        for tail, head in ((u, v), (v, u)):
            edges.append(((tail, head), edge_mass.get((tail, head), Fraction(0)), ff.flow(tail, head)))
    # End edges: inward traversals carry the source mass, outward the
    # target mass; recorded for completeness.  The plan's marginals are
    # ff's measures (checked above), so those masses are read from them.
    for end_id in sorted(t.ends):
        attach = t.attach(end_id)
        outward = ff.flow(attach, end_id)
        edges.append(((attach, end_id), ff.plus.mass(end_id), outward))
        edges.append(((end_id, attach), ff.minus.mass(end_id), -outward))
    vertices = [(x, vertex_mass.get(x, Fraction(0)), ff.out.get(x, Fraction(0))) for x in t.vertices]

    def departures(sites):
        """``(site, got, bound, kind)`` wherever the plan's mass is not the bound."""
        out = []
        for site, got, flow in sites:
            bound = max(flow, Fraction(0))
            if got != bound:
                out.append((site, got, bound, "violated" if got < bound else "strict"))
        return out

    strict_edges, strict_vertices = departures(edges), departures(vertices)
    bounds_hold = all(kind == "strict" for *_, kind in strict_edges + strict_vertices)
    all_equal = not strict_edges and not strict_vertices
    antagonism_free = not antagonist_pairs(plan, t)
    specific_matches: Optional[bool] = None
    if all_equal:
        specific_matches = all(
            base_mass.get(x, Fraction(0)) == ff.specific.get(x, Fraction(0))
            for x in t.vertices
        )
    return FlowBoundsReport(
        strict_edges=tuple(strict_edges),
        strict_vertices=tuple(strict_vertices),
        bounds_hold=bounds_hold,
        all_equal=all_equal,
        antagonism_free=antagonism_free,
        equivalence_holds=all_equal == antagonism_free,
        specific_flow_matches=specific_matches,
    )


# -- the time function and its levels -----------------------------------------


@dataclass(frozen=True)
class TimeFunction:
    """Continuous time coordinate: unit slope along positive edges,
    constant on neutral ones, normalized to 0 at the base vertex."""

    vertex_time: Mapping[str, Fraction]
    edge_class: Mapping[tuple[str, str], str]
    ray_class: Mapping[str, str]

    def at_vertex(self, v: str) -> Fraction:
        return self.vertex_time[v]

    def at_point(self, t: MetricTree, p: TreePoint) -> Fraction:
        if p.kind == "vertex":
            return self.vertex_time[p.vertex]
        if p.kind == "edge":
            u, v = p.edge
            cls = self.edge_class[(u, v)]
            if cls == POSITIVE:
                return self.vertex_time[u] + p.offset
            if cls == NEGATIVE:
                return self.vertex_time[u] - p.offset
            return self.vertex_time[u]
        cls = self.ray_class[p.end]
        base = self.vertex_time[t.attach(p.end)]
        if cls == POSITIVE:
            return base + p.offset
        if cls == NEGATIVE:
            return base - p.offset
        return base


def build_time_function(t: MetricTree, ff: FlowField) -> TimeFunction:
    """Propagate times from the base down the rooted preorder.

    The flow from ``parent(v)`` into ``v`` is ``ff.below[v]``, so each
    vertex's time is its parent's plus, minus or equal to the length
    between them as that flow is positive, negative or 0.
    """
    index = t._root()
    parent, parent_len, below = index.parent, index.parent_len, ff.below
    vertex_time: dict[str, Fraction] = {t.base: Fraction(0)}
    for v in index.order[1:]:
        phi, time = below.get(v, _ZERO), vertex_time[parent[v]]
        vertex_time[v] = time + parent_len[v] if phi > 0 else time - parent_len[v] if phi < 0 else time
    return TimeFunction(
        vertex_time=vertex_time,
        edge_class={edge: flow_class(phi) for edge, phi in ff.edge_flows()},
        ray_class={end_id: flow_class(ff.flow_to_end(end_id)) for end_id in t.ends},
    )


@dataclass(frozen=True)
class LevelSnapshot:
    """Snapshot built directly from the flow field at a time level.

    Mass sits on the level set of the time function restricted to the
    non-neutral part of the tree: the flow value at each crossing point
    of a positive edge and the vertex flow at each level vertex.
    ``tie_components`` flags neutral components whose boundary has two
    or more flow-carrying vertices on this level (informational; the
    masses are already per boundary vertex and per direction).
    """

    snapshot: Snapshot
    tie_components: tuple[tuple[str, ...], ...]


def flow_level_snapshot(
    t: MetricTree, ff: FlowField, tf: TimeFunction, time
) -> LevelSnapshot:
    time = Fraction(time)
    atoms: dict[TreePoint, Fraction] = {}

    def put(point, mass):
        atoms[point] = atoms.get(point, Fraction(0)) + mass

    out = ff.out
    for x in t.vertices:
        if x in out and tf.vertex_time[x] == time:
            put(TreePoint.at_vertex(x), out[x])
    for (u, v), phi in ff.edge_flows():
        if not phi:
            continue
        tail, head = (u, v) if phi > 0 else (v, u)
        lo, hi = tf.vertex_time[tail], tf.vertex_time[head]
        if lo < time < hi:
            put(TreePoint.on_edge(tail, head, time - lo, t.edge_length[(u, v)]), abs(phi))
    for end_id in sorted(t.ends):
        f = ff.flow_to_end(end_id)
        if f == 0:
            continue
        attach = t.attach(end_id)
        at = tf.vertex_time[attach]
        if f > 0 and time > at:
            put(TreePoint.on_ray(end_id, attach, time - at), f)
        elif f < 0 and time < at:
            put(TreePoint.on_ray(end_id, attach, at - time), -f)

    # Neutral components with several flow-carrying boundary vertices on
    # this level admit bookkeeping ties; flag them for review.  A vertex
    # joins its parent's component when the edge between them carries no
    # flow, so each component is named by its top vertex.
    index = t._root()
    parent, below = index.parent, ff.below
    top = {t.base: t.base}
    for v in index.order[1:]:
        top[v] = v if below.get(v) else top[parent[v]]
    boundaries: dict[str, list[str]] = {}
    for x in t.vertices:
        boundary = boundaries.setdefault(top[x], [])
        if x in out and tf.vertex_time[x] == time:
            boundary.append(x)
    return LevelSnapshot(
        snapshot=Snapshot(time=time, atoms=atoms),
        tie_components=tuple(tuple(b) for b in boundaries.values() if len(b) >= 2),
    )


def align_offsets_to_time_function(
    plan: DynamicalPlan, tf: TimeFunction, t: MetricTree
) -> DynamicalPlan:
    """Shift each atom so its position at time t sits on time level t."""
    offsets = []
    for a in plan.atoms:
        chain, _, k = a.geodesic(t)
        offsets.append(-tf.vertex_time[chain[k]])
    return with_offsets(plan, offsets)


# -- uncrossing ---------------------------------------------------------------


def uncross(pi: Coupling, t: MetricTree) -> Coupling:
    """Remove opposite traversals of every finite edge by target swaps.

    Edges are processed once each, ordered by increasing distance of
    their midpoint from the base and then lexicographically.  At each
    edge, pairs crossing it in opposite orientations exchange targets
    until one orientation carries nothing.  A swap never creates a new
    oriented traversal anywhere (the new geodesics ride prefixes and
    suffixes of the old ones), so previously cleaned edges stay clean,
    the objective never increases, and one pass suffices.
    """
    t.require_valid()
    minus, plus = pi.marginals()
    if minus.support & plus.support:
        raise DomainError("coupling marginals are not antipodal")

    index = t._root()
    parent = index.parent

    def order_key(edge):
        u, v, length = edge
        midpoint = min(t.depth(u), t.depth(v)) + length / 2
        return (midpoint, u, v)

    atoms = dict(pi.atoms)
    for u, v, _length in sorted(t.edges, key=order_key):
        child = v if parent[v] == u else u
        forward = []  # crossing toward the child side
        backward = []
        for pair in sorted(atoms):
            a, b = pair
            a_in = index.below(t.attach(a), child)
            b_in = index.below(t.attach(b), child)
            if a_in == b_in:
                continue
            (forward if b_in else backward).append(pair)
        fi = bi = 0
        while fi < len(forward) and bi < len(backward):
            fa, fb = forward[fi]
            ba, bb = backward[bi]
            q = min(atoms[(fa, fb)], atoms[(ba, bb)])
            for pair in ((fa, fb), (ba, bb)):
                atoms[pair] -= q
                if atoms[pair] == 0:
                    del atoms[pair]
            for pair in ((fa, bb), (ba, fb)):
                atoms[pair] = atoms.get(pair, Fraction(0)) + q
            if (fa, fb) not in atoms:
                fi += 1
            if (ba, bb) not in atoms:
                bi += 1
    return Coupling(atoms)


# -- ends beyond an edge, and the point metric --------------------------------


def _subtree_ends(t: MetricTree, v: str) -> frozenset[str]:
    """Ends lying in the subtree rooted at ``v`` (base as root).

    Read on demand from the preorder interval of ``v``, in time
    linear in the subtree; no per-vertex end sets are kept.
    """
    index = t._root()
    below = index.order[index.pos[v] : index.stop[v]]
    return frozenset(e for w in below for e in t.vertex_ends[w])


def future_ends(t: MetricTree, tail: str, head: str) -> frozenset[str]:
    """Ends on the head side after removing the open edge (tail, head).

    Finite edges are given by their two vertices; an end-edge is
    addressed with the end id as ``head`` (outward) or ``tail``
    (inward).  Computed on demand from the rooted index: the subtree
    below the edge, or its complement.
    """
    t.require_valid()
    ends = t.ends
    if ends.get(head) == tail:
        return frozenset({head})
    if ends.get(tail) == head:
        return frozenset(ends) - {tail}
    if _edge_key(tail, head) not in t.edge_length:
        raise DomainError(f"no edge between {tail!r} and {head!r}")
    if t.parent(head) == tail:
        return _subtree_ends(t, head)
    return frozenset(t.ends) - _subtree_ends(t, tail)


def vertex_distance(t: MetricTree, u: str, v: str) -> Fraction:
    """Exact distance between two vertices, through their meet."""
    depth = t._root().depth
    return depth[u] + depth[v] - 2 * depth[t.meet(u, v)]


def _portals(t: MetricTree, p: TreePoint) -> list[tuple[str, Fraction]]:
    """Vertices through which any path must leave the point's edge."""
    if p.kind == "vertex":
        return [(p.vertex, Fraction(0))]
    if p.kind == "edge":
        u, v = p.edge
        length = t.edge_length[(u, v)]
        return [(u, p.offset), (v, length - p.offset)]
    return [(t.attach(p.end), p.offset)]


def _check_point(t: MetricTree, p: TreePoint) -> None:
    if p.kind == "vertex":
        if p.vertex not in t._vertex_set:
            raise DomainError(f"unknown vertex {p.vertex!r}")
    elif p.kind == "edge":
        if p.edge not in t.edge_length:
            raise DomainError(f"unknown edge {p.edge!r}")
        if not 0 < p.offset < t.edge_length[p.edge]:
            raise DomainError(f"offset {p.offset} outside edge {p.edge!r}")
    elif p.kind == "ray":
        if p.end not in t.ends:
            raise DomainError(f"unknown end {p.end!r}")
        if p.offset <= 0:
            raise DomainError(f"ray point must have positive offset, got {p.offset}")
    else:
        raise DomainError(f"bad point kind {p.kind!r}")


def dist(t: MetricTree, p: TreePoint, q: TreePoint) -> Fraction:
    """Exact tree distance between two (finite) points."""
    t.require_valid()
    _check_point(t, p)
    _check_point(t, q)
    if p == q:
        return Fraction(0)
    if p.kind == "edge" and q.kind == "edge" and p.edge == q.edge:
        return abs(p.offset - q.offset)
    if p.kind == "ray" and q.kind == "ray" and p.end == q.end:
        return abs(p.offset - q.offset)
    best = None
    for u, du in _portals(t, p):
        for v, dv in _portals(t, q):
            cand = du + vertex_distance(t, u, v) + dv
            if best is None or cand < best:
                best = cand
    return best


def second_moment(s: Snapshot, t: MetricTree) -> Fraction:
    """Mass-weighted squared distance to the base vertex."""
    origin = TreePoint.at_vertex(t.base)
    total = Fraction(0)
    for p, mass in s.atoms.items():
        d = dist(t, origin, p)
        total += mass * d * d
    return total
