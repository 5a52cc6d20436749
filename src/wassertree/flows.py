"""Boundary measures, antipodality, and the induced edge/vertex flows.

A pair of antipodal probability measures (disjoint supports on the
ends) defines a signed measure whose value on the future of each
oriented edge is the *flow* through that edge.  Edges are classified
positive / neutral / negative relative to a canonical orientation; the
flow through a vertex aggregates its positive out-edges, and the
*specific flow* discards whatever is carried by the edge pointing back
toward the base.  The second moment of the specific flow (mass times
squared base distance, summed over vertices) is the finiteness
functional used by the realizability decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError
from .rationals import parse_fraction
from .tree import MetricTree, _edge_key

__all__ = [
    "BoundaryMeasure",
    "FlowField",
    "check_antipodal",
    "compute_flow_field",
    "specific_flow_second_moment",
    "subtree_masses",
]

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"

_ZERO = Fraction(0)


class BoundaryMeasure:
    """A finitely supported probability measure on the ends.

    Zero-mass atoms are dropped at construction so that the stored
    support equals the measure-theoretic support; masses must be
    nonnegative rationals summing to exactly 1.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Mapping[str, Union[Fraction, int, str]]):
        cleaned: dict[str, Fraction] = {}
        for end_id in sorted(atoms):
            mass = parse_fraction(atoms[end_id])
            if mass < 0:
                raise DomainError(f"negative mass {mass} on end {end_id!r}")
            if mass > 0:
                cleaned[str(end_id)] = mass
        total = sum(cleaned.values(), Fraction(0))
        if total != 1:
            raise DomainError(f"masses sum to {total}, expected 1")
        self.atoms = cleaned

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.atoms)

    def mass(self, end_id: str) -> Fraction:
        return self.atoms.get(end_id, Fraction(0))

    def mass_of(self, ends) -> Fraction:
        return sum((self.atoms[e] for e in ends if e in self.atoms), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, BoundaryMeasure) and self.atoms == other.atoms

    def __repr__(self):
        inner = ", ".join(f"{e}: {m}" for e, m in sorted(self.atoms.items()))
        return f"BoundaryMeasure({{{inner}}})"


def _check_measures_on_tree(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure):
    known = set(t.ends)
    for m in (minus, plus):
        missing = sorted(m.support - known)
        if missing:
            raise DomainError(f"measure charges ends not in the tree: {missing}")


def check_antipodal(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> bool:
    """True iff the two supports are disjoint.

    On a tree every pair of distinct ends is joined by a geodesic, so
    disjoint supports are exactly the antipodal pairs of discrete
    measures.
    """
    t.require_valid()
    _check_measures_on_tree(t, minus, plus)
    return not (minus.support & plus.support)


@dataclass(frozen=True)
class FlowField:
    """Edge and vertex flows induced by an antipodal pair of measures.

    ``edge_flow`` holds the flow through each finite edge in its
    canonical orientation (smaller vertex id first); the opposite
    orientation is obtained by negation.  ``end_flow`` is the flow
    through each infinite leaf-edge oriented outward (toward the end).
    """

    tree: MetricTree
    minus: BoundaryMeasure
    plus: BoundaryMeasure
    edge_flow: Mapping[tuple[str, str], Fraction]
    end_flow: Mapping[str, Fraction]
    vertex_flow: Mapping[str, Fraction]
    specific_flow: Mapping[str, Fraction]
    classification: Mapping[tuple[str, str], str]

    def flow(self, tail: str, head: str) -> Fraction:
        """Flow through an oriented edge; end ids address end-edges."""
        if head in self.end_flow and tail == self.tree.attach(head):
            return self.end_flow[head]
        if tail in self.end_flow and head == self.tree.attach(tail):
            return -self.end_flow[tail]
        key = _edge_key(tail, head)
        if key not in self.edge_flow:
            raise DomainError(f"no edge between {tail!r} and {head!r}")
        value = self.edge_flow[key]
        return value if (tail, head) == key else -value

    def edge_class(self, u: str, v: str) -> str:
        return self.classification[_edge_key(u, v)]


def _below_sums(t: MetricTree, charges) -> dict[str, Fraction]:
    """Sparse bottom-up sums of end charges over the rooted tree.

    ``charges`` yields ``(end id, signed mass)`` pairs.  Each charge is
    seeded at its end's attach vertex; one walk over the preorder
    backwards then adds every seeded vertex into its parent.  Only
    vertices with a charged subtree get a key (the base included).
    """
    index = t._root()
    below: dict[str, Fraction] = {}
    for end_id, mass in charges:
        v = t.attach(end_id)
        below[v] = below[v] + mass if v in below else mass
    parent = index.parent
    for v in reversed(index.order):
        if v in below:
            p = parent[v]
            if p is not None:
                below[p] = below[p] + below[v] if p in below else below[v]
    return below


def subtree_masses(t: MetricTree, measure: BoundaryMeasure) -> dict[str, Fraction]:
    """Mass of the ends below each vertex, with the base as root.

    One sparse post-order pass over the rooted index: each support end
    seeds its attach vertex, and walking the preorder backwards adds a
    vertex into its parent only where a mass exists.  So only vertices
    with a charged subtree appear; every other vertex has subtree mass
    0.  The flow through the edge from ``parent(y)`` into ``y`` is
    ``plus`` minus ``minus`` of this quantity at ``y``.
    """
    return _below_sums(t, measure.atoms.items())


def compute_flow_field(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> FlowField:
    """Evaluate the signed measure (plus - minus) on every edge future.

    The net mass ``below[y] = (plus - minus)(T_y)`` of every subtree
    comes from one sparse bottom-up pass (see :func:`subtree_masses`);
    it is the flow from ``parent(y)`` into ``y``.  A vertex's positive
    out-flow is the sum of its children's positive ``below``, of
    ``-below[x]`` when that is positive (the edge toward the base) and
    of its ``plus`` end atoms; its specific flow drops ``|below[x]|``,
    the flow on the edge toward the base, except at the base itself.
    Edges, ends and vertices outside every charged subtree share one
    zero and are classified neutral without arithmetic.
    """
    t.require_valid()
    if not check_antipodal(t, minus, plus):
        raise DomainError("measures are not antipodal (supports intersect)")

    parent = t._root().parent
    below = _below_sums(
        t, [*plus.atoms.items(), *((e, -m) for e, m in minus.atoms.items())]
    )

    edge_flow: dict[tuple[str, str], Fraction] = {}
    classification: dict[tuple[str, str], str] = {}
    for u, v, _length in t.edges:
        child = v if parent[v] == u else u
        toward_child = below.get(child)
        if not toward_child:
            edge_flow[(u, v)] = _ZERO
            classification[(u, v)] = NEUTRAL
            continue
        value = toward_child if child == v else -toward_child
        edge_flow[(u, v)] = value
        classification[(u, v)] = POSITIVE if value > 0 else NEGATIVE

    end_flow: dict[str, Fraction] = {}
    for e in t.ends:
        if e in plus.atoms:
            end_flow[e] = plus.atoms[e]
        elif e in minus.atoms:
            end_flow[e] = -minus.atoms[e]
        else:
            end_flow[e] = _ZERO

    out: dict[str, Fraction] = {}
    for y, net in below.items():
        if net > 0:
            p = parent[y]
            if p is not None:
                out[p] = out[p] + net if p in out else net
        elif net < 0:
            out[y] = out[y] - net if y in out else -net
    for e, mass in plus.atoms.items():
        x = t.attach(e)
        out[x] = out[x] + mass if x in out else mass

    vertex_flow: dict[str, Fraction] = {}
    specific_flow: dict[str, Fraction] = {}
    for x in t.vertices:
        total = out.get(x, _ZERO)
        vertex_flow[x] = total
        net = below.get(x)
        if net and parent[x] is not None:
            specific_flow[x] = total - abs(net)
        else:
            specific_flow[x] = total

    return FlowField(
        tree=t,
        minus=minus,
        plus=plus,
        edge_flow=edge_flow,
        end_flow=end_flow,
        vertex_flow=vertex_flow,
        specific_flow=specific_flow,
        classification=classification,
    )


def specific_flow_second_moment(t: MetricTree, ff: FlowField) -> Fraction:
    """Sum over vertices of specific flow times squared base distance."""
    depth = t._root().depth
    total = Fraction(0)
    for x in t.vertices:
        flow = ff.specific_flow[x]
        if flow:
            d = depth[x]
            total += flow * d * d
    return total
