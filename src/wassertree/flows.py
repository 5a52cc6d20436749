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


def subtree_masses(t: MetricTree, measure: BoundaryMeasure) -> dict[str, Fraction]:
    """Mass of the ends below each vertex, with the base as root.

    Each support end adds its mass to every vertex from its attach
    vertex up to the base, so only vertices with a charged subtree
    appear; every other vertex has subtree mass 0.  The flow through the
    edge from ``parent(y)`` into ``y`` is ``plus`` minus ``minus`` of
    this quantity at ``y``.
    """
    parent = t._root()[0]
    below: dict[str, Fraction] = {}
    for end_id, mass in measure.atoms.items():
        v = t.attach(end_id)
        while v is not None:
            below[v] = below.get(v, Fraction(0)) + mass
            v = parent[v]
    return below


def compute_flow_field(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> FlowField:
    """Evaluate the signed measure (plus - minus) on every edge future."""
    t.require_valid()
    if not check_antipodal(t, minus, plus):
        raise DomainError("measures are not antipodal (supports intersect)")

    parent = t._root()[0]

    def net(ends) -> Fraction:
        return plus.mass_of(ends) - minus.mass_of(ends)

    edge_flow: dict[tuple[str, str], Fraction] = {}
    classification: dict[tuple[str, str], str] = {}
    for u, v, _length in t.edges:
        child = v if parent[v] == u else u
        toward_child = net(t.subtree_ends(child))
        value = toward_child if child == v else -toward_child
        edge_flow[(u, v)] = value
        classification[(u, v)] = POSITIVE if value > 0 else NEGATIVE if value < 0 else NEUTRAL

    end_flow: dict[str, Fraction] = {e: net({e}) for e in t.ends}

    ff = FlowField(
        tree=t,
        minus=minus,
        plus=plus,
        edge_flow=edge_flow,
        end_flow=end_flow,
        vertex_flow={},
        specific_flow={},
        classification=classification,
    )

    vertex_flow: dict[str, Fraction] = {}
    specific_flow: dict[str, Fraction] = {}
    for x in t.vertices:
        out_flows = [ff.flow(x, w) for w, _ in t.adjacency[x]]
        out_flows += [end_flow[e] for e in t.vertex_ends[x]]
        total = sum((f for f in out_flows if f > 0), Fraction(0))
        vertex_flow[x] = total
        p = parent[x]
        if p is None:
            specific_flow[x] = total
        else:
            toward_base = ff.flow(x, p)
            if toward_base > 0:
                specific_flow[x] = total - toward_base
            elif toward_base < 0:
                specific_flow[x] = total + toward_base
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
    total = Fraction(0)
    for x in t.vertices:
        d = t.depth(x)
        total += ff.specific_flow[x] * d * d
    return total
