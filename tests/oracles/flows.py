"""The dense flow field that the sparse one replaced.

:func:`compute_flow_field` fills a value for every finite edge, every
end and every vertex up front, and :class:`DenseFlowField` reads
``flow(tail, head)`` from those filled maps.  Its subtree masses are
``Fraction`` sums that walk from each support end up to the base, over
a rooting and depths of its own (:mod:`oracles.rooted`), so they share
no code with the library's integer bottom-up pass.  The library keeps
only the sums and the positive out-flows at charged vertices and reads
every flow from them on demand; this route exists only to be compared
with it by exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from wassertree.errors import DomainError
from wassertree.flows import NEGATIVE, NEUTRAL, POSITIVE, BoundaryMeasure, check_antipodal
from wassertree.tree import MetricTree, _edge_key

from .rooted import rooting, subtree_masses

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DenseFlowField:
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


def compute_flow_field(t: MetricTree, minus: BoundaryMeasure, plus: BoundaryMeasure) -> DenseFlowField:
    t.require_valid()
    if not check_antipodal(t, minus, plus):
        raise DomainError("measures are not antipodal (supports intersect)")

    parent, _depth = rooting(t)
    below_plus, below_minus = subtree_masses(t, plus), subtree_masses(t, minus)
    below = {
        v: below_plus.get(v, _ZERO) - below_minus.get(v, _ZERO)
        for v in below_plus.keys() | below_minus.keys()
    }

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

    return DenseFlowField(
        tree=t,
        minus=minus,
        plus=plus,
        edge_flow=edge_flow,
        end_flow=end_flow,
        vertex_flow=vertex_flow,
        specific_flow=specific_flow,
        classification=classification,
    )


def specific_flow_second_moment(t: MetricTree, ff: DenseFlowField) -> Fraction:
    """Sum over every vertex of specific flow times squared base distance."""
    _parent, depth = rooting(t)
    total = Fraction(0)
    for x in t.vertices:
        flow = ff.specific_flow[x]
        if flow:
            d = depth[x]
            total += flow * d * d
    return total
