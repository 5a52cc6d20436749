"""The per-vertex end-set routes that the rooted index replaced.

Each function here roots the tree itself (parent pointers and exact
``Fraction`` depths from a stack walk over the adjacency lists) and
shares nothing with ``MetricTree``'s rooted index:

* :func:`end_sets` builds the frozenset of ends below every vertex;
* :func:`flow_field` evaluates ``plus - minus`` on every edge future by
  summing over those frozensets, and derives the vertex flows from the
  oriented edge flows;
* :func:`subtree_masses` walks from each support end up to the base;
* :func:`meet` and :func:`vertex_path` climb by comparing depths, and
  :func:`gromov` reads the Gromov product of two ends as the depth of
  their meet;
* :func:`canonicalize` restarts a sorted scan after every suppression.

They are slow (the flow field is cubic on a spine) and exist only to be
compared with the library by exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from wassertree.errors import StructureError
from wassertree.tree import MetricTree, validate_tree


@lru_cache(maxsize=64)
def rooting(t: MetricTree):
    """(parent, depth) with the base as root."""
    t.require_valid()
    parent = {t.base: None}
    depth = {t.base: Fraction(0)}
    stack = [t.base]
    while stack:
        v = stack.pop()
        for w, length in t.adjacency[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + length
                stack.append(w)
    return parent, depth


def end_sets(t: MetricTree) -> dict[str, frozenset]:
    """The ends below every vertex, built bottom-up as frozensets."""
    parent, depth = rooting(t)
    out = {}
    for v in sorted(parent, key=lambda x: depth[x], reverse=True):
        acc = set(t.vertex_ends[v])
        for w, _ in t.adjacency[v]:
            if parent.get(w) == v:
                acc.update(out[w])
        out[v] = frozenset(acc)
    return out


def meet(t: MetricTree, u: str, v: str) -> str:
    parent, depth = rooting(t)
    a, b = u, v
    while a != b:
        if depth[a] >= depth[b]:
            a = parent[a]
        else:
            b = parent[b]
    return a


def gromov(t: MetricTree, a: str, b: str) -> Fraction:
    """(a|b): the distance from the base to the geodesic joining two distinct ends."""
    return rooting(t)[1][meet(t, t.attach(a), t.attach(b))]


def vertex_path(t: MetricTree, u: str, v: str) -> tuple:
    parent, depth = rooting(t)
    up, down = [], []
    a, b = u, v
    while a != b:
        if depth[a] >= depth[b]:
            up.append(a)
            a = parent[a]
        else:
            down.append(b)
            b = parent[b]
    return tuple(up + [a] + list(reversed(down)))


def subtree_masses(t: MetricTree, measure) -> dict[str, Fraction]:
    parent, _ = rooting(t)
    below = {}
    for end_id, mass in measure.atoms.items():
        v = t.attach(end_id)
        while v is not None:
            below[v] = below.get(v, Fraction(0)) + mass
            v = parent[v]
    return below


def flow_field(t: MetricTree, minus, plus) -> dict:
    """The five mappings of a FlowField, by frozenset sums."""
    parent, _ = rooting(t)
    sets = end_sets(t)

    def net(ends):
        return sum((plus.atoms.get(e, 0) - minus.atoms.get(e, 0) for e in ends), Fraction(0))

    edge_flow, classification = {}, {}
    for u, v, _length in t.edges:
        child = v if parent[v] == u else u
        toward_child = net(sets[child])
        value = toward_child if child == v else -toward_child
        edge_flow[(u, v)] = value
        classification[(u, v)] = (
            "positive" if value > 0 else "negative" if value < 0 else "neutral"
        )
    end_flow = {e: net({e}) for e in t.ends}

    def flow(tail, head):
        if (tail, head) in edge_flow:
            return edge_flow[(tail, head)]
        return -edge_flow[(head, tail)]

    vertex_flow, specific_flow = {}, {}
    for x in t.vertices:
        out_flows = [flow(x, w) for w, _ in t.adjacency[x]]
        out_flows += [end_flow[e] for e in t.vertex_ends[x]]
        total = sum((f for f in out_flows if f > 0), Fraction(0))
        vertex_flow[x] = total
        p = parent[x]
        if p is None:
            specific_flow[x] = total
        else:
            toward_base = flow(x, p)
            if toward_base > 0:
                specific_flow[x] = total - toward_base
            elif toward_base < 0:
                specific_flow[x] = total + toward_base
            else:
                specific_flow[x] = total
    return {
        "edge_flow": edge_flow,
        "end_flow": end_flow,
        "vertex_flow": vertex_flow,
        "specific_flow": specific_flow,
        "classification": classification,
    }


def second_moment(t: MetricTree, specific_flow) -> Fraction:
    _, depth = rooting(t)
    return sum((specific_flow[x] * depth[x] * depth[x] for x in t.vertices), Fraction(0))


def canonicalize(t: MetricTree) -> MetricTree:
    """Suppress degree-2 vertices, rescanning from the start after each.

    The metric space is unchanged, and a degree-2 base is kept.  Every
    violation ``validate_tree`` reports other than a degree-2 vertex is
    a :class:`StructureError` here too.
    """
    structural = [v for v in validate_tree(t).violations if not v.endswith("(degree 2)")]
    if structural:
        raise StructureError("; ".join(structural))
    adjacency = {v: dict() for v in t.vertices}
    for u, v, length in t.edges:
        adjacency[u][v] = length
        adjacency[v][u] = length
    end_attach = dict(t.ends)
    ends_at = {v: [e for e, a in end_attach.items() if a == v] for v in t.vertices}

    def degree(v):
        return len(adjacency[v]) + len(ends_at[v])

    changed = True
    while changed:
        changed = False
        for v in sorted(adjacency):
            if v == t.base or degree(v) != 2:
                continue
            neighbors = sorted(adjacency[v])
            local_ends = sorted(ends_at[v])
            if len(neighbors) == 2:
                a, b = neighbors
                length = adjacency[v][a] + adjacency[v][b]
                del adjacency[a][v]
                del adjacency[b][v]
                adjacency[a][b] = length
                adjacency[b][a] = length
            elif len(neighbors) == 1 and len(local_ends) == 1:
                a = neighbors[0]
                del adjacency[a][v]
                end_attach[local_ends[0]] = a
                ends_at[a].append(local_ends[0])
            else:
                raise StructureError(f"cannot suppress vertex {v!r}")
            del adjacency[v]
            del ends_at[v]
            changed = True
            break

    new_edges = [
        (u, v, length) for u in adjacency for v, length in adjacency[u].items() if u < v
    ]
    return MetricTree(
        vertices=adjacency.keys(), edges=new_edges, ends=end_attach.items(), base=t.base
    )
