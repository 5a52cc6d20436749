"""Metric trees with marked ends (directions to infinity).

A tree is described combinatorially: a finite set of vertices, finite
edges with positive rational lengths, and *ends*, each realized as an
infinite leaf-edge hanging off an attach vertex.  A distinguished base
vertex serves as the origin for all Gromov-product and flow
computations.

Canonical form requires every vertex to have degree 1 or at least 3.
The single allowed exception is a degree-2 base vertex, which is kept
(the base must remain a vertex) and reported as a warning.

All values are immutable after construction and every operation is a
pure function of its inputs, so instances can be shared freely across
threads.  The one write after construction is the rooted index's depth
map, which stores each exact depth the first time it is read; a depth
is a function of the tree alone, so whichever thread writes it writes
the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .errors import DomainError, StructureError
from .rationals import parse_fraction

__all__ = [
    "MetricTree",
    "TreePoint",
    "ValidationReport",
    "validate_tree",
]


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class MetricTree:
    """A locally finite metric tree with ends and a base vertex.

    Construction is permissive: arbitrary graphs can be stored so that
    :func:`validate_tree` can report their defects.  Operations that
    need a valid canonical tree check first and raise
    :class:`StructureError`.  Each edge is normalized once (string ids,
    ``u <= v``, an exact length) into the one sorted list that fills
    ``edges``, ``edge_length`` and ``adjacency``.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, Union[Fraction, int, str]]],
        ends: Iterable[tuple[str, str]],
        base: str,
    ):
        vertex_ids = [str(v) for v in vertices]
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertex_ids)))
        self._vertex_set = frozenset(self.vertices)
        self._duplicate_vertices = len(vertex_ids) != len(self.vertices)
        normalized = []
        for u, v, length in edges:
            u, v, length = str(u), str(v), parse_fraction(length)
            normalized.append((u, v, length) if u <= v else (v, u, length))
        normalized.sort()
        self.edges: tuple[tuple[str, str, Fraction], ...] = tuple(normalized)
        self.edge_length: dict[tuple[str, str], Fraction] = {(u, v): length for u, v, length in normalized}
        # In sorted edge order each vertex meets its smaller neighbours
        # before its larger ones, so every adjacency list comes sorted.
        self.adjacency: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in self.vertices}
        adjacency = self.adjacency
        for u, v, length in normalized:
            if u in adjacency:
                adjacency[u].append((v, length))
            if v in adjacency and u != v:
                adjacency[v].append((u, length))
        end_pairs = sorted((str(e), str(a)) for e, a in ends)
        self.ends: dict[str, str] = dict(end_pairs)
        self._duplicate_ends = len(end_pairs) != len(self.ends)
        self.base = str(base)

        ends_at: dict[str, list[str]] = {v: [] for v in self.vertices}
        for end_id, attach in self.ends.items():
            if attach in ends_at:
                ends_at[attach].append(end_id)
        self.vertex_ends: dict[str, tuple[str, ...]] = {v: tuple(ids) for v, ids in ends_at.items()}

        self._validation: Optional[ValidationReport] = None
        self._walk: Optional[_Walk] = None
        self._rooted = None

    # -- structure ---------------------------------------------------------

    def attach(self, end_id: str) -> str:
        try:
            return self.ends[end_id]
        except KeyError:
            raise DomainError(f"unknown end {end_id!r}") from None

    def validation_report(self) -> "ValidationReport":
        if self._validation is None:
            self._validation, self._walk = _validate(self)
        return self._validation

    def require_valid(self) -> None:
        report = self.validation_report()
        if not report.valid:
            raise StructureError("; ".join(report.violations))

    # -- rooted structure (base as root) -----------------------------------

    def _root(self) -> "RootedIndex":
        if self._rooted is None:
            self.require_valid()
            self._rooted = _build_index(self._walk)
        return self._rooted

    def depth(self, v: str) -> Fraction:
        """Exact distance from the base vertex."""
        return self._root().depth[v]

    def path(self, u: str, v: str) -> tuple[list[tuple[str, int]], str]:
        """The unique path from ``u`` to ``v`` as ``(steps, meet)``, base as root.

        ``meet`` is the lowest common ancestor.  ``steps`` lists the
        path's edges in path order as ``(child, sign)``: first the climbs
        from ``u`` (sign -1, ``child`` up to its parent), then the
        descents toward ``v`` (sign +1, the parent down into ``child``).
        The walk climbs by hop level, with no rational compare.
        """
        index = self._root()
        parent, level = index.parent, index.level
        steps, down = [], []
        while u != v:
            if level[u] >= level[v]:
                steps.append((u, -1))
                u = parent[u]
            else:
                down.append((v, 1))
                v = parent[v]
        steps.extend(reversed(down))
        return steps, u

    def meets_with(self, v: str) -> dict[str, str]:
        """``meet(v, w)`` for every vertex ``w``, in one pass over the tree.

        The vertices below ``v`` meet it at ``v``.  Climbing from ``v`` to
        the base, each ancestor ``a`` is the meet of exactly the part of
        its preorder interval that its child's interval leaves out, so
        the pass is linear in the tree.
        """
        index = self._root()
        parent, pos, stop = index.parent, index.pos, index.stop
        lo, hi = pos[v], stop[v]
        labels = [v] * len(index.order)
        a = parent[v]
        while a is not None:
            labels[pos[a] : lo] = [a] * (lo - pos[a])
            labels[hi : stop[a]] = [a] * (stop[a] - hi)
            lo, hi = pos[a], stop[a]
            a = parent[a]
        return dict(zip(index.order, labels))


class RootedIndex(NamedTuple):
    """The tree rooted at its base, built once per tree.

    ``order`` lists the vertices in preorder, so a vertex precedes its
    descendants and walking it backwards visits children before their
    parent (one bottom-up pass).  The subtree of ``v`` is the slice
    ``order[pos[v]:stop[v]]``, so "``w`` lies below ``v``" is the
    interval test ``pos[v] <= pos[w] < stop[v]``.  ``level`` counts the
    edges up to the base; climbing by level needs no rational compare.
    ``depth`` maps a vertex to its exact distance from the base,
    computed on first read: read it by subscript only, since a vertex
    not yet read is absent from ``get``, ``in`` and iteration.
    """

    parent: dict[str, Optional[str]]
    parent_len: dict[str, Fraction]
    depth: dict[str, Fraction]
    level: dict[str, int]
    order: tuple[str, ...]
    pos: dict[str, int]
    stop: dict[str, int]


class _Depths(dict):
    """Exact depths, each summed on its first read.

    A missing vertex climbs its parents to the nearest known depth and
    stores every depth on the way back down, so reading a whole path
    costs one addition per vertex, without recursion.  An unknown
    vertex raises :class:`KeyError`.
    """

    __slots__ = ("_parent", "_parent_len")

    def __init__(self, base: str, parent: dict, parent_len: dict):
        super().__init__({base: Fraction(0)})
        self._parent = parent
        self._parent_len = parent_len

    def __missing__(self, v: str) -> Fraction:
        parent = self._parent
        chain = [v]
        u = parent[v]
        while u not in self:
            chain.append(u)
            u = parent[u]
        d = self[u]
        parent_len = self._parent_len
        for w in reversed(chain):
            d += parent_len[w]
            self[w] = d
        return d


class _Walk(NamedTuple):
    """One depth-first walk from the base: preorder, parents and hop levels."""

    order: list[str]
    parent: dict[str, Optional[str]]
    parent_len: dict[str, Fraction]
    level: dict[str, int]


def _walk_from_base(t: MetricTree) -> _Walk:
    parent: dict[str, Optional[str]] = {t.base: None}
    parent_len: dict[str, Fraction] = {}
    level: dict[str, int] = {t.base: 0}
    order: list[str] = []
    stack = [t.base]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, length in reversed(t.adjacency[v]):
            if w not in parent:
                parent[w] = v
                parent_len[w] = length
                level[w] = level[v] + 1
                stack.append(w)
    return _Walk(order, parent, parent_len, level)


def _build_index(walk: _Walk) -> RootedIndex:
    order, parent, parent_len, level = walk
    pos = {v: i for i, v in enumerate(order)}
    stop = dict.fromkeys(order, len(order))
    # A subtree ends where the next vertex at its level or above starts.
    open_: list[str] = []
    for i, v in enumerate(order):
        while open_ and level[open_[-1]] >= level[v]:
            stop[open_.pop()] = i
        open_.append(v)
    depth = _Depths(order[0], parent, parent_len)
    return RootedIndex(parent, parent_len, depth, level, tuple(order), pos, stop)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]


def _validate(t: MetricTree) -> tuple[ValidationReport, Optional[_Walk]]:
    """Every violation and warning of ``t``, and the connectivity walk from the base.

    The rooted index reuses the walk; it is ``None`` when the ids or
    edges are faulty and the walk did not run.
    """
    violations: list[str] = []

    if t.base not in t._vertex_set:
        violations.append(f"base vertex {t.base!r} is not a vertex")
    if t._duplicate_vertices:
        violations.append("duplicate vertex ids")
    if t._duplicate_ends:
        violations.append("duplicate end ids")
    for end_id, attach in t.ends.items():
        if attach not in t._vertex_set:
            violations.append(f"end {end_id!r} attaches to unknown vertex {attach!r}")
        if end_id in t._vertex_set:
            violations.append(f"end id {end_id!r} collides with a vertex id")

    seen_pairs = set()
    for u, v, length in t.edges:
        if u == v:
            violations.append(f"self-loop at {u!r}")
        if u not in t._vertex_set or v not in t._vertex_set:
            violations.append(f"edge ({u!r},{v!r}) references unknown vertex")
        if length.numerator <= 0:
            violations.append(f"edge ({u!r},{v!r}) has non-positive length {length}")
        if (u, v) in seen_pairs:
            violations.append(f"parallel edges between {u!r} and {v!r}")
        seen_pairs.add((u, v))

    if violations:
        return ValidationReport(False, tuple(violations), ()), None

    # Connectivity and acyclicity of the finite part (ends are leaves and
    # cannot close a cycle).  The base is a vertex, so the walk can start
    # there and, on a tree, serve as the rooted index.
    walk = _walk_from_base(t)
    if len(walk.order) != len(t.vertices):
        violations.append("not connected")
    elif len(t.edges) != len(t.vertices) - 1:
        violations.append("not acyclic")
    if len(t.ends) < 2:
        violations.append("fewer than 2 ends")

    warnings: list[str] = []
    if not violations:
        # A connected tree of two or more vertices has no isolated one.
        adjacency, vertex_ends = t.adjacency, t.vertex_ends
        for v in t.vertices:
            if len(adjacency[v]) + len(vertex_ends[v]) == 2:
                if v == t.base:
                    warnings.append("base vertex has degree 2 (kept as exception)")
                else:
                    violations.append(f"non-canonical vertex {v!r} (degree 2)")

    return ValidationReport(not violations, tuple(violations), tuple(warnings)), walk


def validate_tree(t: MetricTree) -> ValidationReport:
    """Check every structural invariant and report each violation."""
    return t.validation_report()


# -- points -----------------------------------------------------------------


@dataclass(frozen=True)
class TreePoint:
    """A point of the tree: a vertex, or an offset along an edge.

    Representation is canonical so points can be compared and merged:
    vertex points are never written as offset-0 edge points, finite edge
    points measure their offset from the smaller endpoint id, and ray
    points (on an infinite end-edge) measure from the attach vertex.
    """

    kind: str  # "vertex" | "edge" | "ray"
    vertex: Optional[str] = None
    edge: Optional[tuple[str, str]] = None
    end: Optional[str] = None
    offset: Optional[Fraction] = None

    @staticmethod
    def at_vertex(v: str) -> "TreePoint":
        return TreePoint(kind="vertex", vertex=v)

    @staticmethod
    def on_edge(u: str, v: str, offset_from_u: Fraction, length: Fraction) -> "TreePoint":
        if offset_from_u < 0 or offset_from_u > length:
            raise DomainError(f"offset {offset_from_u} outside edge of length {length}")
        if offset_from_u == 0:
            return TreePoint.at_vertex(u)
        if offset_from_u == length:
            return TreePoint.at_vertex(v)
        a, b = _edge_key(u, v)
        off = offset_from_u if a == u else length - offset_from_u
        return TreePoint(kind="edge", edge=(a, b), offset=off)

    @staticmethod
    def on_ray(end_id: str, attach: str, offset: Fraction) -> "TreePoint":
        if offset < 0:
            raise DomainError(f"negative ray offset {offset}")
        if offset == 0:
            return TreePoint.at_vertex(attach)
        return TreePoint(kind="ray", end=end_id, offset=offset)

    def sort_key(self):
        return (
            self.kind,
            self.vertex or "",
            self.edge or ("", ""),
            self.end or "",
            self.offset if self.offset is not None else Fraction(0),
        )

