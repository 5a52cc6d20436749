"""The ``MetricTree`` constructor that the one-pass constructor replaced.

:class:`ReferenceTree` fills the same public and private fields as
:class:`~wassertree.tree.MetricTree` the way it was first written: it
normalizes the edges in two passes (ids and lengths, then key order),
fills ``edge_length`` and ``adjacency`` in passes of their own and grows
each ``vertex_ends`` tuple by concatenation.  Every other method is
inherited, so validation and rooting read the fields it built.  It is
kept to be compared with the library field by field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from wassertree.rationals import parse_fraction
from wassertree.tree import MetricTree, _edge_key


class ReferenceTree(MetricTree):
    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, Union[Fraction, int, str]]],
        ends: Iterable[tuple[str, str]],
        base: str,
    ):
        vertex_ids = [str(v) for v in vertices]
        self.vertices = tuple(sorted(set(vertex_ids)))
        self._vertex_set = frozenset(self.vertices)
        self._duplicate_vertices = len(vertex_ids) != len(self.vertices)
        raw_edges = [(str(u), str(v), parse_fraction(length)) for u, v, length in edges]
        self.edges = tuple(sorted((*_edge_key(u, v), length) for u, v, length in raw_edges))
        self.edge_length = {(u, v): length for u, v, length in self.edges}
        end_pairs = sorted((str(e), str(a)) for e, a in ends)
        self.ends = dict(end_pairs)
        self._duplicate_ends = len(end_pairs) != len(self.ends)
        self.base = str(base)

        self.adjacency = {v: [] for v in self.vertices}
        for u, v, length in self.edges:
            if u in self.adjacency:
                self.adjacency[u].append((v, length))
            if v in self.adjacency and u != v:
                self.adjacency[v].append((u, length))
        self.vertex_ends = {v: () for v in self.vertices}
        for end_id, attach in self.ends.items():
            if attach in self.vertex_ends:
                self.vertex_ends[attach] = self.vertex_ends[attach] + (end_id,)

        self._validation = None
        self._walk = None
        self._rooted = None
