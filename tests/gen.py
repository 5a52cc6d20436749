"""Seeded random instance generators shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from wassertree import BoundaryMeasure, Coupling, MetricTree


def random_tree(
    rng: random.Random, max_internal: int = 4, extra_ends: int = 4, min_internal: int = 1
) -> MetricTree:
    """A random canonical tree: random backbone, ends padding every
    vertex up to degree 3, plus a few extra ends."""
    n = rng.randint(min_internal, max_internal)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = vertices[rng.randrange(i)]
        length = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        edges.append((parent, vertices[i], length))
    degree = {v: 0 for v in vertices}
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    ends = []
    for v in vertices:
        for _ in range(max(0, 3 - degree[v])):
            ends.append((f"e{len(ends)}", v))
    for _ in range(rng.randint(0, extra_ends)):
        ends.append((f"e{len(ends)}", rng.choice(vertices)))
    while len(ends) < 2:
        ends.append((f"e{len(ends)}", vertices[0]))
    base = rng.choice(vertices)
    return MetricTree(vertices=vertices, edges=edges, ends=ends, base=base)


def random_measures(
    rng: random.Random, t: MetricTree, max_side: int = 6
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Random antipodal pair with rational masses (disjoint supports)."""
    ends = list(t.ends)
    rng.shuffle(ends)
    k_minus = rng.randint(1, min(max_side, len(ends) - 1))
    k_plus = rng.randint(1, min(max_side, len(ends) - k_minus))
    minus_support = ends[:k_minus]
    plus_support = ends[k_minus : k_minus + k_plus]

    def masses(support):
        weights = [rng.randint(1, 9) for _ in support]
        total = sum(weights)
        return {e: Fraction(w, total) for e, w in zip(support, weights)}

    return BoundaryMeasure(masses(minus_support)), BoundaryMeasure(masses(plus_support))


def random_vertex_coupling(
    rng: random.Random, minus: BoundaryMeasure, plus: BoundaryMeasure
) -> Coupling:
    """A random vertex of the transport polytope (northwest corner on
    shuffled supports).  The supports are sorted before the shuffle, since
    a frozenset's order follows string hashing and the draw must depend
    on ``rng`` alone."""
    rows = sorted(minus.support)
    cols = sorted(plus.support)
    rng.shuffle(rows)
    rng.shuffle(cols)
    supply = {a: minus.mass(a) for a in rows}
    demand = {b: plus.mass(b) for b in cols}
    atoms = {}
    i = j = 0
    while i < len(rows) and j < len(cols):
        a, b = rows[i], cols[j]
        q = min(supply[a], demand[b])
        if q > 0:
            atoms[(a, b)] = atoms.get((a, b), Fraction(0)) + q
        supply[a] -= q
        demand[b] -= q
        if supply[a] == 0:
            i += 1
        if demand[b] == 0:
            j += 1
    return Coupling(atoms)


def random_coupling(
    rng: random.Random, minus: BoundaryMeasure, plus: BoundaryMeasure
) -> Coupling:
    """A random feasible coupling: vertex, or a mix of two vertices."""
    first = random_vertex_coupling(rng, minus, plus)
    if rng.random() < 0.5:
        return first
    second = random_vertex_coupling(rng, minus, plus)
    w = Fraction(rng.randint(1, 3), 4)
    atoms = {}
    for pair, mass in first.atoms.items():
        atoms[pair] = atoms.get(pair, Fraction(0)) + w * mass
    for pair, mass in second.atoms.items():
        atoms[pair] = atoms.get(pair, Fraction(0)) + (1 - w) * mass
    return Coupling(atoms)
