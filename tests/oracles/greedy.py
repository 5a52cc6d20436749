"""The flow-capped greedy without reach pruning.

:func:`solve_optimal_coupling` visits every cell of the (source,
target) table in row-major order, walks each cell's path against a
residual-flow table over every vertex, and loads the largest mass the
supply, the demand and the residual flows allow.  It is the greedy that
``transport.solve_optimal_coupling`` prunes, kept to be compared with it
by exact equality.
"""

from __future__ import annotations

from fractions import Fraction

from wassertree.errors import DomainError
from wassertree.transport import Coupling
from wassertree.tree import gromov_product


def _path_steps(t, u, v):
    index = t._root()
    parent, level = index.parent, index.level
    steps = []
    while u != v:
        if level[u] >= level[v]:
            steps.append((u, -1))
            u = parent[u]
        else:
            steps.append((v, 1))
            v = parent[v]
    return steps


def solve_optimal_coupling(ff, walks=None):
    """The lex-greatest optimal coupling and its value.

    When ``walks`` is a list, the source of every cell whose path the
    greedy walks is appended to it.
    """
    t, minus, plus = ff.tree, ff.minus, ff.plus
    parent = t._root().parent
    residual = {y: ff.flow(p, y) for y, p in parent.items() if p is not None}
    supply = dict(minus.atoms)
    demand = dict(plus.atoms)
    atoms = {}
    cols = sorted(plus.atoms)
    for a in sorted(minus.atoms):
        for b in cols:
            q = min(supply[a], demand[b])
            if q == 0:
                continue
            if walks is not None:
                walks.append(a)
            steps = _path_steps(t, t.attach(a), t.attach(b))
            for y, sign in steps:
                q = min(q, sign * residual[y])
            if q <= 0:
                continue
            for y, sign in steps:
                residual[y] -= sign * q
            supply[a] -= q
            demand[b] -= q
            atoms[(a, b)] = q
    if any(supply.values()):
        raise DomainError("flow-capped greedy left supply unplaced")
    coupling = Coupling(atoms)
    value = Fraction(0)
    for (a, b), m in coupling.atoms.items():
        g = gromov_product(t, a, b)
        value -= m * g * g
    return coupling, value
