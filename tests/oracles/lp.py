"""Exact rational solvers for the bipartite transportation problem.

On a tree the library computes transport from a flow field (see
:mod:`wassertree.transport`) and certifies unit speed without solving a
snapshot transport problem, so no library route calls these general
solvers.  They serve as differential-test oracles, over the cost tables
of :mod:`oracles.costs`.  Two algorithmically independent routes are
provided:

* :func:`solve_transportation` is a primal transportation simplex over
  `fractions.Fraction`.  Entering and leaving variables follow Bland's
  rule, so it terminates on degenerate instances, and an optional
  lexicographic cost perturbation makes the returned optimal vertex
  unique: among all optimal couplings it is the one whose mass vector,
  read in row-major cell order, is lexicographically greatest.  The
  perturbation is symbolic (costs become tuples ordered
  lexicographically), so the arithmetic stays exact.

* :func:`min_cost_transport_value` computes the optimal value only, by
  successive shortest augmenting paths (Bellman-Ford) on the bipartite
  flow network.  It shares no code or theory with the simplex and
  serves as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from wassertree.errors import DomainError

__all__ = ["solve_transportation", "min_cost_transport_value"]


def _check_instance(costs, supplies, demands):
    m, n = len(supplies), len(demands)
    if m == 0 or n == 0:
        raise DomainError("empty transportation instance")
    if len(costs) != m or any(len(row) != n for row in costs):
        raise DomainError("cost matrix shape does not match marginals")
    if any(s <= 0 for s in supplies) or any(d <= 0 for d in demands):
        raise DomainError("marginals must be strictly positive")
    if sum(supplies, Fraction(0)) != sum(demands, Fraction(0)):
        raise DomainError("supplies and demands have different totals")


def _northwest_corner(supplies, demands):
    """Initial basic feasible solution with exactly m+n-1 basic cells."""
    m, n = len(supplies), len(demands)
    i = j = 0
    ra, rb = supplies[0], demands[0]
    cells: list[tuple[int, int, Fraction]] = []
    while True:
        q = min(ra, rb)
        cells.append((i, j, q))
        if ra < rb:
            i += 1
            rb -= ra
            ra = supplies[i]
        elif rb < ra:
            j += 1
            ra -= rb
            rb = demands[j]
        else:
            if i == m - 1 and j == n - 1:
                break
            if i < m - 1:
                i += 1
                ra = supplies[i]
                rb = Fraction(0)
            else:
                j += 1
                rb = demands[j]
                ra = Fraction(0)
    assert len(cells) == m + n - 1
    return cells


def solve_transportation(
    costs: Sequence[Sequence[Fraction]],
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    lex_tiebreak: bool = False,
):
    """Minimize sum(cost * mass) over the transportation polytope.

    Returns ``(masses, value)`` where ``masses`` maps ``(i, j)`` to the
    strictly positive entries of an optimal vertex (at most m+n-1 of
    them) and ``value`` is the exact optimal objective.
    """
    _check_instance(costs, supplies, demands)
    m, n = len(supplies), len(demands)

    if lex_tiebreak:
        # cost'_{ij} = (c_ij, ..., -1 in slot rank(i,j), ...): minimizing
        # under lexicographic order first minimizes true cost, then
        # maximizes mass on cell 0, then cell 1, and so on.  The
        # perturbation coordinates stay integral under the simplex's
        # additions, so they are kept as an int tuple.
        width = m * n
        zero = (Fraction(0), (0,) * width)

        def cell_cost(i, j):
            vec = [0] * width
            vec[i * n + j] = -1
            return (costs[i][j], tuple(vec))

        def add(a, b):
            return (a[0] + b[0], tuple(map(int.__add__, a[1], b[1])))

        def sub(a, b):
            return (a[0] - b[0], tuple(map(int.__sub__, a[1], b[1])))

    else:
        zero = Fraction(0)

        def cell_cost(i, j):
            return costs[i][j]

        def add(a, b):
            return a + b

        def sub(a, b):
            return a - b

    c = [[cell_cost(i, j) for j in range(n)] for i in range(m)]

    basis = {(i, j): q for i, j, q in _northwest_corner(supplies, demands)}

    while True:
        # Duals from the basis tree (rows 0..m-1, cols m..m+n-1).
        adj: dict[int, list[tuple[int, tuple[int, int]]]] = {k: [] for k in range(m + n)}
        for (i, j) in basis:
            adj[i].append((m + j, (i, j)))
            adj[m + j].append((i, (i, j)))
        potential = {0: zero}
        stack = [0]
        while stack:
            node = stack.pop()
            for other, (i, j) in adj[node]:
                if other not in potential:
                    # u_i + v_j = c_ij on basic cells, in either direction.
                    potential[other] = sub(c[i][j], potential[node])
                    stack.append(other)
        assert len(potential) == m + n

        entering = None
        for i in range(m):
            u_i = potential[i]
            for j in range(n):
                if (i, j) in basis:
                    continue
                if sub(c[i][j], add(u_i, potential[m + j])) < zero:
                    entering = (i, j)
                    break
            if entering:
                break
        if entering is None:
            break

        # Unique cycle: path from row(entering) to col(entering) in the
        # basis tree, closed by the entering cell.
        src, dst = entering[0], m + entering[1]
        parent_info = {src: None}
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                break
            for other, cell in adj[node]:
                if other not in parent_info:
                    parent_info[other] = (node, cell)
                    stack.append(other)
        path_cells = []
        node = dst
        while parent_info[node] is not None:
            node, cell = parent_info[node]
            path_cells.append(cell)
        path_cells.reverse()
        # Entering cell gets +theta; path cells alternate -,+,- starting
        # from the one sharing the entering row.
        minus_cells = path_cells[0::2]
        plus_cells = path_cells[1::2]

        theta = min(basis[cell] for cell in minus_cells)
        leaving = min(cell for cell in minus_cells if basis[cell] == theta)

        for cell in minus_cells:
            basis[cell] -= theta
        for cell in plus_cells:
            basis[cell] += theta
        basis[entering] = theta
        del basis[leaving]

    masses = {cell: q for cell, q in basis.items() if q > 0}
    value = sum((costs[i][j] * q for (i, j), q in masses.items()), Fraction(0))
    return masses, value


def min_cost_transport_value(
    costs: Sequence[Sequence[Fraction]],
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
) -> Fraction:
    """Exact optimal transportation value by successive shortest paths."""
    _check_instance(costs, supplies, demands)
    m, n = len(supplies), len(demands)
    source, sink = m + n, m + n + 1
    node_count = m + n + 2
    total = sum(supplies, Fraction(0))

    # arcs[k] = [to, capacity, cost, index of reverse arc]
    arcs: list[list] = []
    graph: list[list[int]] = [[] for _ in range(node_count)]

    def add_arc(u, v, cap, cost):
        graph[u].append(len(arcs))
        arcs.append([v, cap, cost, len(arcs) + 1])
        graph[v].append(len(arcs))
        arcs.append([u, Fraction(0), -cost, len(arcs) - 1])

    for i, s in enumerate(supplies):
        add_arc(source, i, s, Fraction(0))
    for j, d in enumerate(demands):
        add_arc(m + j, sink, d, Fraction(0))
    for i in range(m):
        for j in range(n):
            add_arc(i, m + j, total, costs[i][j])

    shipped = Fraction(0)
    value = Fraction(0)
    while shipped < total:
        # Bellman-Ford on the residual network (handles negative costs;
        # shortest-path augmentation keeps it free of negative cycles).
        distance = [None] * node_count
        pred = [None] * node_count
        distance[source] = Fraction(0)
        for _ in range(node_count):
            changed = False
            for u in range(node_count):
                if distance[u] is None:
                    continue
                for k in graph[u]:
                    to, cap, cost, _rev = arcs[k]
                    if cap > 0:
                        cand = distance[u] + cost
                        if distance[to] is None or cand < distance[to]:
                            distance[to] = cand
                            pred[to] = k
                            changed = True
            if not changed:
                break
        if distance[sink] is None:
            raise DomainError("transportation instance is infeasible")
        bottleneck = None
        node = sink
        while node != source:
            k = pred[node]
            cap = arcs[k][1]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            node = arcs[arcs[k][3]][0]
        node = sink
        while node != source:
            k = pred[node]
            arcs[k][1] -= bottleneck
            arcs[arcs[k][3]][1] += bottleneck
            node = arcs[arcs[k][3]][0]
        shipped += bottleneck
        value += bottleneck * distance[sink]
    return value
