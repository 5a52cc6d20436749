import random
from fractions import Fraction
from itertools import combinations

import pytest

from wassertree import (
    BoundaryMeasure,
    Coupling,
    DomainError,
    MetricTree,
    OversizeError,
    antagonist_pairs,
    compute_flow_field,
    is_cyclically_monotone,
    lift,
    solve_optimal_coupling,
)
from wassertree.theory import uncross

from gen import random_coupling, random_measures, random_tree, random_vertex_coupling
from oracles.costs import CostMatrix, brute_force_value, cost_matrix, coupling_value
from oracles.lp import min_cost_transport_value, solve_transportation


def _instance(rng, max_side=6):
    while True:
        t = random_tree(rng)
        try:
            minus, plus = random_measures(rng, t, max_side=max_side)
        except ValueError:
            continue
        return t, minus, plus


# -- cost matrix --------------------------------------------------------------


def test_cost_matrix_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    cm = cost_matrix(caterpillar, minus, plus)
    assert dict(cm.values) == {
        ("A", "B"): Fraction(0),
        ("A", "D"): Fraction(0),
        ("C", "B"): Fraction(0),
        ("C", "D"): Fraction(-4),
    }


def test_cost_matrix_tripod_all_zero(tripod):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"B": Fraction(1, 2), "C": Fraction(1, 2)})
    cm = cost_matrix(tripod, minus, plus)
    assert all(v == 0 for v in cm.values.values())


def test_cost_matrix_scaling(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    doubled = MetricTree(
        vertices=["v0", "v1"],
        edges=[("v0", "v1", 4)],
        ends=[("A", "v0"), ("B", "v0"), ("C", "v1"), ("D", "v1")],
        base="v0",
    )
    cm1 = cost_matrix(caterpillar, minus, plus)
    cm2 = cost_matrix(doubled, minus, plus)
    for pair, value in cm1.values.items():
        assert cm2.values[pair] == 4 * value


def test_cost_matrix_rejects_non_antipodal(caterpillar):
    m = BoundaryMeasure({"A": 1})
    with pytest.raises(DomainError):
        cost_matrix(caterpillar, m, m)


# -- solver -------------------------------------------------------------------


def test_solver_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    cm = cost_matrix(caterpillar, minus, plus)
    pi, value = solve_optimal_coupling(compute_flow_field(caterpillar, minus, plus))
    assert value == -2 == coupling_value(pi, cm)
    assert pi.atoms == {("A", "B"): Fraction(1, 2), ("C", "D"): Fraction(1, 2)}
    # Both polytope vertices, by hand: the other one costs 0.
    other = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    assert coupling_value(other, cm) == 0


def test_solver_point_masses(caterpillar):
    minus = BoundaryMeasure({"C": 1})
    plus = BoundaryMeasure({"D": 1})
    cm = cost_matrix(caterpillar, minus, plus)
    pi, value = solve_optimal_coupling(compute_flow_field(caterpillar, minus, plus))
    assert pi.atoms == {("C", "D"): Fraction(1)}
    assert value == -4 == coupling_value(pi, cm)


def test_solver_vertex_support(caterpillar, caterpillar_measures):
    rng = random.Random(53)
    for _ in range(40):
        t, minus, plus = _instance(rng)
        pi, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        m, n = len(minus.support), len(plus.support)
        assert len(pi.atoms) <= m + n - 1
        # Vertex supports are acyclic in the bipartite support graph.
        left = {a for a, _ in pi.atoms}
        right = {b for _, b in pi.atoms}
        assert len(pi.atoms) <= len(left) + len(right) - 1
        got_minus, got_plus = pi.marginals()
        assert got_minus == minus and got_plus == plus


# -- oracle equivalence -------------------------------------------------------


def test_oracle_matches_solver_random():
    rng = random.Random(59)
    for _ in range(60):
        t, minus, plus = _instance(rng)
        cm = cost_matrix(t, minus, plus)
        _, value = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        assert brute_force_value(cm, minus, plus) == value


def test_oracle_size_cap(caterpillar):
    minus = BoundaryMeasure({f"m{i}": Fraction(1, 8) for i in range(8)})
    plus = BoundaryMeasure({"B": 1})
    cm = CostMatrix(
        rows=tuple(sorted(minus.support)),
        cols=("B",),
        values={(a, "B"): Fraction(0) for a in minus.support},
    )
    with pytest.raises(OversizeError):
        brute_force_value(cm, minus, plus)


def _all_vertices_by_basis(costs, supplies, demands):
    """Exhaustive basis enumeration: every spanning tree of the bipartite
    support graph whose unique solution is nonnegative is a vertex."""
    m, n = len(supplies), len(demands)
    cells = [(i, j) for i in range(m) for j in range(n)]
    vertices = set()
    for basis in combinations(cells, m + n - 1):
        # Solve by peeling leaf lines; reject if not a spanning tree.
        row_cells = {i: [] for i in range(m)}
        col_cells = {j: [] for j in range(n)}
        for (i, j) in basis:
            row_cells[i].append((i, j))
            col_cells[j].append((i, j))
        masses = {}
        supply = list(supplies)
        demand = list(demands)
        remaining = set(basis)
        progress = True
        while remaining and progress:
            progress = False
            for (i, j) in sorted(remaining):
                r_live = [c for c in row_cells[i] if c in remaining]
                c_live = [c for c in col_cells[j] if c in remaining]
                if len(r_live) == 1:
                    masses[(i, j)] = supply[i]
                    demand[j] -= supply[i]
                    supply[i] = Fraction(0)
                    remaining.discard((i, j))
                    progress = True
                elif len(c_live) == 1:
                    masses[(i, j)] = demand[j]
                    supply[i] -= demand[j]
                    demand[j] = Fraction(0)
                    remaining.discard((i, j))
                    progress = True
        if remaining:  # contains a cycle
            continue
        if any(s != 0 for s in supply) or any(d != 0 for d in demand):
            continue
        if any(v < 0 for v in masses.values()):
            continue
        vertices.add(frozenset((c, q) for c, q in masses.items() if q > 0))
    return vertices


def test_exhaustive_basis_enumeration_agrees_small():
    # At desk scale, the minimum over literally all polytope vertices
    # agrees with both the simplex and the independent value oracle.
    rng = random.Random(61)
    for _ in range(12):
        t, minus, plus = _instance(rng, max_side=3)
        cm = cost_matrix(t, minus, plus)
        rows, cols = cm.rows, cm.cols
        costs = [[cm.cost(a, b) for b in cols] for a in rows]
        supplies = [minus.mass(a) for a in rows]
        demands = [plus.mass(b) for b in cols]
        vertices = _all_vertices_by_basis(costs, supplies, demands)
        best = min(
            sum((costs[i][j] * q for (i, j), q in vertex), Fraction(0))
            for vertex in vertices
        )
        _, value = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        assert value == best
        assert brute_force_value(cm, minus, plus) == best


def _northwest_over_row_col_orders(supplies, demands):
    """All outcomes of the northwest-corner rule over row and column
    permutations (used to document why this family misses vertices)."""
    from itertools import permutations as perms

    m, n = len(supplies), len(demands)
    outcomes = set()
    for sigma in perms(range(m)):
        for tau in perms(range(n)):
            supply = [supplies[i] for i in sigma]
            demand = [demands[j] for j in tau]
            i = j = 0
            atoms = {}
            while i < m and j < n:
                q = min(supply[i], demand[j])
                if q > 0:
                    atoms[(sigma[i], tau[j])] = q
                supply[i] -= q
                demand[j] -= q
                if supply[i] == 0 and (i < m - 1 or demand[j] > 0):
                    i += 1
                elif demand[j] == 0:
                    j += 1
                else:
                    break
            outcomes.add(frozenset(atoms.items()))
    return outcomes


def test_row_col_northwest_enumeration_misses_a_vertex():
    # Star-supported vertex: three sources each splitting between a hub
    # target and a private target.  No row/column ordering generates it,
    # so enumerating northwest outcomes over orderings is not an exact
    # optimum oracle; the shipped oracle must (and does) find the true
    # optimum on exactly this geometry.
    supplies = [Fraction(2, 6), Fraction(2, 6), Fraction(2, 6)]
    demands = [Fraction(3, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)]
    star = frozenset(
        {
            ((0, 0), Fraction(1, 6)),
            ((0, 1), Fraction(1, 6)),
            ((1, 0), Fraction(1, 6)),
            ((1, 2), Fraction(1, 6)),
            ((2, 0), Fraction(1, 6)),
            ((2, 3), Fraction(1, 6)),
        }
    )
    vertices = _all_vertices_by_basis(
        [[Fraction(0)] * 4 for _ in range(3)], supplies, demands
    )
    assert star in {frozenset(v) for v in vertices}
    outcomes = _northwest_over_row_col_orders(supplies, demands)
    assert star not in outcomes

    # Realize the star as the unique optimum of a tree instance: three
    # deep branches holding the source/private-target pairs, hub target
    # at the base.
    t = MetricTree(
        vertices=["r", "b1", "b2", "b3"],
        edges=[("r", "b1", 5), ("r", "b2", 5), ("r", "b3", 5)],
        ends=[
            ("s1", "b1"), ("t1", "b1"),
            ("s2", "b2"), ("t2", "b2"),
            ("s3", "b3"), ("t3", "b3"),
            ("hub", "r"),
        ],
        base="r",
    )
    minus = BoundaryMeasure({"s1": Fraction(2, 6), "s2": Fraction(2, 6), "s3": Fraction(2, 6)})
    plus = BoundaryMeasure(
        {"hub": Fraction(3, 6), "t1": Fraction(1, 6), "t2": Fraction(1, 6), "t3": Fraction(1, 6)}
    )
    cm = cost_matrix(t, minus, plus)
    pi, value = solve_optimal_coupling(compute_flow_field(t, minus, plus))
    assert value == brute_force_value(cm, minus, plus)
    expected = {
        ("s1", "hub"): Fraction(1, 6), ("s1", "t1"): Fraction(1, 6),
        ("s2", "hub"): Fraction(1, 6), ("s2", "t2"): Fraction(1, 6),
        ("s3", "hub"): Fraction(1, 6), ("s3", "t3"): Fraction(1, 6),
    }
    assert pi.atoms == expected
    assert value == 3 * (Fraction(1, 6) * -25)


def test_lex_tiebreak_is_lex_max_over_optima():
    # Among all optimal vertices, the solver returns the one whose mass
    # vector in (source, target) order is lexicographically greatest.
    rng = random.Random(67)
    checked = 0
    while checked < 10:
        t, minus, plus = _instance(rng, max_side=3)
        cm = cost_matrix(t, minus, plus)
        rows, cols = cm.rows, cm.cols
        costs = [[cm.cost(a, b) for b in cols] for a in rows]
        supplies = [minus.mass(a) for a in rows]
        demands = [plus.mass(b) for b in cols]
        vertices = _all_vertices_by_basis(costs, supplies, demands)
        pairs = [(i, j) for i in range(len(rows)) for j in range(len(cols))]

        def mass_vector(vertex):
            d = dict(vertex)
            return tuple(d.get(p, Fraction(0)) for p in pairs)

        best_value = min(
            sum((costs[i][j] * q for (i, j), q in v), Fraction(0)) for v in vertices
        )
        optima = [
            v
            for v in vertices
            if sum((costs[i][j] * q for (i, j), q in v), Fraction(0)) == best_value
        ]
        if len(optima) < 2:
            continue
        checked += 1
        expected = max(optima, key=mass_vector)
        pi, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        got = {
            (rows.index(a), cols.index(b)): q for (a, b), q in pi.atoms.items()
        }
        assert frozenset(got.items()) == expected


def test_solver_deterministic():
    rng = random.Random(71)
    t, minus, plus = _instance(rng)
    first = solve_optimal_coupling(compute_flow_field(t, minus, plus))
    for _ in range(3):
        again = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        assert again[0] == first[0] and again[1] == first[1]


def test_solver_survives_heavy_degeneracy():
    # Equal marginals and all-equal costs maximize basis ties; Bland's
    # rule must still terminate and both routes agree.
    n = 6
    supplies = [Fraction(1, n)] * n
    demands = [Fraction(1, n)] * n
    costs = [[Fraction(0)] * n for _ in range(n)]
    masses, value = solve_transportation(costs, supplies, demands, lex_tiebreak=True)
    assert value == 0
    assert min_cost_transport_value(costs, supplies, demands) == 0
    # Lex tie-break picks the identity-diagonal vertex here: mass on
    # cell (0,0) first, then (1,1), and so on.
    assert masses == {(i, i): Fraction(1, n) for i in range(n)}


# -- cyclical monotonicity ----------------------------------------------------


def test_monotone_optimal_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    pi, _ = solve_optimal_coupling(compute_flow_field(caterpillar, minus, plus))
    result = is_cyclically_monotone(pi, caterpillar)
    assert result.monotone and result.exhaustive


def test_monotone_detects_crossing(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    bad = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    result = is_cyclically_monotone(bad, caterpillar)
    assert not result.monotone
    assert set(result.witness) == {("A", "D"), ("C", "B")}


def test_monotone_single_atom(caterpillar):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"D": 1})
    pi = Coupling({("A", "D"): Fraction(1)})
    assert is_cyclically_monotone(pi, caterpillar).monotone


def test_monotone_ten_atoms_exhaustive():
    # Ten pairs, more than the eight atoms the permutation oracle in
    # tests/oracles/cycles.py covers exhaustively.
    t = MetricTree(
        vertices=["c"],
        edges=[],
        ends=[(f"a{i}", "c") for i in range(10)] + [(f"b{i}", "c") for i in range(10)],
        base="c",
    )
    minus = BoundaryMeasure({f"a{i}": Fraction(1, 10) for i in range(10)})
    plus = BoundaryMeasure({f"b{i}": Fraction(1, 10) for i in range(10)})
    pi = Coupling({(f"a{i}", f"b{i}"): Fraction(1, 10) for i in range(10)})
    result = is_cyclically_monotone(pi, t)
    assert len(pi.atoms) == 10
    assert result.monotone and result.exhaustive


# -- uncross ------------------------------------------------------------------


def test_uncross_caterpillar(caterpillar):
    bad = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    fixed = uncross(bad, caterpillar)
    assert fixed.atoms == {("A", "B"): Fraction(1, 2), ("C", "D"): Fraction(1, 2)}


def test_uncross_noop_on_monotone(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    pi, _ = solve_optimal_coupling(compute_flow_field(caterpillar, minus, plus))
    assert uncross(pi, caterpillar) == pi


def test_uncross_properties_random():
    rng = random.Random(73)
    for _ in range(60):
        t, minus, plus = _instance(rng)
        cm = cost_matrix(t, minus, plus)
        pi = random_coupling(rng, minus, plus)
        fixed = uncross(pi, t)
        fm, fp = fixed.marginals()
        assert fm == minus and fp == plus
        assert coupling_value(fixed, cm) <= coupling_value(pi, cm)
        assert not antagonist_pairs(lift(fixed, t), t)
        assert is_cyclically_monotone(fixed, t).monotone
        _, best = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        assert coupling_value(fixed, cm) == best


def test_monotone_couplings_attain_optimum_random():
    rng = random.Random(79)
    seen_monotone = 0
    for _ in range(80):
        t, minus, plus = _instance(rng, max_side=4)
        cm = cost_matrix(t, minus, plus)
        pi = random_coupling(rng, minus, plus)
        _, best = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        if is_cyclically_monotone(pi, t).monotone:
            seen_monotone += 1
            assert coupling_value(pi, cm) == best
    assert seen_monotone > 0


def test_solver_output_is_uncrossed_and_monotone():
    rng = random.Random(85)
    for _ in range(40):
        t, minus, plus = _instance(rng)
        pi, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        assert not antagonist_pairs(lift(pi, t), t)
        assert is_cyclically_monotone(pi, t).monotone


def test_monotone_iff_antagonism_free_many_instances():
    # Cross-check over at least 100 distinct instances (a couple of
    # couplings each); the heavier per-instance sweep lives in the
    # acceptance suite.
    rng = random.Random(81)
    for _ in range(110):
        t, minus, plus = _instance(rng, max_side=4)
        for _ in range(3):
            pi = random_coupling(rng, minus, plus)
            monotone = is_cyclically_monotone(pi, t).monotone
            free = not antagonist_pairs(lift(pi, t), t)
            assert monotone == free
