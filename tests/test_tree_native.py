"""Differential tests: the tree-native routes against the LP oracles.

The flow-capped greedy, the closed-form value and the unit-speed
certificate replaced the transportation simplex on every production
path.  The simplex and the successive-shortest-paths solver stay in
``wassertree.lp`` as oracles; each test here compares a fast route with
one of them by exact equality.
"""

import random
from fractions import Fraction

import pytest

from wassertree import (
    BoundaryMeasure,
    CostMatrix,
    DomainError,
    FamilySpec,
    brute_force_value,
    compute_flow_field,
    cost_matrix,
    decide,
    family_analyze,
    optimal_value,
    snapshot,
    solve_optimal_coupling,
    specific_flow_second_moment,
)
from wassertree import dynamics, lp, transport
from wassertree.dynamics import _snapshot_transport_value
from wassertree.lp import solve_transportation

from gen import random_measures, random_tree
from test_acceptance import _instances

SPINES = {
    "constant": FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "constant", "value": "1"},
    ),
    "geometric": FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "geometric", "ratio": "2"},
    ),
}


def _random_instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng, max_internal=rng.choice((4, 10, 20)), extra_ends=8)
        out.append((t, *random_measures(rng, t, max_side=rng.choice((4, 6, 8)))))
    return out


def _lex_simplex(cm, minus, plus):
    costs = [[cm.cost(a, b) for b in cm.cols] for a in cm.rows]
    supplies = [minus.mass(a) for a in cm.rows]
    demands = [plus.mass(b) for b in cm.cols]
    masses, value = solve_transportation(costs, supplies, demands, lex_tiebreak=True)
    atoms = {(cm.rows[i], cm.cols[j]): q for (i, j), q in masses.items()}
    return atoms, value


def test_greedy_equals_lex_simplex():
    instances = _random_instances(seed=20261017, count=1000)
    for idx, (t, minus, plus) in enumerate(instances):
        cm = cost_matrix(t, minus, plus)
        pi, value = solve_optimal_coupling(cm, minus, plus)
        atoms, lp_value = _lex_simplex(cm, minus, plus)
        assert pi.atoms == atoms, f"instance {idx}: coupling differs"
        assert value == lp_value, f"instance {idx}: value {value} != {lp_value}"


def test_closed_form_equals_greedy_oracle_and_moment():
    for idx, (t, minus, plus) in enumerate(_random_instances(seed=31337, count=200)):
        cm = cost_matrix(t, minus, plus)
        value = optimal_value(t, minus, plus)
        assert value == solve_optimal_coupling(cm, minus, plus)[1], f"instance {idx}"
        moment = specific_flow_second_moment(t, compute_flow_field(t, minus, plus))
        assert value == -moment, f"instance {idx}"
        if len(minus.support) <= 7 and len(plus.support) <= 7:
            assert value == brute_force_value(cm, minus, plus), f"instance {idx}"


@pytest.mark.parametrize("name", sorted(SPINES))
def test_closed_form_equals_simplex_on_spines(name):
    spec = SPINES[name]
    verdict = family_analyze(spec, 22, Fraction(1, 1000))
    for level, reported in zip(verdict.levels, verdict.lp_values):
        tree, minus, plus = spec.truncation(level)
        cm = cost_matrix(tree, minus, plus)
        costs = [[cm.cost(a, b) for b in cm.cols] for a in cm.rows]
        supplies = [minus.mass(a) for a in cm.rows]
        demands = [plus.mass(b) for b in cm.cols]
        _, lp_value = solve_transportation(costs, supplies, demands)
        assert reported == lp_value, f"{name} level {level}"


def test_certified_speed_checks_equal_snapshot_lp():
    times = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 2)]
    for idx, (t, minus, plus) in enumerate(_instances(seed=616161, count=25, max_side=5)):
        report = decide(t, minus, plus, sample_times=times)
        assert len(report.geodesic.speed_checks) == 10
        for r, s, value, _expected, _ok in report.geodesic.speed_checks:
            oracle = _snapshot_transport_value(
                t, snapshot(report.plan, r, t), snapshot(report.plan, s, t)
            )
            assert value == oracle, f"instance {idx}: W2^2({r},{s})"


def test_decide_and_family_never_call_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LP called on a production path")

    for module, name in (
        (lp, "solve_transportation"),
        (lp, "min_cost_transport_value"),
        (dynamics, "solve_transportation"),
        (transport, "min_cost_transport_value"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for t, minus, plus in _random_instances(seed=4711, count=50):
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        assert report.lp_value == -report.flow_moment
    for spec in SPINES.values():
        family_analyze(spec, 12, Fraction(1, 1000))


def test_greedy_needs_the_tree(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    cm = cost_matrix(caterpillar, minus, plus)
    bare = CostMatrix(rows=cm.rows, cols=cm.cols, values=cm.values)
    assert bare == cm
    with pytest.raises(DomainError):
        solve_optimal_coupling(bare, minus, plus)


def test_closed_form_rejects_overlapping_supports(caterpillar):
    minus = BoundaryMeasure({"A": 1})
    with pytest.raises(DomainError):
        optimal_value(caterpillar, minus, minus)
