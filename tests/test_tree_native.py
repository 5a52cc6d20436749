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
from wassertree import cli, dynamics, flows, lp, realizability, transport
from wassertree.dynamics import _snapshot_transport_value
from wassertree.lp import solve_transportation

from gen import random_measures, random_tree
from test_acceptance import SAMPLES, _instances

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
        pi, value = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        atoms, lp_value = _lex_simplex(cm, minus, plus)
        assert pi.atoms == atoms, f"instance {idx}: coupling differs"
        assert value == lp_value, f"instance {idx}: value {value} != {lp_value}"


def test_closed_form_equals_greedy_oracle_and_moment():
    for idx, (t, minus, plus) in enumerate(_random_instances(seed=31337, count=200)):
        cm = cost_matrix(t, minus, plus)
        value = optimal_value(t, minus, plus)
        assert value == solve_optimal_coupling(compute_flow_field(t, minus, plus))[1], f"instance {idx}"
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


def test_no_cost_table_and_one_flow_field_per_decide(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("cost table built on a production path")

    monkeypatch.setattr(transport, "cost_matrix", refuse)
    monkeypatch.setattr(transport.CostMatrix, "__init__", refuse)
    fields, passes = [], []

    def counted_field(*args):
        fields.append(args)
        return compute_flow_field(*args)

    below_sums = flows._below_sums

    def counted_pass(*args):
        passes.append(args)
        return below_sums(*args)

    monkeypatch.setattr(realizability, "compute_flow_field", counted_field)
    monkeypatch.setattr(flows, "_below_sums", counted_pass)
    for t, minus, plus in _random_instances(seed=4712, count=20):
        fields.clear()
        passes.clear()
        report = decide(t, minus, plus)
        assert report.geodesic.passed and report.lp_value == -report.flow_moment
        # One flow field, and one bottom-up pass for all of decide.
        assert len(fields) == 1 and len(passes) == 1
    out = str(tmp_path / "out.json")
    for name in ("caterpillar.json", "caterpillar_crossed.json", "tripod.json"):
        for command in ("solve", "realize"):
            assert cli.main([command, "--input", str(SAMPLES / name), "--output", out]) == 0
    crossed = str(SAMPLES / "caterpillar_crossed.json")
    assert cli.main(["check-monotone", "--input", crossed, "--output", out]) == 0


def test_closed_form_rejects_overlapping_supports(caterpillar):
    minus = BoundaryMeasure({"A": 1})
    with pytest.raises(DomainError):
        optimal_value(caterpillar, minus, minus)
