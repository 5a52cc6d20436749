"""Differential tests: the tree-native routes against the LP oracles.

The flow-capped greedy, the closed-form value and the unit-speed
certificate replaced the transportation simplex on every route of the
library.  The simplex and the successive-shortest-paths solver live in
``tests/oracles/lp.py``, and the cost tables they read in
``tests/oracles/costs.py``; each test here compares a fast route with
one of them by exact equality.  The package itself ships none of them.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import (
    BoundaryMeasure,
    DomainError,
    FamilySpec,
    compute_flow_field,
    decide,
    family_analyze,
    lift,
    optimal_value,
    snapshots,
    solve_optimal_coupling,
    specific_flow_second_moment,
    verify_geodesic,
)
from wassertree import cli, flows, realizability, transport, tree

from gen import random_coupling, random_measures, random_tree
from oracles import theory
from oracles.theory import dist, position, reverse_plan, with_offsets
from oracles.costs import brute_force_value, cost_matrix, snapshot_transport_value
from oracles.lp import solve_transportation
from test_acceptance import SAMPLES, _instances

PACKAGE = Path(tree.__file__).parent

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
    supplies = [minus.atoms[a] for a in cm.rows]
    demands = [plus.atoms[b] for b in cm.cols]
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
        supplies = [minus.atoms[a] for a in cm.rows]
        demands = [plus.atoms[b] for b in cm.cols]
        _, lp_value = solve_transportation(costs, supplies, demands)
        assert reported == lp_value, f"{name} level {level}"


def test_certified_speed_checks_equal_snapshot_lp():
    times = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 2)]
    for idx, (t, minus, plus) in enumerate(_instances(seed=616161, count=25, max_side=5)):
        report = decide(t, minus, plus)
        checks = verify_geodesic(report.plan, report.flow_field, times).speed_checks
        assert len(checks) == 10
        for r, s, value, _expected, _ok in checks:
            oracle = snapshot_transport_value(
                t, snapshots(report.plan, [r], t)[0], snapshots(report.plan, [s], t)[0]
            )
            assert value == oracle, f"instance {idx}: W2^2({r},{s})"


def _non_geodesic_plans(seed, count):
    """Lifts of random couplings: some shifted by random offsets, some reversed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng, max_internal=rng.choice((3, 6)))
        try:
            minus, plus = random_measures(rng, t, max_side=4)
        except ValueError:
            continue
        plan = lift(random_coupling(rng, minus, plus), t)
        route = rng.randrange(4)
        if route & 1:
            plan = with_offsets(
                plan, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in plan.atoms]
            )
        if route & 2:
            plan, minus, plus = reverse_plan(plan), plus, minus
        out.append((t, plan, compute_flow_field(t, minus, plus)))
    return out


def test_speed_certificate_brackets_snapshot_lp():
    times = [Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(2)]
    uncertified = exact_anyway = 0
    for idx, (t, plan, ff) in enumerate(_non_geodesic_plans(seed=909090, count=250)):
        report = verify_geodesic(plan, ff, times)
        unit_speed = True
        for r, s, value, expected, ok in report.speed_checks:
            oracle = snapshot_transport_value(t, snapshots(plan, [r], t)[0], snapshots(plan, [s], t)[0])
            where = f"plan {idx}: W2^2({r},{s})"
            assert value <= oracle <= expected, where
            assert not ok or oracle == expected, where
            # The upper bound the certificate takes in closed form.
            upper = sum(
                (a.mass * dist(t, position(a, r, t), position(a, s, t)) ** 2 for a in plan.atoms),
                Fraction(0),
            )
            assert upper == expected == (s - r) ** 2, where
            unit_speed = unit_speed and oracle == expected
            if not ok:
                uncertified += 1
                exact_anyway += oracle == expected
        assert report.passed == (
            report.antagonism_free and report.tau_isometric and unit_speed
        ), f"plan {idx}"
    assert uncertified >= 50 and exact_anyway >= 50, (uncertified, exact_anyway)


def test_package_ships_no_general_solver(monkeypatch):
    assert importlib.util.find_spec("wassertree.lp") is None
    banned = (
        "solve_transportation",
        "min_cost_transport_value",
        "cost_matrix",
        "CostMatrix",
        "brute_force_value",
        "oracles",
    )
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        named = [word for word in banned if word in text]
        assert not named, f"{path.name} names {named}"

    def refuse(*args, **kwargs):
        raise AssertionError("tree distance computed on a production path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wassertree" and getattr(module, "dist", None) is theory.dist:
            monkeypatch.setattr(module, "dist", refuse)
    for t, minus, plus in _random_instances(seed=4711, count=50):
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        assert report.lp_value == -report.flow_moment
    for spec in SPINES.values():
        family_analyze(spec, 12, Fraction(1, 1000))


def test_no_cost_table_and_one_flow_field_per_decide(monkeypatch, tmp_path):
    assert not hasattr(transport, "cost_matrix") and not hasattr(transport, "CostMatrix")
    fields, passes = [], []

    def counted_field(*args):
        fields.append(args)
        return compute_flow_field(*args)

    below_sums = flows._below_sums

    def counted_pass(*args):
        passes.append(args)
        return below_sums(*args)

    checks = []
    check_measures = flows._check_measures_on_tree

    def counted_check(*args):
        checks.append(args)
        return check_measures(*args)

    monkeypatch.setattr(realizability, "compute_flow_field", counted_field)
    monkeypatch.setattr(flows, "_below_sums", counted_pass)
    monkeypatch.setattr(flows, "_check_measures_on_tree", counted_check)
    for t, minus, plus in _random_instances(seed=4712, count=20):
        fields.clear()
        passes.clear()
        checks.clear()
        report = decide(t, minus, plus)
        assert report.geodesic.passed and report.lp_value == -report.flow_moment
        # One flow field, one bottom-up pass and one check of the
        # measures against the tree for all of decide.
        assert len(fields) == 1 and len(passes) == 1 and len(checks) == 1
        checks.clear()
        assert decide(t, minus, minus).verdict == "not-antipodal" and len(checks) == 1
    out = str(tmp_path / "out.json")
    for name in ("caterpillar.json", "caterpillar_crossed.json", "tripod.json"):
        for command in ("solve", "realize"):
            assert cli.main([command, "--input", str(SAMPLES / name), "--output", out]) == 0
    crossed = str(SAMPLES / "caterpillar_crossed.json")
    assert cli.main(["check-monotone", "--input", crossed, "--output", out]) == 0


def test_decide_leaves_out_and_specific_unformed():
    for t, minus, plus in _random_instances(seed=4713, count=10):
        ff = decide(t, minus, plus).flow_field
        assert "out" not in ff.__dict__ and "specific" not in ff.__dict__


def test_closed_form_rejects_overlapping_supports(caterpillar):
    minus = BoundaryMeasure({"A": 1})
    with pytest.raises(DomainError):
        optimal_value(caterpillar, minus, minus)
