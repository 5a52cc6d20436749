"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  All numeric comparisons are exact rational equalities; the
only tolerances are the family analyzer's convergence tolerance and the
stated runtime budgets.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import (
    BoundaryMeasure,
    Coupling,
    compute_flow_field,
    family_analyze,
    FamilySpec,
    is_cyclically_monotone,
    lift,
    decide,
    snapshots,
    solve_optimal_coupling,
    specific_flow_second_moment,
    verify_geodesic,
)
from gen import random_coupling, random_measures, random_tree
from oracles import antagonism, cycles
from oracles.costs import brute_force_value, cost_matrix, coupling_value
from oracles.lp import solve_transportation
from oracles.theory import check_flow_bounds, second_moment, uncross

SAMPLES = Path(__file__).parent.parent / "samples"


def _report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} [{status}]: {description}")
    assert not failures, f"criterion {number}: {failures}"


def _instances(seed, count, max_side):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng)
        try:
            minus, plus = random_measures(rng, t, max_side=max_side)
        except ValueError:
            continue
        out.append((t, minus, plus, rng.random()))
    return [(t, m, p) for (t, m, p, _) in out]


def _anti_optimal_coupling(cm, minus, plus):
    rows, cols = cm.rows, cm.cols
    costs = [[-cm.cost(a, b) for b in cols] for a in rows]
    supplies = [minus.atoms[a] for a in rows]
    demands = [plus.atoms[b] for b in cols]
    masses, _ = solve_transportation(costs, supplies, demands, lex_tiebreak=True)
    return Coupling({(rows[i], cols[j]): q for (i, j), q in masses.items()})


def test_criterion_1_caterpillar_end_to_end(caterpillar, caterpillar_measures):
    failures = []
    started = time.monotonic()
    minus, plus = caterpillar_measures
    cm = cost_matrix(caterpillar, minus, plus)
    pi, value = solve_optimal_coupling(compute_flow_field(caterpillar, minus, plus))
    # Oracle: the transport polytope of these marginals has exactly two
    # vertices; evaluate both.
    vertex_a = Coupling({("A", "B"): Fraction(1, 2), ("C", "D"): Fraction(1, 2)})
    vertex_b = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    oracle = min(coupling_value(vertex_a, cm), coupling_value(vertex_b, cm))
    if oracle != Fraction(-2):
        failures.append(f"hand oracle value {oracle} != -2")
    if brute_force_value(cm, minus, plus) != Fraction(-2):
        failures.append("independent oracle disagrees")
    if value != Fraction(-2):
        failures.append(f"solver value {value} != -2")
    if pi.atoms != vertex_a.atoms:
        failures.append(f"coupling {pi.atoms}")
    ff = compute_flow_field(caterpillar, minus, plus)
    moment = specific_flow_second_moment(caterpillar, ff)
    if moment != 2:
        failures.append(f"specific-flow moment {moment} != 2")
    plan = lift(pi, caterpillar)
    mu0 = second_moment(snapshots(plan, [0], caterpillar)[0], caterpillar)
    if mu0 != 2 or mu0 != -value:
        failures.append(f"second moment {mu0} != 2 = -value")
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "caterpillar end-to-end (value -2, moment 2, < 1 s)", failures)


def test_criterion_2_oracle_equivalence():
    failures = []
    started = time.monotonic()
    instances = _instances(seed=20260809, count=200, max_side=6)
    for idx, (t, minus, plus) in enumerate(instances):
        cm = cost_matrix(t, minus, plus)
        _, value = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        oracle = brute_force_value(cm, minus, plus)
        if value != oracle:
            failures.append(f"instance {idx}: solver {value} != oracle {oracle}")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(2, f"solver == oracle on {len(instances)} random instances ({elapsed:.1f} s)", failures)


def test_criterion_3_flow_bound_suite():
    failures = []
    instances = _instances(seed=20260809, count=200, max_side=6)
    for idx, (t, minus, plus) in enumerate(instances):
        cm = cost_matrix(t, minus, plus)
        ff = compute_flow_field(t, minus, plus)
        optimal, _ = solve_optimal_coupling(ff)
        crossed = _anti_optimal_coupling(cm, minus, plus)
        for label, pi in (("optimal", optimal), ("crossed", crossed)):
            report = check_flow_bounds(lift(pi, t), ff)
            if not report.bounds_hold:
                failures.append(f"instance {idx} {label}: bound violated")
            if not report.equivalence_holds:
                failures.append(f"instance {idx} {label}: equality/antagonism mismatch")
            if report.all_equal and report.specific_flow_matches is not True:
                failures.append(f"instance {idx} {label}: specific flow mismatch")
    _report(3, "mass/flow bounds, equality iff antagonism-free, specific flow", failures)


def test_criterion_4_monotonicity_equivalence():
    failures = []
    instances = _instances(seed=424242, count=12, max_side=4)
    rng = random.Random(515151)
    monotone_count = 0
    for idx, (t, minus, plus) in enumerate(instances):
        cm = cost_matrix(t, minus, plus)
        _, best = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        for k in range(100):
            pi = random_coupling(rng, minus, plus)
            monotone = cycles.is_cyclically_monotone(pi, cm).monotone
            free = not antagonism.antagonist_pairs(lift(pi, t), t)
            scan = is_cyclically_monotone(pi, t).monotone
            if not monotone == free == scan:
                failures.append(
                    f"instance {idx} coupling {k}: monotone={monotone} free={free} scan={scan}"
                )
            if free:
                monotone_count += 1
                if coupling_value(pi, cm) != best:
                    failures.append(
                        f"instance {idx} coupling {k}: antagonism-free value {coupling_value(pi, cm)} != {best}"
                    )
    if monotone_count == 0:
        failures.append("no antagonism-free couplings sampled")
    _report(4, "cyclical monotonicity iff antagonism-free lift; monotone couplings optimal", failures)


def test_criterion_5_geodesic_speed():
    failures = []
    times = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 2)]
    instances = _instances(seed=616161, count=25, max_side=5)
    for idx, (t, minus, plus) in enumerate(instances):
        report = decide(t, minus, plus)
        if report.verdict != "realizable":
            failures.append(f"instance {idx}: verdict {report.verdict}")
            continue
        checks = verify_geodesic(report.plan, report.flow_field, times).speed_checks
        if len(checks) < 4:
            failures.append(f"instance {idx}: only {len(checks)} pairs sampled")
        for (r, s, value, expected, ok) in checks:
            if not ok or value != (s - r) ** 2:
                failures.append(f"instance {idx}: W2^2({r},{s}) = {value} != {(s - r) ** 2}")
    _report(5, "snapshot transport cost equals (s-r)^2 exactly on every sampled pair", failures)


def test_criterion_6_uncrossing():
    failures = []
    instances = _instances(seed=717171, count=40, max_side=5)
    rng = random.Random(818181)
    crossed_seen = 0
    for idx, (t, minus, plus) in enumerate(instances):
        cm = cost_matrix(t, minus, plus)
        ff = compute_flow_field(t, minus, plus)
        _, best = solve_optimal_coupling(ff)
        for _ in range(5):
            pi = random_coupling(rng, minus, plus)
            if not verify_geodesic(lift(pi, t), ff).antagonists:
                continue
            crossed_seen += 1
            fixed = uncross(pi, t)
            if verify_geodesic(lift(fixed, t), ff).antagonists:
                failures.append(f"instance {idx}: uncross left antagonists")
            if coupling_value(fixed, cm) > coupling_value(pi, cm):
                failures.append(f"instance {idx}: uncross increased the objective")
            if coupling_value(fixed, cm) != best:
                failures.append(f"instance {idx}: uncross value {coupling_value(fixed, cm)} != optimum {best}")
            fm, fp = fixed.marginals()
            if fm != minus or fp != plus:
                failures.append(f"instance {idx}: marginals changed")
    if crossed_seen == 0:
        failures.append("no crossed couplings sampled")
    _report(6, f"uncrossing fixes {crossed_seen} crossed couplings to the optimum", failures)


def test_criterion_7_family_regimes():
    failures = []
    started = time.monotonic()
    tolerance = Fraction(1, 1000)
    constant = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "constant", "value": "1"},
    )
    geometric = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "geometric", "ratio": "2"},
    )
    v_const = family_analyze(constant, 20, tolerance)
    v_geom = family_analyze(geometric, 20, tolerance)
    if v_const.classification != "converged-within-tolerance":
        failures.append(f"constant lengths: {v_const.classification}")
    if v_geom.classification != "diverging-trend":
        failures.append(f"geometric lengths: {v_geom.classification}")
    for verdict, label in ((v_const, "constant"), (v_geom, "geometric")):
        sums = verdict.moment_sums
        if any(sums[i] > sums[i + 1] for i in range(len(sums) - 1)):
            failures.append(f"{label}: partial sums not monotone")
    # Closed-form oracle for levels <= 6: with masses p_k and depths
    # D_m = L_1 + ... + L_m, the moment sum at level K is
    # (sum_{m=1}^{K-1} p_{m+1} D_m^2) / (p_1 + ... + p_K).
    for verdict, lengths in ((v_const, None), (v_geom, "geom")):
        for level in range(1, 7):
            p = [Fraction(1, 2 ** k) for k in range(1, level + 1)]
            L = [Fraction(1)] * level if lengths is None else [Fraction(2 ** k) for k in range(1, level + 1)]
            depths = []
            acc = Fraction(0)
            for x in L:
                acc += x
                depths.append(acc)
            closed = sum(
                (p[m] * depths[m - 1] ** 2 for m in range(1, level)), Fraction(0)
            ) / sum(p, Fraction(0))
            if verdict.moment_sums[level - 1] != closed:
                failures.append(f"level {level}: moment != closed form {closed}")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(7, f"family regimes classified, closed forms match ({elapsed:.1f} s)", failures)


def test_criterion_8_cli_determinism(tmp_path):
    failures = []
    instance = {
        "vertices": ["v0", "v1"],
        "base": "v0",
        "edges": [{"u": "v0", "v": "v1", "len": "2"}],
        "ends": [
            {"id": "A", "attach": "v0"},
            {"id": "B", "attach": "v0"},
            {"id": "C", "attach": "v1"},
            {"id": "D", "attach": "v1"},
        ],
        "measures": {"minus": {"A": "1/2", "C": "1/2"}, "plus": {"B": "1/2", "D": "1/2"}},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    commands = [
        ["validate", "--input", str(path)],
        ["solve", "--input", str(path)],
        ["flows", "--input", str(path)],
        ["d0", "--input", str(path)],
        ["realize", "--input", str(path), "--times=-1,0,1,3"],
        ["family", "--input", str(SAMPLES / "spine_constant.json"), "--max-level", "10"],
    ]
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "wassertree.cli", *cmd],
                capture_output=True,
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            failures.append(f"{cmd[0]}: outputs differ between runs")
    _report(8, "repeated CLI runs byte-identical", failures)
