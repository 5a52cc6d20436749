import random
from fractions import Fraction

import pytest

from wassertree import (
    BoundaryMeasure,
    DomainError,
    FamilySpec,
    OversizeError,
    ParseError,
    StructureError,
    family_analyze,
    decide,
    realize,
    snapshot,
    snapshots,
    spine_truncation,
    validate_tree,
    verify_geodesic,
)
from wassertree.theory import reverse_plan, second_moment

from wassertree.realizability import MAX_LEVEL

from gen import random_measures, random_tree


def _instance(rng, max_side=5):
    while True:
        t = random_tree(rng)
        try:
            minus, plus = random_measures(rng, t, max_side=max_side)
        except ValueError:
            continue
        return t, minus, plus


# -- decide ---------------------------------------------------------------------


def test_decide_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    report = decide(caterpillar, minus, plus)
    assert report.verdict == "realizable"
    assert report.lp_value == -2
    assert report.flow_moment == 2
    assert second_moment(snapshot(report.plan, 0, caterpillar), caterpillar) == 2
    assert report.geodesic.passed


def test_decide_not_antipodal(caterpillar):
    delta = BoundaryMeasure({"A": 1})
    report = decide(caterpillar, delta, delta)
    assert report.verdict == "not-antipodal"
    assert not report.antipodal
    assert report.lp_value is None and report.coupling is None


def test_decide_tripod(tripod):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"B": Fraction(1, 2), "C": Fraction(1, 2)})
    report = decide(tripod, minus, plus)
    assert report.verdict == "realizable"
    assert report.lp_value == 0
    assert report.flow_moment == 0


def test_decide_random_moment_identity():
    # Every finite antipodal instance is realizable with
    # -lp_value equal to the second moment of the time-0 snapshot.
    rng = random.Random(131)
    for _ in range(25):
        t, minus, plus = _instance(rng)
        report = decide(t, minus, plus)
        assert report.verdict == "realizable"
        assert report.geodesic.passed
        mu0 = snapshot(report.plan, 0, t)
        assert -report.lp_value == second_moment(mu0, t)
        assert report.flow_moment <= second_moment(mu0, t)


def test_swap_yields_time_reversed_geodesic():
    rng = random.Random(137)
    for _ in range(15):
        t, minus, plus = _instance(rng)
        fwd = decide(t, minus, plus)
        bwd = decide(t, plus, minus)
        assert bwd.lp_value == fwd.lp_value
        reversed_plan = reverse_plan(fwd.plan)
        for time in (Fraction(-2), Fraction(0), Fraction(3, 2)):
            assert (
                snapshot(reversed_plan, time, t).atoms
                == snapshot(fwd.plan, -time, t).atoms
            )


# -- realize ----------------------------------------------------------------------


def test_realize_caterpillar(caterpillar, caterpillar_measures):
    from wassertree.theory import plan_coupling

    minus, plus = caterpillar_measures
    coupling, plan, snaps = realize(caterpillar, minus, plus, times=[0, 1])
    assert coupling.atoms == {("A", "B"): Fraction(1, 2), ("C", "D"): Fraction(1, 2)}
    assert [s.time for s in snaps] == [0, 1]
    left, right = coupling.marginals()
    assert left == minus and right == plus
    plan_left, plan_right = plan_coupling(plan).marginals()
    assert plan_left == minus and plan_right == plus
    assert all(a.time_offset == 0 for a in plan.atoms)


def test_realize_empty_times(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    _coupling, plan, snaps = realize(caterpillar, minus, plus, times=[])
    assert snaps == []
    assert plan.atoms


def test_float_times_are_refused(caterpillar, caterpillar_measures):
    # 0.1 is not 1/10: a float would reach the exact times as
    # 3602879701896397/36028797018963968.
    minus, plus = caterpillar_measures
    report = decide(caterpillar, minus, plus)
    plan, ff = report.plan, report.flow_field
    float_hint = r"not a rational: 0\.1 \(floats are not accepted\)"
    with pytest.raises(ParseError, match=float_hint):
        verify_geodesic(plan, ff, [0.1, Fraction(7, 10)])
    with pytest.raises(ParseError, match=float_hint):
        realize(caterpillar, minus, plus, times=[0.1])
    with pytest.raises(ParseError, match=float_hint):
        snapshot(plan, 0.1, caterpillar)
    with pytest.raises(ParseError, match=float_hint):
        snapshots(plan, [1, 0.1], caterpillar)

    exact = [Fraction(1, 10), Fraction(7, 10), Fraction(2)]
    geodesic = verify_geodesic(plan, ff, exact)
    assert [r for r, *_ in geodesic.speed_checks[:2]] == [Fraction(1, 10)] * 2
    assert verify_geodesic(plan, ff, ["1/10", " 7/10", 2]) == geodesic
    _, _, snaps = realize(caterpillar, minus, plus, times=["1/10", 2])
    assert snaps == [snapshot(plan, Fraction(1, 10), caterpillar), snapshot(plan, 2, caterpillar)]


def test_realize_rejects_not_antipodal(caterpillar):
    delta = BoundaryMeasure({"A": 1})
    with pytest.raises(DomainError):
        realize(caterpillar, delta, delta)


# -- truncated families -------------------------------------------------------------


def test_decide_accepts_flagged_degree_two_base():
    tree, minus, plus = spine_truncation(
        [Fraction(1, 2), Fraction(1, 4)], [Fraction(1), Fraction(1)]
    )
    report = validate_tree(tree)
    assert report.valid
    assert any("degree 2" in w for w in report.warnings)
    verdict = decide(tree, minus, plus)
    assert verdict.verdict == "realizable"
    assert verdict.geodesic.passed
    assert -verdict.lp_value == verdict.flow_moment == Fraction(1, 3)


def test_spine_truncation_is_valid():
    for level in (1, 2, 3, 6):
        masses = [Fraction(1, 2 ** k) for k in range(1, level + 1)]
        lengths = [Fraction(1)] * level
        tree, minus, plus = spine_truncation(masses, lengths)
        report = validate_tree(tree)
        assert report.valid
        assert minus.support.isdisjoint(plus.support)


def _closed_form_moments(masses, lengths):
    """Independent closed form for the spine family: the specific flow
    at spine vertex m is the renormalized mass entering above it, so
    the moment sum is (1/S_K) * sum_{m=1}^{K-1} p_{m+1} * depth_m^2."""
    K = len(masses)
    total = sum(masses, Fraction(0))
    depths = []
    acc = Fraction(0)
    for L in lengths:
        acc += L
        depths.append(acc)
    return sum(
        (masses[m] * depths[m - 1] ** 2 for m in range(1, K)), Fraction(0)
    ) / total


def test_family_moments_match_closed_form():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "constant", "value": "1"},
    )
    verdict = family_analyze(spec, 6, Fraction(1, 1000))
    for idx, level in enumerate(verdict.levels):
        masses, lengths = spec.level_data(level)
        assert verdict.moment_sums[idx] == _closed_form_moments(masses, lengths)
        # Assortative matching is optimal on the spine, which makes the
        # transport value the negative of the moment sum.
        assert verdict.lp_values[idx] == -verdict.moment_sums[idx]


def test_family_moments_match_closed_form_geometric():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "geometric", "ratio": "2"},
    )
    verdict = family_analyze(spec, 6, Fraction(1, 1000))
    for idx, level in enumerate(verdict.levels):
        masses, lengths = spec.level_data(level)
        assert verdict.moment_sums[idx] == _closed_form_moments(masses, lengths)


def test_family_constant_lengths_converges():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "constant", "value": "1"},
    )
    verdict = family_analyze(spec, 20, Fraction(1, 1000))
    assert verdict.classification == "converged-within-tolerance"
    sums = verdict.moment_sums
    assert all(sums[i] <= sums[i + 1] for i in range(len(sums) - 1))


def test_family_geometric_lengths_diverges():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "geometric", "ratio": "2"},
    )
    verdict = family_analyze(spec, 20, Fraction(1, 1000))
    assert verdict.classification == "diverging-trend"
    sums = verdict.moment_sums
    assert all(sums[i] <= sums[i + 1] for i in range(len(sums) - 1))


def test_family_mass_dies_out_converges_immediately():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "explicit", "values": ["1/2"] + ["0"] * 9},
        lengths={"kind": "constant", "value": "1"},
    )
    verdict = family_analyze(spec, 10, Fraction(1, 1000))
    assert verdict.classification == "converged-within-tolerance"
    assert verdict.converged_at == 2
    assert all(s == 0 for s in verdict.moment_sums)


def test_family_explicit_too_short_errors():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "explicit", "values": ["1/2", "1/4"]},
        lengths={"kind": "constant", "value": "1"},
    )
    with pytest.raises(StructureError):
        family_analyze(spec, 5, Fraction(1, 1000))


def test_family_requires_three_levels():
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "constant", "value": "1"},
    )
    with pytest.raises(DomainError):
        family_analyze(spec, 2, Fraction(1, 1000))


def test_family_level_cap_is_checked_before_any_rule_is_expanded():
    # The two-entry list would fail at level 3, so the cap is checked first.
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "explicit", "values": ["1/2", "1/4"]},
        lengths={"kind": "constant", "value": "1"},
    )
    with pytest.raises(OversizeError, match=f"level cap of {MAX_LEVEL}"):
        family_analyze(spec, MAX_LEVEL + 1, Fraction(1, 1000))


def test_family_spec_from_json_custom():
    spec = FamilySpec.from_json(
        {"kind": "custom", "masses": ["1/2", "1/4", "1/8"], "lengths": ["1", "1", "1"]}
    )
    masses, lengths = spec.level_data(3)
    assert masses == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert lengths == [Fraction(1)] * 3
