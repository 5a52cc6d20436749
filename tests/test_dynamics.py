import random
from fractions import Fraction

import pytest

from wassertree import (
    BoundaryMeasure,
    Coupling,
    DomainError,
    DynamicalPlan,
    MetricTree,
    ParseError,
    PlanAtom,
    TreePoint,
    compute_flow_field,
    lift,
    snapshots,
    solve_optimal_coupling,
    specific_flow_second_moment,
    verify_geodesic,
)
from gen import random_coupling, random_measures, random_tree
from oracles import cycles
from oracles.costs import cost_matrix, coupling_value, snapshot_transport_value
from oracles.theory import (
    align_offsets_to_time_function,
    build_time_function,
    check_flow_bounds,
    dist,
    flow_level_snapshot,
    plan_coupling,
    plan_edge_and_vertex_masses,
    position,
    reverse_plan,
    second_moment,
    with_offsets,
)


def _instance(rng, max_side=5):
    while True:
        t = random_tree(rng)
        try:
            minus, plus = random_measures(rng, t, max_side=max_side)
        except ValueError:
            continue
        return t, minus, plus


def _optimal_plan(t, minus, plus):
    pi, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
    return lift(pi, t)


def _antagonists(plan, t):
    """The antagonist pairs ``verify_geodesic`` reports for ``plan``."""
    ff = compute_flow_field(t, *plan_coupling(plan).marginals())
    return list(verify_geodesic(plan, ff).antagonists)


# -- lift ---------------------------------------------------------------------


def test_lift_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    plan = _optimal_plan(caterpillar, minus, plus)
    assert len(plan.atoms) == 2
    by_pair = {(a.source, a.target): a.geodesic(caterpillar) for a in plan.atoms}
    assert by_pair[("A", "B")] == (("v0",), (0,), 0)
    assert by_pair[("C", "D")] == (("v1",), (0,), 0)
    assert all(a.time_offset == 0 for a in plan.atoms)


def test_lift_point_mass(caterpillar):
    pi = Coupling({("A", "D"): Fraction(1)})
    plan = lift(pi, caterpillar)
    assert plan.atoms == (PlanAtom("A", "D", Fraction(1)),)
    assert plan.atoms[0].geodesic(caterpillar) == (("v0", "v1"), (0, 2), 0)


@pytest.mark.parametrize(
    "pair, message",
    [(("A", "A"), "no geodesic from end 'A' to itself"), (("A", "Z"), "unknown end 'Z'"), (("Z", "A"), "unknown end 'Z'")],
    ids=["one-end-on-both-sides", "unknown-target", "unknown-source"],
)
def test_lift_and_geodesic_refuse_a_pair_without_a_geodesic(caterpillar, pair, message):
    with pytest.raises(DomainError, match=message):
        lift(Coupling({pair: Fraction(1)}), caterpillar)
    with pytest.raises(DomainError, match=message):
        PlanAtom(*pair, Fraction(1)).geodesic(caterpillar)


def test_lift_round_trip(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    rng = random.Random(83)
    for _ in range(20):
        pi = random_coupling(rng, minus, plus)
        assert plan_coupling(lift(pi, caterpillar)) == pi


# -- antagonists ---------------------------------------------------------------


def test_antagonists_bad_coupling(caterpillar):
    bad = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    pairs = _antagonists(lift(bad, caterpillar), caterpillar)
    assert len(pairs) == 1
    assert pairs[0][2] == ("edge", ("v0", "v1"))


def test_antagonists_optimal_empty(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    assert _antagonists(_optimal_plan(caterpillar, minus, plus), caterpillar) == []


def test_antagonists_single_atom(caterpillar):
    plan = lift(Coupling({("A", "D"): Fraction(1)}), caterpillar)
    assert _antagonists(plan, caterpillar) == []


# -- edge and vertex masses ----------------------------------------------------


def test_plan_masses_optimal(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    plan = _optimal_plan(caterpillar, minus, plus)
    edge_mass, vertex_mass, base_mass = plan_edge_and_vertex_masses(plan, caterpillar)
    assert edge_mass.get(("v0", "v1"), Fraction(0)) == 0
    assert base_mass == {"v0": Fraction(1, 2), "v1": Fraction(1, 2)}


def test_plan_masses_bad(caterpillar):
    bad = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    edge_mass, vertex_mass, _ = plan_edge_and_vertex_masses(lift(bad, caterpillar), caterpillar)
    assert edge_mass[("v0", "v1")] == Fraction(1, 2)
    assert edge_mass[("v1", "v0")] == Fraction(1, 2)
    assert vertex_mass["v0"] == 1 and vertex_mass["v1"] == 1


# -- flow bounds ----------------------------------------------------------------


def test_flow_bounds_optimal(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    report = check_flow_bounds(_optimal_plan(caterpillar, minus, plus), ff)
    assert report.bounds_hold and report.all_equal
    assert report.antagonism_free and report.equivalence_holds
    assert report.specific_flow_matches is True


def test_flow_bounds_bad(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    bad = Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)})
    report = check_flow_bounds(lift(bad, caterpillar), ff)
    assert report.bounds_hold  # the inequalities always hold
    assert not report.all_equal
    strict = {site for site, *_ in report.strict_edges}
    assert ("v0", "v1") in strict and ("v1", "v0") in strict
    assert not report.antagonism_free
    assert report.equivalence_holds


def test_flow_bounds_single_source(tripod):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"B": Fraction(1, 2), "C": Fraction(1, 2)})
    ff = compute_flow_field(tripod, minus, plus)
    plan = _optimal_plan(tripod, minus, plus)
    report = check_flow_bounds(plan, ff)
    assert report.all_equal and report.specific_flow_matches is True


def test_flow_bounds_marginal_mismatch(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    other = lift(Coupling({("A", "D"): Fraction(1)}), caterpillar)
    with pytest.raises(DomainError):
        check_flow_bounds(other, ff)


def test_flow_bounds_random():
    rng = random.Random(89)
    for _ in range(50):
        t, minus, plus = _instance(rng)
        ff = compute_flow_field(t, minus, plus)
        pi = random_coupling(rng, minus, plus)
        report = check_flow_bounds(lift(pi, t), ff)
        assert report.bounds_hold
        assert report.equivalence_holds
        if report.all_equal:
            assert report.specific_flow_matches is True


# -- time function ---------------------------------------------------------------


def test_time_function_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    tf = build_time_function(caterpillar, ff)
    assert tf.vertex_time == {"v0": 0, "v1": 0}
    assert tf.ray_class == {"A": "negative", "B": "positive", "C": "negative", "D": "positive"}
    up = TreePoint.on_ray("B", "v0", Fraction(3, 2))
    down = TreePoint.on_ray("A", "v0", Fraction(3, 2))
    assert tf.at_point(caterpillar, up) == Fraction(3, 2)
    assert tf.at_point(caterpillar, down) == Fraction(-3, 2)


def test_time_function_positive_spine(caterpillar):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"D": 1})
    ff = compute_flow_field(caterpillar, minus, plus)
    tf = build_time_function(caterpillar, ff)
    assert tf.vertex_time == {"v0": 0, "v1": 2}
    mid = TreePoint.on_edge("v0", "v1", Fraction(1, 2), Fraction(2))
    assert tf.at_point(caterpillar, mid) == Fraction(1, 2)


def test_time_function_neutral_subtree_constant():
    # A side branch no mass crosses keeps a constant time.
    t = MetricTree(
        vertices=["v0", "v1", "w"],
        edges=[("v0", "v1", 2), ("v1", "w", 5)],
        ends=[("A", "v0"), ("B", "v0"), ("C", "v1"), ("D", "v1"), ("E", "w"), ("F", "w")],
        base="v0",
    )
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"D": 1})
    ff = compute_flow_field(t, minus, plus)
    tf = build_time_function(t, ff)
    assert tf.vertex_time["w"] == tf.vertex_time["v1"] == 2


# -- snapshots --------------------------------------------------------------------


def test_snapshot_times(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    plan = _optimal_plan(caterpillar, minus, plus)
    s0 = snapshots(plan, [0], caterpillar)[0]
    assert s0.atoms == {
        TreePoint.at_vertex("v0"): Fraction(1, 2),
        TreePoint.at_vertex("v1"): Fraction(1, 2),
    }
    s1 = snapshots(plan, [1], caterpillar)[0]
    assert s1.atoms == {
        TreePoint.on_ray("B", "v0", Fraction(1)): Fraction(1, 2),
        TreePoint.on_ray("D", "v1", Fraction(1)): Fraction(1, 2),
    }


def test_snapshot_single_atom_at_deepest_point(caterpillar):
    plan = lift(Coupling({("C", "D"): Fraction(1)}), caterpillar)
    s0 = snapshots(plan, [0], caterpillar)[0]
    assert s0.atoms == {TreePoint.at_vertex("v1"): Fraction(1)}


def test_snapshot_mass_conservation_random():
    rng = random.Random(97)
    for _ in range(25):
        t, minus, plus = _instance(rng)
        pi = random_coupling(rng, minus, plus)
        plan = lift(pi, t)
        for time in (Fraction(-7, 2), Fraction(0), Fraction(1, 3), Fraction(5)):
            assert sum(snapshots(plan, [time], t)[0].atoms.values()) == 1


def test_second_moment_examples(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    plan = _optimal_plan(caterpillar, minus, plus)
    assert second_moment(snapshots(plan, [0], caterpillar)[0], caterpillar) == 2
    assert second_moment(snapshots(plan, [1], caterpillar)[0], caterpillar) == 5
    delta = lift(Coupling({("A", "B"): Fraction(1)}), caterpillar)
    assert second_moment(snapshots(delta, [0], caterpillar)[0], caterpillar) == 0


def test_second_moment_identity_random():
    # Zero-offset snapshot at time 0 sits on the nearest points, so its
    # second moment is the mass-weighted squared Gromov product.
    rng = random.Random(101)
    for _ in range(25):
        t, minus, plus = _instance(rng)
        pi = random_coupling(rng, minus, plus)
        plan = lift(pi, t)
        cm = cost_matrix(t, minus, plus)
        expected = -coupling_value(pi, cm)
        assert second_moment(snapshots(plan, [0], t)[0], t) == expected


def test_moment_bound_random():
    # Specific-flow moment <= second moment of any time-0 snapshot,
    # with equality for the canonical antagonism-free lift.
    rng = random.Random(103)
    for _ in range(25):
        t, minus, plus = _instance(rng)
        ff = compute_flow_field(t, minus, plus)
        moment = specific_flow_second_moment(t, ff)
        pi, _ = solve_optimal_coupling(ff)
        plan = lift(pi, t)
        base = second_moment(snapshots(plan, [0], t)[0], t)
        assert moment <= base
        offsets = [Fraction(rng.randint(-3, 3)) for _ in plan.atoms]
        shifted = with_offsets(plan, offsets)
        assert moment <= second_moment(snapshots(shifted, [0], t)[0], t)


# -- level snapshots ---------------------------------------------------------------


def test_level_snapshot_matches_aligned_plan(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    tf = build_time_function(caterpillar, ff)
    plan = _optimal_plan(caterpillar, minus, plus)
    aligned = align_offsets_to_time_function(plan, tf, caterpillar)
    for time in (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)):
        level = flow_level_snapshot(caterpillar, ff, tf, time)
        assert level.snapshot.atoms == snapshots(aligned, [time], caterpillar)[0].atoms
        assert sum(level.snapshot.atoms.values()) == 1
    # The neutral spine has two flow-carrying boundary vertices on the
    # same level, which is flagged for review (masses stay per vertex).
    at_zero = flow_level_snapshot(caterpillar, ff, tf, 0)
    assert at_zero.tie_components == (("v0", "v1"),)
    off_zero = flow_level_snapshot(caterpillar, ff, tf, 1)
    assert off_zero.tie_components == ()


def test_level_snapshot_matches_aligned_plan_random():
    rng = random.Random(107)
    for _ in range(25):
        t, minus, plus = _instance(rng)
        pi, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        plan = lift(pi, t)
        if _antagonists(plan, t):
            continue
        ff = compute_flow_field(t, minus, plus)
        tf = build_time_function(t, ff)
        aligned = align_offsets_to_time_function(plan, tf, t)
        for time in (Fraction(-5), Fraction(-1, 2), Fraction(0), Fraction(2, 3), Fraction(4)):
            level = flow_level_snapshot(t, ff, tf, time)
            assert level.snapshot.atoms == snapshots(aligned, [time], t)[0].atoms
            assert sum(level.snapshot.atoms.values()) == 1


def test_level_snapshot_differs_from_zero_offsets_off_base_levels():
    # When an optimal atom's nearest point sits on a nonzero time level,
    # the zero-offset snapshot is a different measure from the level
    # snapshot; alignment is what reconciles them.
    t = MetricTree(
        vertices=["x0", "g"],
        edges=[("x0", "g", 2)],
        ends=[("R", "x0"), ("P", "g"), ("Q", "g"), ("W", "g")],
        base="x0",
    )
    minus = BoundaryMeasure({"P": Fraction(1, 4), "R": Fraction(3, 4)})
    plus = BoundaryMeasure({"Q": Fraction(1, 4), "W": Fraction(3, 4)})
    ff = compute_flow_field(t, minus, plus)
    tf = build_time_function(t, ff)
    assert tf.vertex_time["g"] == 2
    pi, _ = solve_optimal_coupling(ff)
    plan = lift(pi, t)
    assert not _antagonists(plan, t)
    level0 = flow_level_snapshot(t, ff, tf, 0).snapshot
    zero0 = snapshots(plan, [0], t)[0]
    assert level0.atoms != zero0.atoms
    aligned = align_offsets_to_time_function(plan, tf, t)
    assert snapshots(aligned, [0], t)[0].atoms == level0.atoms


# -- reversal ------------------------------------------------------------------


def test_reverse_plan_mirrors_snapshots_random():
    rng = random.Random(109)
    for _ in range(20):
        t, minus, plus = _instance(rng)
        pi, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        plan = with_offsets(lift(pi, t), [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in pi.atoms])
        reversed_plan = reverse_plan(plan)
        nm, np_ = plan_coupling(reversed_plan).marginals()
        assert nm == plus and np_ == minus
        for time in (Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(2)):
            assert snapshots(reversed_plan, [time], t)[0].atoms == snapshots(plan, [-time], t)[0].atoms


# -- geodesic verification -------------------------------------------------------


def test_verify_geodesic_optimal(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    plan = _optimal_plan(caterpillar, minus, plus)
    report = verify_geodesic(plan, compute_flow_field(caterpillar, minus, plus), [-1, 0, 1, 3])
    assert report.passed
    for r, s, value, expected, ok in report.speed_checks:
        assert ok and value == (s - r) ** 2


def test_verify_geodesic_bad_plan(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    bad = lift(
        Coupling({("A", "D"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)}), caterpillar
    )
    report = verify_geodesic(bad, compute_flow_field(caterpillar, minus, plus), [-1, 1])
    assert not report.antagonism_free
    assert not report.tau_isometric
    assert not report.passed
    # Crossing atoms can swap targets: transport is strictly cheaper
    # than unit speed between symmetric times.  The report carries the
    # certificate's lower bound; the exact W2^2 comes from the oracle.
    (r, s, value, expected, ok) = report.speed_checks[0]
    assert (r, s) == (Fraction(-1), Fraction(1))
    assert value <= 2 and expected == 4 and not ok
    exact = snapshot_transport_value(
        caterpillar, snapshots(bad, [r], caterpillar)[0], snapshots(bad, [s], caterpillar)[0]
    )
    assert exact == 2


def _single_atom(t, source="A", target="D"):
    ff = compute_flow_field(t, BoundaryMeasure({source: 1}), BoundaryMeasure({target: 1}))
    return lift(Coupling({(source, target): Fraction(1)}), t), ff


def test_verify_geodesic_single_atom(caterpillar):
    plan, ff = _single_atom(caterpillar)
    report = verify_geodesic(plan, ff, [0, 2])
    assert report.passed


def test_verify_geodesic_needs_two_times(caterpillar, caterpillar_measures):
    plan, ff = _single_atom(caterpillar)
    other = compute_flow_field(caterpillar, *caterpillar_measures)
    for flow_field in (ff, other):  # the times are checked before the marginals
        with pytest.raises(DomainError, match="two distinct sample times"):
            verify_geodesic(plan, flow_field, [1, Fraction(2, 2)])


def test_verify_geodesic_rejects_flow_field_of_other_measures(caterpillar, caterpillar_measures):
    # The guard check_flow_bounds has: the flows checked must be those
    # of the plan's own marginals, mass for mass and end for end.
    plan, ff = _single_atom(caterpillar)
    other = compute_flow_field(caterpillar, *caterpillar_measures)
    half = DynamicalPlan((PlanAtom("A", "D", Fraction(1, 2)),))
    zero_sum_end = DynamicalPlan((*plan.atoms, PlanAtom("A", "C", Fraction(0))))
    for candidate, flow_field in ((plan, other), (half, ff), (zero_sum_end, ff)):
        with pytest.raises(DomainError, match="plan marginals do not match the flow field's measures"):
            verify_geodesic(candidate, flow_field, [0, 1])
        with pytest.raises(DomainError, match="plan marginals do not match"):
            verify_geodesic(candidate, flow_field)
    # 1.0 == Fraction(1), yet a float mass must not reach the exact sums.
    with pytest.raises(ParseError, match="floats are not accepted"):
        verify_geodesic(DynamicalPlan((PlanAtom("A", "D", 1.0),)), ff)


def test_verify_geodesic_random_optimal():
    rng = random.Random(113)
    for _ in range(15):
        t, minus, plus = _instance(rng)
        plan = _optimal_plan(t, minus, plus)
        ff = compute_flow_field(t, minus, plus)
        report = verify_geodesic(plan, ff, [Fraction(-3, 2), 0, Fraction(1, 2), 2])
        assert report.passed


# -- snapshot couplings vs antagonism ---------------------------------------------


def _induced_snapshot_coupling(plan, t, r, s):
    atoms = {}
    for a in plan.atoms:
        key = (position(a, r, t), position(a, s, t))
        atoms[key] = atoms.get(key, Fraction(0)) + a.mass
    points_r = {p for (p, _q) in atoms}
    points_s = {q for (_p, q) in atoms}
    cost = {}
    for p in points_r:
        for q in points_s:
            d = dist(t, p, q)
            cost[(p, q)] = d * d
    return atoms, cost


def _witness_window(plan, t, pairs):
    """Times (r, s) wide enough that some antagonist pair must violate
    squared-distance monotonicity between the two snapshots."""
    i, j, (kind, payload) = pairs[0]
    assert kind == "edge"
    u, v = payload
    edge_len = t.edge_length[(u, v)]
    times = []
    for idx in (i, j):
        atom = plan.atoms[idx]
        vertices, coords, _ = atom.geodesic(t)
        coord = dict(zip(vertices, coords))
        times.append(coord[u] - atom.time_offset)
        times.append(coord[v] - atom.time_offset)
    r0, s0 = min(times), max(times)
    margin = (s0 - r0) - edge_len
    bound = (2 * margin * margin - (margin + edge_len) ** 2) / (4 * edge_len)
    h = max(Fraction(1), bound + 1)
    return r0 - h, s0 + h


def test_antagonism_iff_snapshot_coupling_not_monotone():
    rng = random.Random(127)
    crossed_seen = 0
    clean_seen = 0
    for _ in range(60):
        t, minus, plus = _instance(rng, max_side=4)
        pi = random_coupling(rng, minus, plus)
        plan = lift(pi, t)
        pairs = _antagonists(plan, t)
        if pairs:
            crossed_seen += 1
            r, s = _witness_window(plan, t, pairs)
            atoms, cost = _induced_snapshot_coupling(plan, t, r, s)
            assert not cycles.is_cyclically_monotone(atoms, cost).monotone
        else:
            clean_seen += 1
            for (r, s) in ((Fraction(-4), Fraction(4)), (Fraction(-1), Fraction(2))):
                atoms, cost = _induced_snapshot_coupling(plan, t, r, s)
                assert cycles.is_cyclically_monotone(atoms, cost).monotone
    assert crossed_seen > 0 and clean_seen > 0
