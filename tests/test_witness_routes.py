"""Differential tests: the witness stages of ``decide`` and their oracles.

``decide`` builds its witness in stages that read only the paths of the
atoms: the reach-pruned greedy (``transport``), the antagonism scan
over an index of oriented path edges and the slope-integrated speed
certificate (the last two in ``dynamics``).  The routes they replaced
live in ``tests/oracles/``: the unpruned greedy (``greedy.py``), the
all-pairs loop (``antagonism.py``) and the certificate read from a time
function over the whole tree (``certificate.py``).  Every test here
compares a stage with its oracle by exact equality.
"""

import contextlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction

from wassertree import (
    BoundaryMeasure,
    Coupling,
    MetricTree,
    cli,
    compute_flow_field,
    decide,
    dynamics,
    flows,
    lift,
    realizability,
    realize,
    snapshots,
    solve_optimal_coupling,
    verify_geodesic,
)

from gen import measures_to_json, random_coupling, random_measures, random_tree, tree_to_json
from oracles import antagonism, certificate, greedy, theory
from oracles.theory import position, reverse_plan, with_offsets
from test_acceptance import _instances
from test_tree_native import _non_geodesic_plans, _random_instances

CRITERION_5_TIMES = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 2)]


def _crossed_plans(seed, count):
    """Lifts of random couplings on 10- to 30-vertex trees, with random
    offsets or reversed, and optimal ones; about half cross."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng, max_internal=rng.choice((10, 20, 30)), extra_ends=6)
        try:
            minus, plus = random_measures(rng, t, max_side=rng.choice((4, 8)))
        except ValueError:
            continue
        ff = compute_flow_field(t, minus, plus)
        pi = random_coupling(rng, minus, plus) if len(out) % 4 else solve_optimal_coupling(ff)[0]
        plan = lift(pi, t)
        if rng.random() < 0.3:
            plan = with_offsets(plan, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in plan.atoms])
        if rng.random() < 0.3:
            plan, ff = reverse_plan(plan), compute_flow_field(t, plus, minus)
        out.append((t, plan, ff))
    return out


# -- speed certificate --------------------------------------------------------


def _assert_reports_match(plan, ff, times, where):
    report = verify_geodesic(plan, ff, times)
    oracle = certificate.verify_geodesic(plan, ff, times)
    assert report.speed_checks == oracle.speed_checks, where
    assert report.passed == oracle.passed, where
    assert report == oracle, where
    return report


def test_certificate_matches_time_function_on_criterion_5():
    for idx, (t, minus, plus) in enumerate(_instances(seed=616161, count=25, max_side=5)):
        report = decide(t, minus, plus)
        again = _assert_reports_match(report.plan, report.flow_field, CRITERION_5_TIMES, f"instance {idx}")
        assert again.passed and report.geodesic.passed, f"instance {idx}"


def test_certificate_matches_time_function_on_non_geodesic_plans():
    times = [Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(2)]
    plans = _non_geodesic_plans(seed=909090, count=250) + _crossed_plans(seed=919191, count=250)
    bent = uncertified = 0
    for idx, (t, plan, ff) in enumerate(plans):
        report = _assert_reports_match(plan, ff, times, f"plan {idx}")
        bent += not report.tau_isometric
        uncertified += not report.speed_ok
    assert bent >= 100 and uncertified >= 50, (bent, uncertified)


def test_decide_reads_no_time_function(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("time function read on the certificate's path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wassertree" and getattr(module, "build_time_function", None) is theory.build_time_function:
            monkeypatch.setattr(module, "build_time_function", refuse)
    monkeypatch.setattr(theory.TimeFunction, "at_point", refuse)
    monkeypatch.setattr(theory, "position", refuse)
    for t, minus, plus in _random_instances(seed=4711, count=50):
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        assert report.lp_value == -report.flow_moment


class _Unscannable(tuple):
    def __iter__(self):
        raise AssertionError("full scan of the tree after rooting")


class _UnscannableEnds(dict):
    def __iter__(self):
        raise AssertionError("full scan of the ends after rooting")

    keys = values = items = __iter__


def test_decide_reads_no_dense_view(monkeypatch):
    """After rooting, decide reads the atoms' paths and charged vertices only.

    No route of ``decide`` reads every edge's flow (``edge_flows``) or
    iterates over the tree's vertices, edges or ends.  Each atom's path
    is walked once by the verifier: ``verify_geodesic`` calls
    ``MetricTree.path`` exactly once per atom, the greedy
    (``solve_optimal_coupling``) walks the paths it prices, and no other
    stage calls it: not ``lift``, and not the choice of the default
    sample times.
    """
    stage = []
    calls = Counter()

    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} on decide's path")

        return refused

    path = MetricTree.path

    def counted(*args, **kwargs):
        calls[stage[-1] if stage else "elsewhere"] += 1
        return path(*args, **kwargs)

    def flagged(name, stage_function):
        def run(*args, **kwargs):
            stage.append(name)
            try:
                return stage_function(*args, **kwargs)
            finally:
                stage.pop()

        return run

    monkeypatch.setattr(flows.FlowField, "edge_flows", refuse("edge_flows"))
    monkeypatch.setattr(realizability, "verify_geodesic", flagged("verify", verify_geodesic))
    monkeypatch.setattr(realizability, "solve_optimal_coupling", flagged("solve", solve_optimal_coupling))
    monkeypatch.setattr(MetricTree, "path", counted)
    for t, minus, plus in _random_instances(seed=4713, count=50):
        t._root()
        t.vertices, t.edges = _Unscannable(t.vertices), _Unscannable(t.edges)
        t.ends = _UnscannableEnds(t.ends)
        calls.clear()
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        assert report.lp_value == -report.flow_moment
        assert calls["verify"] == len(report.plan.atoms)
        assert calls["elsewhere"] == 0
        calls.clear()
        lift(report.coupling, t)
        assert not calls


def test_snapshots_walk_each_atom_path_once(monkeypatch, tmp_path):
    """``snapshots``, ``realize`` and ``cli realize`` read each atom's path once.

    On a seeded 40-vertex tree whose plan has 7 atoms, ``decide`` walks
    14 paths (the greedy's and the verifier's) and the snapshots at four
    times add one walk per atom, not one per atom and time.  The CLI
    renders the plan's vertex chains from those same walks.  The
    snapshots equal the ones built atom by atom with
    ``oracles.theory.position``, key order included.
    """
    rng = random.Random(11)
    t = random_tree(rng, max_internal=40, min_internal=40)
    minus, plus = random_measures(rng, t, max_side=6)
    times = [0, 1, 2, 3]
    path, calls = MetricTree.path, Counter()

    def counted(*args, **kwargs):
        calls["path"] += 1
        return path(*args, **kwargs)

    monkeypatch.setattr(MetricTree, "path", counted)
    plan = decide(t, minus, plus).plan
    assert len(t.vertices) == 40 and len(plan.atoms) == 7 and calls["path"] == 14

    calls.clear()
    _coupling, _plan, snaps = realize(t, minus, plus, times=times)
    assert calls["path"] == 21
    calls.clear()
    assert snapshots(plan, times, t) == snaps and calls["path"] == 7
    for snap, time in zip(snaps, times):
        atoms = {}
        for a in plan.atoms:
            point = position(a, Fraction(time), t)
            atoms[point] = atoms.get(point, Fraction(0)) + a.mass
        assert list(snap.atoms.items()) == list(atoms.items()) and snap.time == time

    instance = {**tree_to_json(t), "measures": measures_to_json(minus, plus)}
    (tmp_path / "in.json").write_text(json.dumps(instance))
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["realize", "--input", str(tmp_path / "in.json"), "--times=0,1,2,3"])
    assert code == 0 and len(json.loads(out.getvalue())["snapshots"]) == 4
    # The plan's vertex chains are read from the snapshots' walks.
    assert calls["path"] == 21


# -- antagonism index ---------------------------------------------------------


def test_antagonist_pairs_match_all_pairs_loop():
    crossed = clean = 0
    for idx, (t, plan, ff) in enumerate(_crossed_plans(seed=929292, count=300)):
        pairs = list(verify_geodesic(plan, ff).antagonists)
        assert pairs == antagonism.antagonist_pairs(plan, t), f"plan {idx}"
        crossed += bool(pairs)
        clean += not pairs
    assert crossed >= 50 and clean >= 50, (crossed, clean)


def test_antagonist_pairs_match_all_pairs_loop_with_ray_witnesses(caterpillar):
    """Plans whose sources and targets share ends, which no plan over
    antipodal measures does: the step index lists exactly the loop's edge
    pairs, and the loop adds a ray pair where two atoms meet head-on on a
    ray and share no edge."""
    edge = ("edge", ("v0", "v1"))
    hand_built = [
        # B is the first atom's target and the second's source.
        ({("A", "B"): 1, ("B", "C"): 1}, [(0, 1, ("ray", "B"))]),
        # C is the first atom's source and the second's target.
        ({("C", "A"): 1, ("D", "C"): 1}, [(0, 1, ("ray", "C"))]),
        # Both rays at once, and a shared edge that outranks them.
        (
            {("A", "C"): 1, ("C", "A"): 1, ("D", "B"): 1, ("B", "D"): 1},
            [(0, 2, edge), (0, 3, edge), (1, 2, edge), (1, 3, edge)],
        ),
        (
            {("A", "D"): 1, ("B", "A"): 1, ("D", "B"): 1, ("C", "A"): 1},
            [(0, 1, ("ray", "A")), (0, 2, edge), (0, 3, edge), (1, 3, ("ray", "B"))],
        ),
    ]
    for atoms, expected in hand_built:
        assert antagonism.antagonist_pairs(lift(Coupling(atoms), caterpillar), caterpillar) == expected
    witnesses = Counter()
    rng = random.Random(939393)
    for _ in range(200):
        t = random_tree(rng, max_internal=rng.choice((4, 10)), extra_ends=2)
        ends = sorted(t.ends)
        atoms = {}
        for _ in range(rng.randint(2, 12)):
            a, b = rng.sample(ends, 2)
            atoms[(a, b)] = Fraction(rng.randint(1, 5))
        plan = lift(Coupling(atoms), t)
        pairs = antagonism.antagonist_pairs(plan, t)
        index = dynamics._antagonists(t, [a._path(t)[0] for a in plan.atoms])
        assert index == [pair for pair in pairs if pair[2][0] == "edge"], atoms
        witnesses.update(kind for *_, (kind, _) in pairs)
    assert witnesses["ray"] >= 50 and witnesses["edge"] >= 50, witnesses


# -- reach-pruned greedy ------------------------------------------------------


def _wide_instance(rng):
    t = random_tree(rng, max_internal=400, min_internal=200, extra_ends=20)
    ends = list(t.ends)
    rng.shuffle(ends)
    k_minus, k_plus = rng.randint(30, 60), rng.randint(30, 60)

    def masses(support):
        weights = [rng.randint(1, 9) for _ in support]
        return {e: Fraction(w, sum(weights)) for e, w in zip(support, weights)}

    minus = masses(ends[:k_minus])
    plus = masses(ends[k_minus : k_minus + k_plus])
    return t, BoundaryMeasure(minus), BoundaryMeasure(plus)


def test_pruned_greedy_equals_full_greedy_on_wide_instances(monkeypatch):
    path = MetricTree.path
    walked = []

    def counted(t, u, v):
        walked.append(u)
        return path(t, u, v)

    monkeypatch.setattr(MetricTree, "path", counted)
    pruned_instances = 0
    for seed in range(30):
        t, minus, plus = _wide_instance(random.Random(1000 + seed))
        ff = compute_flow_field(t, minus, plus)
        walked.clear()
        coupling, value = solve_optimal_coupling(ff)
        # The oracle climbs its own rooting, so only these walks are counted.
        mine = Counter(walked)
        full_walks = []
        expected, expected_value = greedy.solve_optimal_coupling(ff, walks=full_walks)
        assert coupling == expected and value == expected_value, f"seed {seed}"
        # Per source attach vertex, the pruned greedy walks no more paths
        # than the full one, and some rows skip columns unwalked.
        full = Counter(t.attach(a) for a in full_walks)
        assert all(mine[x] <= full[x] for x in mine), f"seed {seed}"
        pruned_instances += any(mine[x] < full[x] for x in full)
    assert pruned_instances >= 25, pruned_instances
