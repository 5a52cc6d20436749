"""Differential tests: the witness stages of ``decide`` and their oracles.

``decide`` builds its witness in stages that read only the paths of the
atoms: the reach-pruned greedy (``transport``), the well-formedness
walk against the rooted index, the antagonism scan over an index of
oriented path edges and the slope-integrated speed certificate (the
last three in ``dynamics``).  The routes they replaced live in
``tests/oracles/``: the unpruned greedy (``greedy.py``), the check that
rebuilt every atom's geodesic (``wellformed.py``), the all-pairs loop
(``antagonism.py``) and the certificate read from a time function over
the whole tree (``certificate.py``).  Every test here compares a stage
with its oracle by exact equality.
"""

import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction

from wassertree import (
    BoundaryMeasure,
    Coupling,
    DomainError,
    DynamicalPlan,
    GeodesicPath,
    MetricTree,
    antagonist_pairs,
    compute_flow_field,
    decide,
    dynamics,
    flows,
    lift,
    realizability,
    reverse_plan,
    solve_optimal_coupling,
    transport,
    tree,
    verify_geodesic,
    with_offsets,
)

from gen import random_coupling, random_measures, random_tree
from oracles import antagonism, certificate, greedy, wellformed
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
            plan, ff = reverse_plan(plan, t), compute_flow_field(t, plus, minus)
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
        report = decide(t, minus, plus, sample_times=CRITERION_5_TIMES)
        again = _assert_reports_match(report.plan, report.flow_field, CRITERION_5_TIMES, f"instance {idx}")
        assert again == report.geodesic and again.passed, f"instance {idx}"


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
        if name.split(".")[0] == "wassertree" and getattr(module, "build_time_function", None) is dynamics.build_time_function:
            monkeypatch.setattr(module, "build_time_function", refuse)
    monkeypatch.setattr(dynamics.TimeFunction, "at_point", refuse)
    monkeypatch.setattr(dynamics.PlanAtom, "position", refuse)
    for t, minus, plus in _random_instances(seed=4711, count=50):
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        assert report.lp_value == -report.flow_moment


# -- well-formedness walk -----------------------------------------------------


def _walk(t, atom, vertices, source=None, target=None):
    """``atom`` moved onto ``vertices``, coords arc length wherever a hop is an edge."""
    coords = [Fraction(0)]
    for u, v in zip(vertices, vertices[1:]):
        coords.append(coords[-1] + t.edge_length.get((u, v) if u <= v else (v, u), Fraction(1)))
    path = GeodesicPath(
        source or atom.source, target or atom.target, tuple(vertices), tuple(zip(vertices, vertices[1:]))
    )
    return dataclasses.replace(atom, path=path, coords=tuple(coords))


def _neighbours(t, v):
    return [w for w, _ in t.adjacency[v]]


def _mutate(rng, t, atom):
    """``(kind, atom)``: a well-formed atom or one malformed copy of it."""
    verts = list(atom.path.vertices)
    parent = t._root().parent
    kind = rng.choice(
        [
            "identity", "offset", "shift-coord", "coord-count", "other-path", "swap-ends",
            "move-start", "move-end", "backtrack-at-turn", "detour", "drop-vertex",
            "replace-vertex", "edge-mismatch", "reversed-vertices",
        ]
    )
    if len(t.vertices) == 1 and kind in ("move-start", "backtrack-at-turn", "detour"):
        kind = "identity"  # no hop to add
    if kind == "identity":
        return kind, atom
    if kind == "offset":
        return kind, dataclasses.replace(atom, time_offset=Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if kind == "shift-coord":
        coords = list(atom.coords)
        coords[rng.randrange(len(coords))] += rng.choice((-1, 1, Fraction(1, 3)))
        return kind, dataclasses.replace(atom, coords=tuple(coords))
    if kind == "coord-count":
        coords = atom.coords[:-1] if rng.random() < 0.5 else atom.coords + (atom.coords[-1] + 1,)
        return kind, dataclasses.replace(atom, coords=coords)
    if kind == "other-path":
        a, b = rng.sample(sorted(t.ends), 2)
        return kind, _walk(t, atom, list(t.vertex_path(t.attach(a), t.attach(b))))
    if kind == "swap-ends":
        path = dataclasses.replace(atom.path, source=atom.target, target=atom.source)
        return kind, dataclasses.replace(atom, path=path)
    if kind == "move-start":
        return kind, _walk(t, atom, [rng.choice(_neighbours(t, verts[0]))] + verts)
    if kind == "move-end":
        return kind, _walk(t, atom, verts[:-1] if len(verts) > 1 else verts + _neighbours(t, verts[0])[:1])
    if kind == "backtrack-at-turn":
        k = verts.index(atom.base_vertex)
        meet = verts[k]
        if parent[meet] is not None:
            # Climb one hop past the meet and come straight back.
            return kind, _walk(t, atom, verts[: k + 1] + [parent[meet], meet] + verts[k + 1 :])
        child = rng.choice(_neighbours(t, meet))
        return kind, _walk(t, atom, verts[: k + 1] + [child, meet] + verts[k + 1 :])
    if kind == "detour":
        i = rng.randrange(len(verts))
        return kind, _walk(t, atom, verts[: i + 1] + [rng.choice(_neighbours(t, verts[i])), verts[i]] + verts[i + 1 :])
    if kind == "drop-vertex" and len(verts) > 2:
        i = rng.randrange(1, len(verts) - 1)
        return kind, _walk(t, atom, verts[:i] + verts[i + 1 :])
    if kind == "replace-vertex" and len(verts) > 2:
        i = rng.randrange(1, len(verts) - 1)
        verts[i] = rng.choice(t.vertices)
        return kind, _walk(t, atom, verts)
    if kind == "edge-mismatch" and atom.path.edges:
        edges = list(atom.path.edges)
        i = rng.randrange(len(edges))
        edges[i] = edges[i][::-1] if rng.random() < 0.5 else edges[i]
        if rng.random() < 0.5:
            del edges[i]
        path = dataclasses.replace(atom.path, edges=tuple(edges))
        return kind, dataclasses.replace(atom, path=path)
    if kind == "reversed-vertices":
        return kind, _walk(t, atom, verts[::-1])
    return "identity", atom


def _refusal(check, plan, t):
    try:
        check(plan, t)
    except DomainError as exc:
        return str(exc)
    return None


def test_well_formed_walk_matches_geodesic_rebuild_on_mutations():
    rng = random.Random(949494)
    outcomes = Counter()
    for idx, (t, plan, _ff) in enumerate(_crossed_plans(seed=959595, count=150)):
        for _ in range(4):
            i = rng.randrange(len(plan.atoms))
            kind, atom = _mutate(rng, t, plan.atoms[i])
            mutated = DynamicalPlan(atoms=plan.atoms[:i] + (atom,) + plan.atoms[i + 1 :])
            got = _refusal(dynamics._require_well_formed, mutated, t)
            assert got == _refusal(wellformed.require_well_formed, mutated, t), f"plan {idx}: {kind}"
            outcomes[kind, got is None] += 1
    assert sum(outcomes.values()) >= 200
    # Every malformation is refused somewhere, and untouched atoms pass.
    for kind in ("shift-coord", "coord-count", "swap-ends", "move-start", "backtrack-at-turn",
                 "detour", "drop-vertex", "edge-mismatch", "reversed-vertices"):
        assert outcomes[kind, False] >= 5, (kind, outcomes)
    assert outcomes["identity", True] >= 20 and outcomes["offset", True] >= 20, outcomes


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
    iterates over the tree's vertices, edges or ends, and
    ``verify_geodesic`` rebuilds no path.
    """
    verifying = []

    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} on decide's path")

        return refused

    def refuse_while_verifying(what, fn):
        def guarded(*args, **kwargs):
            if verifying:
                raise AssertionError(f"{what} inside verify_geodesic")
            return fn(*args, **kwargs)

        return guarded

    def flagged(*args, **kwargs):
        verifying.append(True)
        try:
            return verify_geodesic(*args, **kwargs)
        finally:
            verifying.pop()

    monkeypatch.setattr(flows.FlowField, "edge_flows", refuse("edge_flows"))
    monkeypatch.setattr(realizability, "verify_geodesic", flagged)
    monkeypatch.setattr(MetricTree, "vertex_path", refuse_while_verifying("vertex_path", MetricTree.vertex_path))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wassertree" and getattr(module, "path_between_ends", None) is tree.path_between_ends:
            monkeypatch.setattr(module, "path_between_ends", refuse_while_verifying("path_between_ends", tree.path_between_ends))
    for t, minus, plus in _random_instances(seed=4713, count=50):
        t._root()
        t.vertices, t.edges = _Unscannable(t.vertices), _Unscannable(t.edges)
        t.ends = _UnscannableEnds(t.ends)
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        assert report.lp_value == -report.flow_moment


# -- antagonism index ---------------------------------------------------------


def test_antagonist_pairs_match_all_pairs_loop():
    crossed = clean = 0
    for idx, (_t, plan, _ff) in enumerate(_crossed_plans(seed=929292, count=300)):
        pairs = antagonist_pairs(plan)
        assert pairs == antagonism.antagonist_pairs(plan), f"plan {idx}"
        crossed += bool(pairs)
        clean += not pairs
    assert crossed >= 50 and clean >= 50, (crossed, clean)


def test_antagonist_pairs_match_all_pairs_loop_with_ray_witnesses(caterpillar):
    hand_built = [
        # B is the first atom's target and the second's source.
        {("A", "B"): 1, ("B", "C"): 1},
        # C is the first atom's source and the second's target.
        {("C", "A"): 1, ("D", "C"): 1},
        # Both rays at once, and a shared edge that outranks them.
        {("A", "C"): 1, ("C", "A"): 1, ("D", "B"): 1, ("B", "D"): 1},
        {("A", "D"): 1, ("B", "A"): 1, ("D", "B"): 1, ("C", "A"): 1},
    ]
    witnesses = Counter()
    for atoms in hand_built:
        plan = lift(Coupling(atoms), caterpillar)
        pairs = antagonist_pairs(plan)
        assert pairs == antagonism.antagonist_pairs(plan), atoms
        witnesses.update(kind for *_, (kind, _) in pairs)
    rng = random.Random(939393)
    for _ in range(200):
        t = random_tree(rng, max_internal=rng.choice((4, 10)), extra_ends=2)
        ends = sorted(t.ends)
        atoms = {}
        for _ in range(rng.randint(2, 12)):
            a, b = rng.sample(ends, 2)
            atoms[(a, b)] = Fraction(rng.randint(1, 5))
        plan = lift(Coupling(atoms), t)
        pairs = antagonist_pairs(plan)
        assert pairs == antagonism.antagonist_pairs(plan), atoms
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
    path_steps = transport._path_steps
    walked = []

    def counted(t, u, v):
        walked.append(u)
        return path_steps(t, u, v)

    monkeypatch.setattr(transport, "_path_steps", counted)
    pruned_instances = 0
    for seed in range(30):
        t, minus, plus = _wide_instance(random.Random(1000 + seed))
        ff = compute_flow_field(t, minus, plus)
        walked.clear()
        coupling, value = solve_optimal_coupling(ff)
        full_walks = []
        expected, expected_value = greedy.solve_optimal_coupling(ff, walks=full_walks)
        assert coupling == expected and value == expected_value, f"seed {seed}"
        # Per source attach vertex, the pruned greedy walks no more paths
        # than the full one, and some rows skip columns unwalked.
        mine = Counter(walked)
        full = Counter(t.attach(a) for a in full_walks)
        assert all(mine[x] <= full[x] for x in mine), f"seed {seed}"
        pruned_instances += any(mine[x] < full[x] for x in full)
    assert pruned_instances >= 25, pruned_instances
