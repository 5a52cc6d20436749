"""Differential tests: the rooted index and its bottom-up passes.

``MetricTree`` keeps one rooted index (parent, depth, hop level and the
preorder with its subtree intervals), and the flow field, meets and
paths are read from it in sparse bottom-up passes.
The routes they replaced live in ``tests/oracles/rooted.py``; every
test here compares the two by exact equality, field by field.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import (
    BoundaryMeasure,
    FamilySpec,
    MetricTree,
    cli,
    compute_flow_field,
    decide,
    family_analyze,
    lift,
    serialize,
    solve_optimal_coupling,
    specific_flow_second_moment,
    spine_truncation,
    validate_tree,
)
from wassertree import tree as tree_module
from wassertree.flows import flow_class

from gen import random_coupling, random_measures, random_tree
from golden.capture import run
from oracles import rooted as oracle
from oracles import theory
from oracles.theory import future_ends

SAMPLES = Path(__file__).parent.parent / "samples"
GOLDEN = Path(__file__).parent / "golden" / "expected"


def _instances(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = random_tree(rng, max_internal=rng.choice((1, 4, 10, 25)), extra_ends=6)
        out.append((t, *random_measures(rng, t, max_side=rng.choice((2, 4, 8)))))
    return out


def _read_every_flow(t, ff):
    """The oracle's five maps, read through the flow field's sparse API."""
    edge_flow = dict(ff.edge_flows())
    return {
        "edge_flow": edge_flow,
        "end_flow": {e: ff.flow_to_end(e) for e in t.ends},
        "vertex_flow": {x: ff.out.get(x, 0) for x in t.vertices},
        "specific_flow": {x: ff.specific.get(x, 0) for x in t.vertices},
        "classification": {edge: flow_class(phi) for edge, phi in edge_flow.items()},
    }


def _assert_flows_match(t, minus, plus, label):
    ff = compute_flow_field(t, minus, plus)
    expected = oracle.flow_field(t, minus, plus)
    got = _read_every_flow(t, ff)
    for name, value in expected.items():
        assert got[name] == value, f"{label}: {name}"
    assert specific_flow_second_moment(t, ff) == oracle.second_moment(t, expected["specific_flow"])


def _assert_tree_routes_match(t, label):
    sets = oracle.end_sets(t)
    parent = t._root().parent
    for v in t.vertices:
        assert theory._subtree_ends(t, v) == sets[v], f"{label}: subtree_ends({v})"
    for u, v, _ in t.edges:
        for tail, head in ((u, v), (v, u)):
            child = head if parent[head] == tail else tail
            expected = sets[head] if child == head else frozenset(t.ends) - sets[tail]
            assert future_ends(t, tail, head) == expected, f"{label}: future ({tail},{head})"
    for u in t.vertices:
        for v in t.vertices:
            _assert_walk_matches(t, u, v, f"{label}: path({u},{v})")


def _assert_walk_matches(t, u, v, label):
    """``path(u, v)``: tree edges, climbs before descents, the oracle's chain and meet."""
    expected = oracle.vertex_path(t, u, v)
    steps, meet = t.path(u, v)
    parent = t._root().parent
    signs = [sign for _, sign in steps]
    assert set(signs) <= {-1, 1} and signs == sorted(signs), label
    chain = [u]
    for y, sign in steps:
        assert parent[y] is not None, label
        assert tree_module._edge_key(y, parent[y]) in t.edge_length, label
        tail, head = (y, parent[y]) if sign < 0 else (parent[y], y)
        assert chain[-1] == tail, label
        chain.append(head)
    assert tuple(chain) == expected, label
    assert meet == oracle.meet(t, u, v), label


def test_index_invariants():
    for t, _, _ in _instances(seed=31, count=100):
        index = t._root()
        parent, depth = oracle.rooting(t)
        assert index.parent == parent
        assert all(index.depth[v] == depth[v] for v in t.vertices)
        assert sorted(index.order) == list(t.vertices) and index.order[0] == t.base
        for v in t.vertices:
            p = index.parent[v]
            if p is not None:
                assert index.level[v] == index.level[p] + 1
                assert index.pos[p] < index.pos[v] < index.stop[v] <= index.stop[p]
                assert index.parent_len[v] == depth[v] - depth[p]
            # The preorder slice of v is exactly v's subtree.
            subtree = set(index.order[index.pos[v] : index.stop[v]])
            assert subtree == {w for w in t.vertices if oracle.meet(t, v, w) == v}


def test_flows_and_masses_on_seeded_instances():
    for idx, (t, minus, plus) in enumerate(_instances(seed=20261018, count=500)):
        _assert_flows_match(t, minus, plus, f"instance {idx}")


def test_tree_routes_on_seeded_instances():
    for idx, (t, _, _) in enumerate(_instances(seed=20261019, count=500)):
        _assert_tree_routes_match(t, f"instance {idx}")


@pytest.mark.parametrize("level", [1, 2, 7, 60, 150, 300])
def test_spine_truncations(level):
    rng = random.Random(level)
    masses = [Fraction(1, k) for k in range(1, level + 1)]
    lengths = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(level)]
    t, minus, plus = spine_truncation(masses, lengths)
    _assert_flows_match(t, minus, plus, f"K={level}")
    spec = FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "1/2"},
        lengths={"kind": "geometric", "ratio": "2"},
    )
    t, minus, plus = spec.truncation(level)
    _assert_flows_match(t, minus, plus, f"geometric K={level}")


def test_atom_geodesic_matches_rooted_oracle():
    """Each atom's chain, coords and nearest point, against eager exact depths."""
    instances = _instances(seed=20261020, count=150)
    for sample in sorted(SAMPLES.glob("*.json")):
        if not sample.stem.startswith("spine"):
            tree, (minus, plus), _ = serialize.load_instance(str(sample))
            instances.append((tree, minus, plus))
    for name in ("spine_constant", "spine_geometric"):
        spec = FamilySpec.from_json(json.loads((SAMPLES / f"{name}.json").read_text()))
        instances += [spec.truncation(level) for level in (1, 7, 200)]
    rng = random.Random(20261021)
    atoms = 0
    for idx, (t, minus, plus) in enumerate(instances):
        _, depth = oracle.rooting(t)
        optimal, _ = solve_optimal_coupling(compute_flow_field(t, minus, plus))
        for pi in (optimal, random_coupling(rng, minus, plus)):
            for a in lift(pi, t).atoms:
                where = f"instance {idx}: {a.source}->{a.target}"
                vertices, coords, k = a.geodesic(t)
                assert vertices == oracle.vertex_path(t, t.attach(a.source), t.attach(a.target)), where
                meet = oracle.meet(t, t.attach(a.source), t.attach(a.target))
                assert vertices[k] == meet, where
                assert list(coords) == [
                    (depth[w] - depth[meet]) * (-1 if i < k else 1) for i, w in enumerate(vertices)
                ], where
                atoms += 1
    assert atoms >= 1000, atoms


class _OracleChecked:
    """The production depth map, each read checked against the eager oracle."""

    def __init__(self, lazy, eager):
        self.lazy, self.eager, self.reads = lazy, eager, 0

    def __getitem__(self, v):
        got = self.lazy[v]
        assert got == self.eager[v], f"depth[{v}]"
        self.reads += 1
        return got


class _SubscriptOnly:
    """A depth map that refuses every scan and every probe."""

    def __init__(self, depth):
        self.depth, self.reads = depth, 0

    def __getitem__(self, v):
        self.reads += 1
        return self.depth[v]

    def _refuse(self, *args):
        raise AssertionError("a route scanned or probed the depth map")

    __iter__ = keys = items = values = get = __contains__ = _refuse


def _spine(level):
    masses = [Fraction(1, k) for k in range(1, level + 1)]
    lengths = [Fraction(k % 5 + 1, k % 3 + 1) for k in range(1, level + 1)]
    return spine_truncation(masses, lengths)


def test_depths_read_on_demand_match_eager_oracle():
    """decide reads each depth once computed, and reports as with eager depths."""
    instances = _instances(seed=20261022, count=150)
    for sample in sorted(SAMPLES.glob("*.json")):
        if not sample.stem.startswith("spine"):
            tree, (minus, plus), _ = serialize.load_instance(str(sample))
            instances.append((tree, minus, plus))
    for name in ("spine_constant", "spine_geometric"):
        spec = FamilySpec.from_json(json.loads((SAMPLES / f"{name}.json").read_text()))
        instances += [spec.truncation(level) for level in (1, 200, 1000)]
    instances += [_spine(level) for level in (1, 200, 1000)]
    rng = random.Random(20261023)
    reads = 0
    for idx, (t, minus, plus) in enumerate(instances):
        fresh = MetricTree(t.vertices, t.edges, t.ends.items(), t.base)
        _, eager = oracle.rooting(t)
        index = fresh._root()
        checked = _OracleChecked(index.depth, eager)
        fresh._rooted = index._replace(depth=checked)
        lazy = decide(fresh, minus, plus)
        fresh._rooted = index._replace(depth=dict(eager))
        assert decide(fresh, minus, plus) == lazy, f"instance {idx}"
        reads += checked.reads
        # A fresh map read in any order climbs and memoizes consistently.
        order = list(t.vertices)
        rng.shuffle(order)
        depth = tree_module._build_index(fresh._walk).depth
        assert [depth[v] for v in order] == [eager[v] for v in order], f"instance {idx}"
    assert reads >= 10000, reads


def test_rooting_reuses_the_validation_walk():
    """One walk from the base serves validation and the rooted index."""
    for t, _, _ in _instances(seed=4715, count=40):
        parent, depth = oracle.rooting(t)
        fresh = MetricTree(t.vertices, t.edges, t.ends.items(), t.base)
        fresh.require_valid()
        fresh.adjacency = None
        index = fresh._root()
        assert index.parent == parent and index.order[0] == t.base
        assert all(index.depth[v] == depth[v] for v in t.vertices)


def test_deepest_spine_vertex_read_first():
    t, _, _ = _spine(1000)
    index = t._root()
    deepest = max(t.vertices, key=index.level.__getitem__)
    assert index.level[deepest] == 999
    _, eager = oracle.rooting(t)
    assert index.depth[deepest] == eager[deepest]
    assert all(index.depth[v] == eager[v] for v in t.vertices)
    with pytest.raises(KeyError):
        index.depth["no such vertex"]


def test_path_walks_a_deep_spine():
    t, _, _ = _spine(1000)
    index = t._root()
    deepest = max(t.vertices, key=index.level.__getitem__)
    _assert_walk_matches(t, deepest, t.base, "deepest to base")
    _assert_walk_matches(t, t.base, deepest, "base to deepest")
    steps, meet = t.path(deepest, t.base)
    assert meet == t.base and len(steps) == 999 and {sign for _, sign in steps} == {-1}


def test_no_route_scans_or_probes_the_depth_map(monkeypatch):
    """Every production route reads depths by subscript alone."""
    guards = []

    def guarded(walk):
        index = build_index(walk)
        guards.append(_SubscriptOnly(index.depth))
        return index._replace(depth=guards[-1])

    build_index = tree_module._build_index
    monkeypatch.setattr(tree_module, "_build_index", guarded)
    for t, minus, plus in _instances(seed=4714, count=40):
        assert decide(t, minus, plus).geodesic.passed
    for sample in sorted(SAMPLES.glob("*.json")):
        if sample.stem.startswith("spine"):
            spec = FamilySpec.from_json(json.loads(sample.read_text()))
            family_analyze(spec, 16, Fraction(1, 1000))
        else:
            tree, (minus, plus), _ = serialize.load_instance(str(sample))
            assert decide(tree, minus, plus).antipodal
        record = json.loads((GOLDEN / f"{sample.stem}.json").read_text())
        for case in record["cases"]:
            args = case["args"]
            assert run(args[0], sample, args[1:]) == (case["exit"], case["stdout"]), args
    assert sum(guard.reads for guard in guards) >= 1000


def test_cancelling_subtree_is_neutral():
    # v carries minus 1/2 and plus 1/2 below it: the edge r~v is neutral
    # although the support below it is not empty.
    t = MetricTree(
        vertices=["r", "v", "w"],
        edges=[("r", "v", 3), ("v", "w", Fraction(1, 2))],
        ends=[("A", "w"), ("B", "w"), ("C", "v"), ("D", "r"), ("E", "r")],
        base="r",
    )
    minus = BoundaryMeasure({"A": Fraction(1, 4), "C": Fraction(1, 4), "D": Fraction(1, 2)})
    plus = BoundaryMeasure({"B": Fraction(1, 2), "E": Fraction(1, 2)})
    ff = compute_flow_field(t, minus, plus)
    assert ff.flow("r", "v") == 0
    assert flow_class(ff.flow("r", "v")) == "neutral"
    assert ff.flow("v", "w") == Fraction(1, 4)
    _assert_flows_match(t, minus, plus, "cancelling")
    _assert_tree_routes_match(t, "cancelling")


def test_cancelling_subtrees_on_random_trees():
    # Pair every minus atom with an equal plus atom at the same vertex,
    # so every subtree is charged and every edge is neutral.
    rng = random.Random(5)
    for _ in range(60):
        t = random_tree(rng, max_internal=12, extra_ends=0)
        by_vertex = {}
        for e, a in t.ends.items():
            by_vertex.setdefault(a, []).append(e)
        pairs = [ends[:2] for ends in by_vertex.values() if len(ends) >= 2]
        if not pairs:
            continue
        weights = [rng.randint(1, 5) for _ in pairs]
        total = sum(weights)
        minus = BoundaryMeasure({a: Fraction(w, total) for (a, _), w in zip(pairs, weights)})
        plus = BoundaryMeasure({b: Fraction(w, total) for (_, b), w in zip(pairs, weights)})
        ff = compute_flow_field(t, minus, plus)
        assert {flow_class(phi) for _, phi in ff.edge_flows()} <= {"neutral"}
        _assert_flows_match(t, minus, plus, "paired")


def test_depth_and_level_disagree():
    # a sits one long edge below the base, c two short edges below it:
    # level(c) > level(a) but depth(c) < depth(a).
    t = MetricTree(
        vertices=["r", "a", "b", "c", "d"],
        edges=[("r", "a", 10), ("r", "b", 1), ("b", "c", 1), ("a", "d", Fraction(1, 3))],
        ends=[
            ("A1", "a"), ("C1", "c"), ("C2", "c"), ("D1", "d"), ("D2", "d"),
            ("B1", "b"), ("R1", "r"),
        ],
        base="r",
    )
    index = t._root()
    assert index.level["c"] > index.level["a"] and index.depth["c"] < index.depth["a"]
    assert index.level["d"] == index.level["c"] and index.depth["d"] > index.depth["c"]
    _assert_tree_routes_match(t, "depth/level")
    minus = BoundaryMeasure({"C1": Fraction(1, 3), "D1": Fraction(2, 3)})
    plus = BoundaryMeasure({"A1": Fraction(1, 2), "C2": Fraction(1, 2)})
    _assert_flows_match(t, minus, plus, "depth/level")


def test_depth_and_level_disagree_on_random_trees():
    rng = random.Random(77)
    disagreements = 0
    for _ in range(80):
        t = random_tree(rng, max_internal=15, extra_ends=2)
        index = t._root()
        for u in t.vertices:
            for v in t.vertices:
                if (index.level[u] - index.level[v]) * (index.depth[u] - index.depth[v]) < 0:
                    disagreements += 1
        _assert_tree_routes_match(t, "random")
    assert disagreements > 100


def test_subtree_ends_stays_off_the_hot_path(monkeypatch):
    def refuse(t, v):
        raise AssertionError("per-vertex end set built on a hot path")

    monkeypatch.setattr(theory, "_subtree_ends", refuse)
    for t, minus, plus in _instances(seed=4712, count=40):
        report = decide(t, minus, plus)
        assert report.geodesic.passed
        compute_flow_field(t, minus, plus)
    for name in ("spine_constant", "spine_geometric"):
        spec = FamilySpec.from_json(json.loads((SAMPLES / f"{name}.json").read_text()))
        family_analyze(spec, 16, Fraction(1, 1000))
    for sample in sorted(SAMPLES.glob("*.json")):
        if sample.stem.startswith("spine"):
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["flows", "--input", str(sample)]) == 0


def _subdivide(rng, t):
    """Insert degree-2 vertices into edges and in front of ends."""
    vertices = list(t.vertices)
    edges = []
    for u, v, length in t.edges:
        cuts = sorted(Fraction(rng.randint(1, 99), 100) * length for _ in range(rng.randint(0, 3)))
        chain = [u]
        for i, _ in enumerate(cuts):
            chain.append(f"{u}_{v}_{i}")
        chain.append(v)
        vertices += chain[1:-1]
        marks = [Fraction(0), *cuts, length]
        edges += [(a, b, hi - lo) for a, b, lo, hi in zip(chain, chain[1:], marks, marks[1:]) if hi > lo]
        if any(hi == lo for lo, hi in zip(marks, marks[1:])):
            return None
    ends = []
    for e, a in t.ends.items():
        for i in range(rng.choice((0, 0, 1, 2))):
            w = f"{e}_{i}"
            vertices.append(w)
            edges.append((a, w, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
            a = w
        ends.append((e, a))
    return MetricTree(vertices=vertices, edges=edges, ends=ends, base=t.base)


def test_canonicalize_matches_rescan_on_subdivided_trees():
    rng = random.Random(99)
    checked = 0
    while checked < 300:
        t = random_tree(rng, max_internal=rng.choice((1, 5, 12)), extra_ends=3)
        raw = _subdivide(rng, t)
        if raw is None:
            continue
        merged = oracle.canonicalize(raw)
        assert validate_tree(merged).valid
        checked += 1
        if not validate_tree(t).warnings:
            # Suppression recovers the canonical tree (edge lengths add up).
            assert merged.vertices == t.vertices and merged.ends == t.ends
            assert {(u, v): l for u, v, l in merged.edges} == dict(t.edge_length)
