"""The time function and the level ties from the rooted preorder.

``theory.build_time_function`` and the neutral components of
``theory.flow_level_snapshot`` (both in ``tests/oracles/theory.py``) are
one pass over the rooted preorder each.  The adjacency searches they
replaced live in ``tests/oracles/levels.py``; the differential tests
here compare the two by exact equality, at the time level of every
vertex.  The first test is the worked example of checking the theory
on the caterpillar.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from wassertree import (
    BoundaryMeasure,
    FamilySpec,
    MetricTree,
    compute_flow_field,
    lift,
    serialize,
    solve_optimal_coupling,
)

from gen import random_measures, random_tree
from oracles import levels
from oracles.theory import build_time_function, check_flow_bounds, flow_level_snapshot

SAMPLES = Path(__file__).parent.parent / "samples"


def test_caterpillar_flow_bounds_and_time_function(caterpillar, caterpillar_measures):
    ff = compute_flow_field(caterpillar, *caterpillar_measures)
    coupling, _ = solve_optimal_coupling(ff)
    plan = lift(coupling, caterpillar)
    report = check_flow_bounds(plan, ff)
    assert report.all_equal and report.antagonism_free  # mass equals flow everywhere
    assert build_time_function(caterpillar, ff).vertex_time == {"v0": 0, "v1": 0}  # the edge is neutral


def _even_measures(rng, t):
    """Two supports of one size with equal masses, so whole subtrees balance to 0."""
    ends = list(t.ends)
    rng.shuffle(ends)
    k = rng.randint(1, len(ends) // 2)
    return (
        BoundaryMeasure({e: Fraction(1, k) for e in ends[:k]}),
        BoundaryMeasure({e: Fraction(1, k) for e in ends[k : 2 * k]}),
    )


def _instances():
    rng = random.Random(20261020)
    out = []
    for _ in range(600):
        t = random_tree(rng, max_internal=rng.choice((1, 4, 10, 25)), extra_ends=6)
        measures = _even_measures(rng, t) if rng.random() < 0.5 else random_measures(rng, t, rng.choice((1, 2, 4, 8)))
        out.append((t, *measures))
    for sample in sorted(SAMPLES.glob("*.json")):
        if not sample.stem.startswith("spine"):
            tree, (minus, plus), _ = serialize.load_instance(str(sample))
            out.append((tree, minus, plus))
    for name in ("spine_constant", "spine_geometric"):
        spec = FamilySpec.from_json(json.loads((SAMPLES / f"{name}.json").read_text()))
        out += [spec.truncation(level) for level in (1, 2, 7, 20)]
    return out


def test_time_function_and_ties_match_the_adjacency_walks():
    ties = zero_subtrees = 0
    for idx, (t, minus, plus) in enumerate(_instances()):
        ff = compute_flow_field(t, minus, plus)
        tf = build_time_function(t, ff)
        expected = levels.vertex_time(t, ff)
        assert tf.vertex_time == expected, f"instance {idx}"
        for time in sorted(set(expected.values())):
            got = flow_level_snapshot(t, ff, tf, time).tie_components
            assert got == levels.tie_components(t, ff, expected, time), f"instance {idx}, time {time}"
            ties += len(got)
        zero_subtrees += sum(1 for value in ff.below.values() if value == 0)
    assert ties >= 100 and zero_subtrees >= 100, (ties, zero_subtrees)


def test_ties_come_by_least_vertex_id():
    """Two tied components on level 0; the one holding the least vertex id comes first.

    Component {a, x, y} holds the least id ``a`` but ties at ``x`` and
    ``y``; component {b, c} ties at ``b`` and ``c``.
    """
    t = MetricTree(
        vertices=["a", "b", "c", "m", "x", "y"],
        edges=[("x", "a", 1), ("x", "y", 1), ("x", "m", 1), ("m", "b", 1), ("b", "c", 1)],
        ends=[("a1", "a"), ("a2", "a"), ("y1", "y"), ("y2", "y"), ("x1", "x"),
              ("m1", "m"), ("b1", "b"), ("c1", "c"), ("c2", "c")],
        base="x",
    )
    quarter = Fraction(1, 4)
    minus = BoundaryMeasure({"y1": quarter, "b1": quarter, "c1": quarter, "x1": quarter})
    plus = BoundaryMeasure({"y2": quarter, "c2": quarter, "m1": Fraction(1, 2)})
    ff = compute_flow_field(t, minus, plus)
    tf = build_time_function(t, ff)
    assert tf.vertex_time == {"a": 0, "b": 0, "c": 0, "m": 1, "x": 0, "y": 0}
    ties = flow_level_snapshot(t, ff, tf, 0).tie_components
    assert ties == (("x", "y"), ("b", "c")) == levels.tie_components(t, ff, tf.vertex_time, 0)
