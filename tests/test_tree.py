import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from wassertree import (
    DomainError,
    INFINITY,
    MetricTree,
    StructureError,
    TreePoint,
    canonicalize,
    gromov_product,
    validate_tree,
)
from wassertree.theory import dist, future_ends, vertex_distance

from gen import random_tree
from oracles import rooted


def test_tripod_is_valid(tripod):
    report = validate_tree(tripod)
    assert report.valid
    assert report.violations == ()


def test_degree_two_vertex_is_flagged():
    t = MetricTree(
        vertices=["v0", "a", "v1"],
        edges=[("v0", "a", 1), ("a", "v1", 1)],
        ends=[("A", "v0"), ("B", "v0"), ("C", "v1"), ("D", "v1")],
        base="v0",
    )
    report = validate_tree(t)
    assert not report.valid
    assert any("non-canonical" in v for v in report.violations)


def test_cycle_is_flagged():
    t = MetricTree(
        vertices=["a", "b", "c"],
        edges=[("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
        ends=[("X", "a"), ("Y", "b")],
        base="a",
    )
    report = validate_tree(t)
    assert not report.valid
    assert any("acyclic" in v for v in report.violations)


def test_disconnected_is_flagged():
    t = MetricTree(
        vertices=["a", "b"],
        edges=[],
        ends=[("X", "a"), ("Y", "b")],
        base="a",
    )
    report = validate_tree(t)
    assert not report.valid
    assert "not connected" in report.violations


def test_too_few_ends_flagged():
    t = MetricTree(vertices=["a"], edges=[], ends=[("X", "a")], base="a")
    assert not validate_tree(t).valid


def test_nonpositive_length_flagged():
    t = MetricTree(
        vertices=["a", "b"],
        edges=[("a", "b", 0)],
        ends=[("X", "a"), ("Y", "a"), ("Z", "b"), ("W", "b")],
        base="a",
    )
    report = validate_tree(t)
    assert not report.valid
    assert any("non-positive length" in v for v in report.violations)


def test_canonicalize_merges_path():
    t = MetricTree(
        vertices=["v0", "a", "v1"],
        edges=[("v0", "a", 1), ("a", "v1", 1)],
        ends=[("A", "v0"), ("B", "v0"), ("C", "v1"), ("D", "v1")],
        base="v0",
    )
    out = canonicalize(t)
    assert out.vertices == ("v0", "v1")
    assert out.edge_length[("v0", "v1")] == 2
    assert validate_tree(out).valid


def test_canonicalize_identity_on_canonical(caterpillar):
    out = canonicalize(caterpillar)
    assert out.vertices == caterpillar.vertices
    assert out.edges == caterpillar.edges
    assert out.ends == caterpillar.ends


def test_canonicalize_reattaches_end_over_suppressed_vertex():
    # w carries only the end E and the edge to v: E reattaches to v.
    t = MetricTree(
        vertices=["v", "w"],
        edges=[("v", "w", 3)],
        ends=[("A", "v"), ("B", "v"), ("E", "w")],
        base="v",
    )
    out = canonicalize(t)
    assert out.vertices == ("v",)
    assert out.ends["E"] == "v"
    assert validate_tree(out).valid  # v keeps degree 3


def test_canonicalize_keeps_degree_two_base():
    t = MetricTree(
        vertices=["v0", "v1"],
        edges=[("v0", "v1", 1)],
        ends=[("A", "v0"), ("C", "v1"), ("D", "v1")],
        base="v0",
    )
    out = canonicalize(t)
    assert "v0" in out.vertices
    report = validate_tree(out)
    assert report.valid
    assert any("degree 2" in w for w in report.warnings)
    assert out.base_is_degree_two


# Each input below has a degree-2 vertex "a" (so it is not canonical)
# and one structural defect, which canonicalize refuses with the same
# violation validate_tree reports.
_PATH = dict(
    vertices=["v0", "a", "v1"],
    edges=[("v0", "a", 1), ("a", "v1", 1)],
    ends=[("A", "v0"), ("B", "v0"), ("C", "v1"), ("D", "v1")],
    base="v0",
)

# The connectivity walk starts at the base: these put the base in the
# smaller component of a disconnected graph, or on a cycle.
_TRIANGLE = [("w", "x", 1), ("x", "y", 1), ("y", "w", 1)]
_WALK_FROM_BASE = [
    ({"vertices": ["v0", "a", "v1", "w"], "base": "w"}, ("not connected",)),
    (
        {"vertices": ["v0", "a", "v1", "w"], "base": "w", "ends": [("A", "v0")]},
        ("not connected", "fewer than 2 ends"),
    ),
    ({"edges": [("v0", "a", 1), ("a", "v1", 1), ("v1", "v0", 1)], "base": "a"}, ("not acyclic",)),
    (
        {
            "vertices": ["v0", "a", "v1", "w", "x", "y"],
            "edges": [("v0", "a", 1), ("a", "v1", 1), *_TRIANGLE],
            "ends": [("A", "x")],
            "base": "x",
        },
        ("not connected", "fewer than 2 ends"),
    ),
]


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"edges": [("v0", "a", 1), ("a", "v1", 1), ("v1", "v0", 1)]}, "not acyclic"),
        # An isolated vertex is reported as a disconnection.
        ({"vertices": ["v0", "a", "v1", "w"]}, "not connected"),
        ({"edges": [("v0", "a", 1), ("a", "v1", 1), ("v1", "v1", 1)]}, "self-loop"),
        ({"edges": [("v0", "a", 0), ("a", "v1", 1)]}, "non-positive length"),
        ({"base": "nowhere"}, "base vertex 'nowhere' is not a vertex"),
        ({"ends": [("A", "v0")]}, "fewer than 2 ends"),
        ({"ends": [("A", "v0"), ("A", "v1"), ("C", "v1")]}, "duplicate end ids"),
        ({"ends": [("A", "v0"), ("B", "v0"), ("C", "x")]}, "attaches to unknown vertex"),
        # No vertices at all: the missing base is reported first.
        ({"vertices": [], "edges": [], "ends": []}, "base vertex 'v0' is not a vertex"),
        ({"vertices": ["v0", "a", "v1", "v0"]}, "duplicate vertex ids"),
        *((change, violations[0]) for change, violations in _WALK_FROM_BASE),
    ],
)
def test_canonicalize_refuses_structural_violations(change, fragment):
    t = MetricTree(**{**_PATH, **change})
    _assert_adjacency_sorted(t)
    report = validate_tree(t)
    assert not report.valid and any(fragment in v for v in report.violations)
    with pytest.raises(StructureError, match=fragment) as raised:
        canonicalize(t)
    assert str(raised.value) == "; ".join(report.violations)


@pytest.mark.parametrize("change, violations", _WALK_FROM_BASE)
def test_walk_from_the_base_reports_every_violation(change, violations):
    assert validate_tree(MetricTree(**{**_PATH, **change})).violations == violations


def _assert_adjacency_sorted(t):
    """Appending the sorted edges in order leaves every adjacency list sorted."""
    assert all(t.adjacency[v] == sorted(t.adjacency[v]) for v in t.vertices)


def test_canonicalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(25):
        t = random_tree(rng)
        _assert_adjacency_sorted(t)
        once = canonicalize(t)
        twice = canonicalize(once)
        assert once.vertices == twice.vertices
        assert once.edges == twice.edges
        assert once.ends == twice.ends


def test_vertex_path_tripod(tripod):
    assert tripod.vertex_path(tripod.attach("A"), tripod.attach("B")) == ("c",)


def test_vertex_path_caterpillar(caterpillar):
    assert caterpillar.vertex_path(caterpillar.attach("A"), caterpillar.attach("D")) == ("v0", "v1")
    assert caterpillar.vertex_path(caterpillar.attach("C"), caterpillar.attach("D")) == ("v1",)


def test_gromov_product_caterpillar(caterpillar):
    assert gromov_product(caterpillar, "C", "D") == 2
    assert gromov_product(caterpillar, "A", "B") == 0
    assert gromov_product(caterpillar, "A", "D") == 0
    assert gromov_product(caterpillar, "C", "B") == 0


def test_gromov_product_diagonal_sentinel(caterpillar):
    value = gromov_product(caterpillar, "A", "A")
    assert value is INFINITY
    with pytest.raises(TypeError):
        value + 1  # the sentinel never enters arithmetic


def _brute_gromov(t, a, b):
    # Oracle: distance from the base to the nearest path vertex.
    path = rooted.vertex_path(t, t.attach(a), t.attach(b))
    return min(vertex_distance(t, t.base, v) for v in path)


def test_gromov_product_matches_brute_force_random():
    rng = random.Random(11)
    for _ in range(30):
        t = random_tree(rng)
        ends = list(t.ends)
        for a, b in combinations(ends, 2):
            assert gromov_product(t, a, b) == _brute_gromov(t, a, b)


def test_gromov_tree_inequality_random():
    # d0(a,c) >= min(d0(a,b), d0(b,c)) for all distinct triples.
    rng = random.Random(13)
    checked = 0
    while checked < 12:
        t = random_tree(rng, max_internal=4, extra_ends=6)
        ends = list(t.ends)
        if len(ends) > 8 or len(ends) < 3:
            continue
        checked += 1
        for a, b, c in permutations(ends, 3):
            assert gromov_product(t, a, c) >= min(
                gromov_product(t, a, b), gromov_product(t, b, c)
            )


def test_future_ends_caterpillar(caterpillar):
    assert future_ends(caterpillar, "v0", "v1") == {"C", "D"}
    assert future_ends(caterpillar, "v1", "v0") == {"A", "B"}
    assert future_ends(caterpillar, "v0", "A") == {"A"}
    assert future_ends(caterpillar, "A", "v0") == {"B", "C", "D"}
    # A hangs off v0: neither v1 nor another end is its other side.
    for tail, head in (("v1", "A"), ("A", "v1"), ("A", "B")):
        with pytest.raises(DomainError, match="no edge between"):
            future_ends(caterpillar, tail, head)


def test_future_ends_partition_random():
    rng = random.Random(17)
    for _ in range(20):
        t = random_tree(rng)
        all_ends = frozenset(t.ends)
        for u, v, _length in t.edges:
            fwd = future_ends(t, u, v)
            bwd = future_ends(t, v, u)
            assert fwd | bwd == all_ends
            assert not (fwd & bwd)


def test_dist_examples(caterpillar):
    v0 = TreePoint.at_vertex("v0")
    v1 = TreePoint.at_vertex("v1")
    d_pt = TreePoint.on_ray("D", "v1", Fraction(1))
    assert dist(caterpillar, v0, v0) == 0
    assert dist(caterpillar, v0, v1) == 2
    assert dist(caterpillar, v0, d_pt) == 3


def test_dist_same_edge_shortcut(caterpillar):
    p = TreePoint.on_edge("v0", "v1", Fraction(1, 2), Fraction(2))
    q = TreePoint.on_edge("v0", "v1", Fraction(3, 2), Fraction(2))
    assert dist(caterpillar, p, q) == 1
    r = TreePoint.on_ray("A", "v0", Fraction(2))
    s = TreePoint.on_ray("A", "v0", Fraction(5))
    assert dist(caterpillar, r, s) == 3


def _random_points(rng, t, count):
    points = [TreePoint.at_vertex(v) for v in t.vertices]
    for u, v, length in t.edges:
        points.append(TreePoint.on_edge(u, v, length / 2, length))
    for e, attach in t.ends.items():
        points.append(TreePoint.on_ray(e, attach, Fraction(rng.randint(1, 5))))
    rng.shuffle(points)
    return points[:count]


def test_dist_is_a_metric_random():
    rng = random.Random(19)
    for _ in range(10):
        t = random_tree(rng)
        pts = _random_points(rng, t, 14)
        for p in pts:
            assert dist(t, p, p) == 0
        for p, q in combinations(pts, 2):
            d = dist(t, p, q)
            assert d > 0
            assert d == dist(t, q, p)
        for p, q, r in combinations(pts, 3):
            assert dist(t, p, r) <= dist(t, p, q) + dist(t, q, r)


def test_canonicalize_preserves_distances():
    t = MetricTree(
        vertices=["v0", "m1", "m2", "v1"],
        edges=[("v0", "m1", Fraction(1, 2)), ("m1", "m2", Fraction(3, 4)), ("m2", "v1", Fraction(3, 4))],
        ends=[("A", "v0"), ("B", "v0"), ("C", "v1"), ("D", "v1")],
        base="v0",
    )
    out = canonicalize(t)
    # Surviving vertices keep their distance: 1/2 + 3/4 + 3/4.
    assert vertex_distance(out, "v0", "v1") == 2


def test_point_normalization():
    assert TreePoint.on_edge("u", "v", Fraction(0), Fraction(2)) == TreePoint.at_vertex("u")
    assert TreePoint.on_edge("u", "v", Fraction(2), Fraction(2)) == TreePoint.at_vertex("v")
    # Same point encoded from both directions collapses to one value.
    a = TreePoint.on_edge("u", "v", Fraction(1, 2), Fraction(2))
    b = TreePoint.on_edge("v", "u", Fraction(3, 2), Fraction(2))
    assert a == b
    assert TreePoint.on_ray("E", "u", Fraction(0)) == TreePoint.at_vertex("u")
