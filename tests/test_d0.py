"""Differential tests of ``wassertree d0`` and ``MetricTree.meets_with``.

``d0`` labels every vertex with its meet once per source end and renders
each row from its end's head and its meet's tail; the per-pair route it
replaced is ``tests/oracles/d0.py``.  The CLI's stdout must equal the
oracle's byte for byte, without ``--decimal`` and with 0 or 6 places, on
the instance samples, seeded random trees, an 80-level spine like the
benchmark's, a 400-vertex tree, trees whose ids need JSON escaping or
hold ``%``, an instance file with integer ids and the smallest valid
tree (one pair).  ``meets_with`` must agree with ``meet`` on every
vertex pair.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import MetricTree, cli

from gen import random_tree, tree_to_json
from oracles import rooted
from oracles.d0 import d0_report

SAMPLES = Path(__file__).parent.parent / "samples"
INSTANCES = [p for p in sorted(SAMPLES.glob("*.json")) if "vertices" in json.loads(p.read_text())]


def spine(levels: int, seed: int) -> MetricTree:
    """A spine truncation shaped like the benchmark's: ends S_k and T_k."""
    rng = random.Random(seed)
    vertices = [f"u{i}" for i in range(levels)]
    edges = [
        (vertices[i - 1], vertices[i], Fraction(rng.randint(1, 8), rng.randint(1, 4)))
        for i in range(1, levels)
    ]
    ends = [(f"S{k}", vertices[k - 1]) for k in range(1, levels + 1)]
    ends += [(f"T{k}", vertices[min(k, levels - 1)]) for k in range(1, levels + 1)]
    return MetricTree(vertices=vertices, edges=edges, ends=ends, base=vertices[0])


# Ids that JSON escapes (quote, backslash, control characters, non-ASCII
# and astral characters) or that hold the template characters % and %s.
ODD_IDS = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600", "%", "%s", "%%s", 'a"%s\\b']


def odd_ids(t: MetricTree, salt: int) -> MetricTree:
    """``t`` with every vertex and end id replaced by one built from ``ODD_IDS``."""
    names = {}
    for i, old in enumerate([*t.vertices, *sorted(t.ends)]):
        names[old] = ODD_IDS[(i + salt) % len(ODD_IDS)] + str(i) + ODD_IDS[(3 * i + salt) % len(ODD_IDS)]
    return MetricTree(
        vertices=[names[v] for v in t.vertices],
        edges=[(names[u], names[v], length) for u, v, length in t.edges],
        ends=[(names[e], names[a]) for e, a in t.ends.items()],
        base=names[t.base],
    )


def seeded_trees():
    rng = random.Random(20261019)
    trees = [random_tree(rng, max_internal=rng.choice((1, 3, 8, 20)), extra_ends=5) for _ in range(12)]
    trees += [odd_ids(random_tree(rng, max_internal=12, extra_ends=6), salt) for salt in range(4)]
    smallest = MetricTree(vertices=["c"], edges=[], ends=[("A", "c"), ("B", "c")], base="c")
    return trees + [smallest, spine(80, 1), random_tree(rng, max_internal=400, extra_ends=0, min_internal=400)]


# Integer ids, normalized to strings on load; end ids 9, 10 and 11 sort as strings.
INTEGER_IDS = {
    "vertices": [1, 2, 3, 4],
    "base": 1,
    "edges": [{"u": 1, "v": 2, "len": "1/2"}, {"u": 2, "v": 3, "len": "3"}, {"u": 2, "v": 4, "len": "2/3"}],
    "ends": [
        {"id": 9, "attach": 1},
        {"id": 10, "attach": 1},
        {"id": 11, "attach": 3},
        {"id": 12, "attach": 3},
        {"id": "x", "attach": 4},
        {"id": 100, "attach": 4},
    ],
}


def run_d0(path, *extra) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["d0", "--input", str(path), *extra]) == 0
    return out.getvalue()


def write_tree(tmp_path, index, t) -> Path:
    path = tmp_path / f"tree{index}.json"
    path.write_text(json.dumps(tree_to_json(t)))
    return path


@pytest.mark.parametrize("decimal", [None, 0, 6])
def test_d0_matches_the_per_pair_route(tmp_path, decimal):
    paths = INSTANCES + [write_tree(tmp_path, i, t) for i, t in enumerate(seeded_trees())]
    integer_ids = tmp_path / "integer_ids.json"
    integer_ids.write_text(json.dumps(INTEGER_IDS))
    extra = [] if decimal is None else ["--decimal", str(decimal)]
    for path in [*paths, integer_ids]:
        assert run_d0(path, *extra) == d0_report(str(path), decimal), path.name


def test_d0_negative_decimal_exits_4(tmp_path, capsys):
    path = write_tree(tmp_path, 0, seeded_trees()[0])
    assert cli.main(["d0", "--input", str(path), "--decimal", "-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: decimal places must be nonnegative, got -1\n"


def test_meets_with_matches_meet():
    for t in seeded_trees()[:-1]:
        for v in t.vertices:
            meets = t.meets_with(v)
            assert meets == {w: rooted.meet(t, v, w) for w in t.vertices}
