"""Differential tests of ``wassertree d0`` and ``MetricTree.meets_with``.

``d0`` labels every vertex with its meet once per source end and renders
each meet's depth once; the per-pair route it replaced is
``tests/oracles/d0.py``.  The CLI's stdout must equal the oracle's byte
for byte, with and without ``--decimal``, on the instance samples,
seeded random trees, an 80-level spine like the benchmark's and a
400-vertex tree.  ``meets_with`` must agree with ``meet`` on every
vertex pair.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import MetricTree, cli, serialize

from gen import random_tree
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


def seeded_trees():
    rng = random.Random(20261019)
    trees = [random_tree(rng, max_internal=rng.choice((1, 3, 8, 20)), extra_ends=5) for _ in range(12)]
    return trees + [spine(80, 1), random_tree(rng, max_internal=400, extra_ends=0, min_internal=400)]


def run_d0(path, *extra) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["d0", "--input", str(path), *extra]) == 0
    return out.getvalue()


def write_tree(tmp_path, index, t) -> Path:
    path = tmp_path / f"tree{index}.json"
    path.write_text(json.dumps(serialize.tree_to_json(t)))
    return path


@pytest.mark.parametrize("decimal", [None, 6])
def test_d0_matches_the_per_pair_route(tmp_path, decimal):
    paths = INSTANCES + [write_tree(tmp_path, i, t) for i, t in enumerate(seeded_trees())]
    extra = [] if decimal is None else ["--decimal", str(decimal)]
    for path in paths:
        assert run_d0(path, *extra) == d0_report(str(path), decimal), path.name


def test_meets_with_matches_meet():
    for t in seeded_trees()[:-1]:
        for v in t.vertices:
            meets = t.meets_with(v)
            assert meets == {w: t.meet(v, w) for w in t.vertices}
