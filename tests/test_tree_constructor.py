"""Differential test: the one-pass ``MetricTree`` constructor and its oracle.

``tests/oracles/tree_init.py`` keeps the constructor the one-pass one
replaced.  On every input below both build the same public fields (and
the private ones validation reads), with the same types and the same
key order, and validation reports the same violations in the same
order.  An input one of them refuses, the other refuses with the same
error.  Each input is handed over as one-shot iterators, so a second
pass over an argument would show as a difference.
"""

import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

from wassertree import FamilySpec, MetricTree, WassertreeError, realizability, tree, validate_tree

import gen
from oracles import spine
from oracles.tree_init import ReferenceTree

ROOT = Path(__file__).parent.parent
FIELDS = (
    "vertices",
    "edges",
    "edge_length",
    "ends",
    "adjacency",
    "vertex_ends",
    "base",
    "_vertex_set",
    "_duplicate_vertices",
    "_duplicate_ends",
)

MALFORMED = [
    # duplicate vertex ids, duplicate end ids
    (["a", "b", "a"], [("a", "b", 1)], [("x", "a"), ("y", "b")], "a"),
    (["a", "b"], [("a", "b", 1)], [("x", "a"), ("x", "b")], "a"),
    # self-loops, with and without a second defect on the same edge
    (["a", "b"], [("a", "b", 1), ("b", "b", 2), ("a", "a", 0)], [("x", "a"), ("y", "b")], "a"),
    # edges on unknown vertices, either end
    (["a", "b"], [("a", "b", 1), ("z", "a", 1), ("b", "q", "1/2")], [("x", "a"), ("y", "b")], "a"),
    # parallel edges, given in both orientations and with different lengths
    (["a", "b", "c"], [("b", "a", 2), ("a", "b", 1), ("c", "a", 1), ("a", "c", 1)], [("x", "b"), ("y", "c")], "a"),
    # ends on unknown vertices, and an end id that is a vertex id
    (["a", "b"], [("a", "b", 1)], [("x", "q"), ("b", "a"), ("y", "b")], "a"),
    # integer ids: "10" sorts before "2"
    ([1, 2, 10], [(10, 2, 3), (1, 10, "1/2")], [(5, 1), (6, 1), (7, 2), (8, 2)], 1),
    ([3, "3"], [(3, "4", 1)], [(0, 3)], 3),
    # non-positive lengths, a missing base, fewer than two ends
    (["a", "b", "c"], [("c", "a", 0), ("a", "b", "-1/2")], [("x", "a")], "z"),
    # disconnected, cyclic, degree two, a degree-two base
    (["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)], [("x", "a"), ("y", "b"), ("z", "c")], "a"),
    (["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)], [("x", "a"), ("y", "b")], "a"),
    (["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)], [("x", "a"), ("y", "c"), ("w", "c")], "a"),
    # lengths the parser refuses: the first bad one in input order is named
    (["a", "b", "c"], [("a", "b", "1/0"), ("b", "c", 0.5)], [("x", "a"), ("y", "c")], "a"),
    (["a", "b", "c"], [("a", "b", True), ("b", "c", "abc")], [("x", "a"), ("y", "c")], "a"),
    # no vertices or edges at all
    ([], [], [], "a"),
]


def _recorded(monkeypatch, modules, build):
    """The raw arguments of every ``MetricTree`` that ``build()`` constructs."""
    raws = []

    def recording(vertices, edges, ends, base):
        raw = (list(vertices), list(edges), list(ends), base)
        raws.append(raw)
        return MetricTree(*raw)

    with monkeypatch.context() as patch:
        for module in modules:
            patch.setattr(module, "MetricTree", recording)
        build()
    return raws


def _json_trees():
    for path in sorted([*ROOT.glob("samples/*.json"), *ROOT.glob("tests/golden/inputs/*.json")]):
        data = json.loads(path.read_text())
        if "edges" in data:
            edges = [(e["u"], e["v"], e["len"]) for e in data["edges"]]
            yield path.name, (data["vertices"], edges, [(e["id"], e["attach"]) for e in data["ends"]], data["base"])


def _family_trees(monkeypatch):
    for path in sorted(ROOT.glob("samples/spine_*.json")):
        spec = FamilySpec.from_json(json.loads(path.read_text()))
        for level in (1, 2, 3, 7, 20):
            # The reference route builds the raw spine and canonicalizes it;
            # the library builds the canonical tree directly.
            data = spec.level_data(level)
            for build in (spine.spine_truncation, realizability.spine_truncation):
                for raw in _recorded(monkeypatch, (spine, tree, realizability), lambda: build(*data)):
                    yield f"{path.name} level {level}", raw


def _gen_trees(monkeypatch):
    rng = random.Random(2424)
    for i in range(300):
        size = rng.choice((4, 12, 40, 120))
        for raw in _recorded(monkeypatch, (gen,), lambda: gen.random_tree(rng, max_internal=size, extra_ends=6)):
            yield f"gen tree {i}", raw


def _ladder_trees():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    for rung in ladder.RUNGS:
        vertices, atoms = (int(x) for x in rung.split("/"))
        yield f"ladder rung {rung}", ladder.instance(vertices, atoms, ladder.SEED)[0]


def _build(cls, raw):
    vertices, edges, ends, base = raw
    return cls(iter(vertices), iter(edges), iter(ends), base)


def _assert_same_tree(raw, where):
    try:
        new = _build(MetricTree, raw)
    except WassertreeError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            _build(ReferenceTree, raw)
        return "refused"
    old = _build(ReferenceTree, raw)
    for name in FIELDS:
        got, want = getattr(new, name), getattr(old, name)
        assert got == want and repr(got) == repr(want), f"{where}: {name}"
    assert validate_tree(new) == validate_tree(old), where
    assert new._walk == old._walk, where
    return "valid" if validate_tree(new).valid else "invalid"


def test_constructor_matches_reference(monkeypatch):
    inputs = [
        *_json_trees(),
        *_family_trees(monkeypatch),
        *_gen_trees(monkeypatch),
        *_ladder_trees(),
        *((f"malformed {i}", raw) for i, raw in enumerate(MALFORMED)),
    ]
    outcomes = {}
    for where, raw in inputs:
        outcome = _assert_same_tree(raw, where)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["valid"] >= 300 and outcomes["invalid"] >= 20 and outcomes["refused"] == 2, outcomes

