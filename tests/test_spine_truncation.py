"""Differential tests: the spine truncation built canonical, and its reference.

``spine_truncation`` builds level K's tree in canonical form directly;
``tests/oracles/spine.py`` keeps the route it replaced, a raw spine of
K + 1 vertices handed to ``canonicalize``.  Both give the same tree,
field by field, the same validation report and walk, and the same two
measures, and both refuse the same inputs with the same exception
classes.  ``family_analyze`` builds one tree per level and walks it once.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from wassertree import (
    DomainError,
    FamilySpec,
    MetricTree,
    ParseError,
    StructureError,
    family_analyze,
    realizability,
)
from wassertree import tree as tree_module
from wassertree.realizability import spine_truncation

from oracles import spine
from test_tree_constructor import FIELDS

ROOT = Path(__file__).parent.parent
LEVELS = 80


def _specs():
    for path in sorted(ROOT.glob("samples/spine_*.json")):
        yield path.stem, FamilySpec.from_json(json.loads(path.read_text()))
    rng = random.Random(2525)
    for idx in range(3):
        masses = [str(Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(LEVELS)]
        for level in rng.sample(range(1, LEVELS), 12):
            masses[level] = "0"  # interior levels only: level 1 keeps its mass
        lengths = [str(Fraction(rng.randint(1, 8), rng.randint(1, 4))) for _ in range(LEVELS)]
        yield f"explicit {idx}", FamilySpec.from_json({"kind": "custom", "masses": masses, "lengths": lengths})
    yield "geometric with scale", FamilySpec(
        kind="spine",
        masses={"kind": "geometric", "ratio": "9/10", "scale": "7/3"},
        lengths={"kind": "geometric", "ratio": "21/20", "scale": "2/5"},
    )
    yield "explicit masses, constant lengths", FamilySpec.from_json(
        {
            "kind": "spine",
            "masses": {"kind": "explicit", "values": ["1", "0", "0", "1/2"] * (LEVELS // 4)},
            "lengths": {"kind": "constant", "value": "3/2"},
        }
    )


def test_direct_truncation_matches_reference():
    compared = zero_levels = 0
    for name, spec in _specs():
        masses, lengths = spec.level_data(LEVELS)
        for K in range(1, LEVELS + 1):
            where = f"{name} K={K}"
            new, new_minus, new_plus = spine_truncation(masses[:K], lengths[:K])
            old, old_minus, old_plus = spine.spine_truncation(masses[:K], lengths[:K])
            for field in FIELDS:
                got, want = getattr(new, field), getattr(old, field)
                assert got == want and repr(got) == repr(want), f"{where}: {field}"
            report = new.validation_report()
            assert report == old.validation_report(), where
            assert report.valid and report.warnings == ("base vertex has degree 2 (kept as exception)",), where
            assert new._walk == old._walk, where
            assert repr(new_minus.atoms) == repr(old_minus.atoms), where
            assert repr(new_plus.atoms) == repr(old_plus.atoms), where
            compared += 1
            zero_levels += masses[K - 1] == 0
    # 12 zero levels in each seeded explicit spec, 40 in the last spec.
    assert compared == 7 * LEVELS and zero_levels == 3 * 12 + 40, (compared, zero_levels)


ONE = Fraction(1)


@pytest.mark.parametrize(
    "masses, lengths, error, message",
    [
        # L_K, which level K's tree leaves out, is still read and checked.
        pytest.param([ONE, ONE], [ONE, 0], StructureError, "level 2 has non-positive length 0", id="L_K zero"),
        pytest.param(
            [ONE, ONE], [ONE, Fraction(-1, 2)], StructureError, "level 2 has non-positive length -1/2", id="L_K negative"
        ),
        pytest.param([ONE], [0], StructureError, "level 1 has non-positive length 0", id="K=1 zero"),
        pytest.param([ONE, ONE, ONE], [ONE, 0, ONE], StructureError, "level 2 has non-positive length 0", id="interior zero"),
        pytest.param([ONE, ONE, ONE], [-1, ONE, ONE], StructureError, "level 1 has non-positive length -1", id="first negative"),
        pytest.param([ONE, ONE], [ONE, 0.5], ParseError, None, id="L_K float"),
        pytest.param([ONE, ONE], [0.5, ONE], ParseError, None, id="interior float"),
        pytest.param([ONE, ONE], [ONE, "abc"], ParseError, None, id="L_K not a number"),
        # Every length is read before any is checked for sign.
        pytest.param([ONE, ONE], [0, 0.5], ParseError, None, id="zero, then float"),
        pytest.param([ONE, ONE], [ONE], StructureError, None, id="count mismatch"),
        pytest.param([], [], StructureError, None, id="no levels"),
        pytest.param([0, 0], [ONE, ONE], StructureError, None, id="no mass"),
        pytest.param([ONE, Fraction(-1, 2)], [ONE, ONE], DomainError, None, id="negative mass"),
    ],
)
def test_refusals_match_reference(masses, lengths, error, message):
    """Same exception class as the reference; only a length message names the level."""
    with pytest.raises(error) as old:
        spine.spine_truncation(masses, lengths)
    with pytest.raises(error) as new:
        spine_truncation(masses, lengths)
    assert str(new.value) == (message or str(old.value))


@pytest.mark.parametrize(
    "masses, lengths",
    [(["1", "1"], [1, 1]), ([1, "1"], ["1", ONE]), (["1/3", "0", 2], [1, "5/2", "1"])],
)
def test_masses_parse_like_lengths(masses, lengths):
    """A mass given as an int or a ``"p/q"`` string reads as its Fraction, as a length does."""
    got = spine_truncation(masses, lengths)
    want = spine_truncation([Fraction(m) for m in masses], [Fraction(x) for x in lengths])
    for field in FIELDS:
        assert getattr(got[0], field) == getattr(want[0], field), field
    assert repr(got[1].atoms) == repr(want[1].atoms) and repr(got[2].atoms) == repr(want[2].atoms)


def test_float_mass_is_a_parse_error_that_names_it():
    # The reference sums the masses raw and names the renormalized float.
    with pytest.raises(ParseError, match=r"^not a rational: 0\.5 \(floats are not accepted\)$"):
        spine_truncation([ONE, 0.5], [ONE, ONE])


def test_family_analyze_builds_one_tree_per_level(monkeypatch):
    built, walks = [], []
    init, walk = MetricTree.__init__, tree_module._walk_from_base

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_walk(t):
        walks.append(t)
        return walk(t)

    def refused(*args, **kwargs):
        raise AssertionError("canonicalize on the family route")

    monkeypatch.setattr(MetricTree, "__init__", counted_init)
    monkeypatch.setattr(tree_module, "_walk_from_base", counted_walk)
    monkeypatch.setattr(tree_module, "canonicalize", refused)
    for name, spec in _specs():
        built.clear()
        walks.clear()
        family_analyze(spec, 12, Fraction(1, 1000))
        assert len(built) == 12 and walks == built, name


def test_only_the_tree_module_names_canonicalize():
    package = ROOT / "src" / "wassertree"
    naming = {p.name for p in package.glob("*.py") if "canonicalize" in p.read_text()}
    assert naming == {"tree.py", "__init__.py"}
    assert not hasattr(realizability, "canonicalize")
