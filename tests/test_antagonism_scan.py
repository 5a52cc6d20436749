"""Differential tests: the antagonism scan against its two oracles.

``transport.is_cyclically_monotone`` decides cyclical monotonicity by
scanning the pairs' paths for opposite traversals of a common edge.  It
is compared here with the permutation enumerator it replaced
(``tests/oracles/cycles.py``, exhaustive up to 8 support atoms) and, on
larger supports, with the all-pairs antagonism loop over the lifted plan
(``tests/oracles/antagonism.py``) and with ``uncross``.
"""

import random
from fractions import Fraction

import pytest

from wassertree import (
    BoundaryMeasure,
    Coupling,
    DomainError,
    MetricTree,
    StructureError,
    compute_flow_field,
    is_cyclically_monotone,
    lift,
    solve_optimal_coupling,
)

from gen import random_coupling, random_measures, random_tree
from oracles import antagonism, cycles
from oracles.theory import uncross
from oracles.costs import cost_matrix


def _strictly_violating(cm, witness, support):
    (a, b), (c, d) = witness
    assert (a, b) in support and (c, d) in support and (a, b) < (c, d)
    kept = cm.cost(a, b) + cm.cost(c, d)
    shifted = cm.cost(a, d) + cm.cost(c, b)
    return kept > shifted


def _couplings(seed, count, sides, atom_range):
    """``count`` seeded (tree, cost matrix, coupling) triples whose
    coupling has a number of atoms in ``atom_range``; every fifth one is
    an optimal coupling or the uncrossing of a random one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng, max_internal=rng.choice((10, 20, 30)), extra_ends=2 * sides)
        try:
            minus, plus = random_measures(rng, t, max_side=sides)
        except ValueError:
            continue
        cm = cost_matrix(t, minus, plus)
        pi = random_coupling(rng, minus, plus)
        if len(out) % 5 == 4:
            pi = uncross(pi, t) if rng.random() < 0.5 else solve_optimal_coupling(compute_flow_field(t, minus, plus))[0]
        if len(pi.atoms) in atom_range:
            out.append((t, cm, pi))
    return out


def test_scan_matches_enumerator_up_to_8_atoms():
    counts = {"monotone": 0, "violated": 0, "two_cycle": 0, "longer": 0}
    for t, cm, pi in _couplings(seed=4040, count=1000, sides=4, atom_range=range(1, 9)):
        oracle = cycles.is_cyclically_monotone(pi, cm)
        result = is_cyclically_monotone(pi, t)
        assert oracle.exhaustive
        assert result.monotone == oracle.monotone
        if result.monotone:
            counts["monotone"] += 1
            assert result.witness is None
            continue
        counts["violated"] += 1
        assert len(result.witness) == 2
        assert _strictly_violating(cm, result.witness, pi.atoms)
        if len(oracle.witness) == 2:
            counts["two_cycle"] += 1
            assert result.witness == oracle.witness
        else:
            counts["longer"] += 1
    # Both verdicts, and both kinds of oracle witness, are exercised.
    assert counts["monotone"] >= 200 and counts["violated"] >= 200
    assert counts["two_cycle"] >= 100 and counts["longer"] >= 50


def test_scan_matches_antagonist_pairs_9_to_20_atoms():
    violated = 0
    for t, cm, pi in _couplings(seed=4141, count=150, sides=12, atom_range=range(9, 21)):
        result = is_cyclically_monotone(pi, t)
        support = sorted(pi.atoms)
        pairs = antagonism.antagonist_pairs(lift(pi, t), t)
        assert result.monotone == (not pairs)
        if pairs:
            violated += 1
            i, j, _ = pairs[0]
            assert result.witness == (support[i], support[j])
            assert _strictly_violating(cm, result.witness, pi.atoms)
        fixed = uncross(pi, t)
        assert is_cyclically_monotone(fixed, t).monotone
        if result.monotone:
            assert fixed == pi
    assert violated >= 50


def test_scan_rejects_overlapping_coupling(caterpillar):
    # B is a target of one pair and the source of another.
    pi = Coupling({("A", "B"): Fraction(1, 2), ("B", "D"): Fraction(1, 2)})
    with pytest.raises(DomainError, match="overlap"):
        is_cyclically_monotone(pi, caterpillar)
    with pytest.raises(DomainError, match="overlap"):
        is_cyclically_monotone(Coupling({("A", "A"): Fraction(1)}), caterpillar)


def test_scan_rejects_unknown_end(caterpillar):
    with pytest.raises(DomainError, match="unknown end"):
        is_cyclically_monotone(Coupling({("C", "Z"): Fraction(1)}), caterpillar)


def test_scan_validates_the_tree_first():
    # Unknown and overlapping ends on an invalid tree: the tree's
    # StructureError (exit 2) comes first.
    cycle = MetricTree(
        vertices=["a", "b", "c"],
        edges=[("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
        ends=[("A", "a"), ("B", "b")],
        base="a",
    )
    pi = Coupling({("A", "Z"): Fraction(1, 2), ("Z", "B"): Fraction(1, 2)})
    with pytest.raises(StructureError):
        is_cyclically_monotone(pi, cycle)


def test_scan_accepts_couplings_of_any_mass(caterpillar):
    crossed = Coupling({("A", "D"): Fraction(1, 4), ("C", "B"): Fraction(1, 4)})
    assert is_cyclically_monotone(crossed, caterpillar).witness == (("A", "D"), ("C", "B"))
    assert is_cyclically_monotone(Coupling({("A", "B"): 3, ("C", "D"): 2}), caterpillar).monotone


def test_scan_on_deep_spine():
    # 300-level spine with one end per level: the crossed coupling sends
    # the deepest minus end to the shallowest plus end and back.
    n = 300
    t = MetricTree(
        vertices=[f"v{i}" for i in range(n)],
        edges=[(f"v{i}", f"v{i + 1}", Fraction(1, i + 1)) for i in range(n - 1)],
        ends=[("r", "v0"), ("s", f"v{n - 1}")] + [(f"e{i}", f"v{i}") for i in range(n)],
        base="v0",
    )
    minus = BoundaryMeasure({"e0": Fraction(1, 2), f"e{n - 1}": Fraction(1, 2)})
    plus = BoundaryMeasure({"e1": Fraction(1, 2), f"e{n - 2}": Fraction(1, 2)})
    crossed = Coupling({("e0", f"e{n - 2}"): Fraction(1, 2), (f"e{n - 1}", "e1"): Fraction(1, 2)})
    result = is_cyclically_monotone(crossed, t)
    assert not result.monotone
    assert result.witness == (("e0", f"e{n - 2}"), (f"e{n - 1}", "e1"))
    assert is_cyclically_monotone(uncross(crossed, t), t).monotone
