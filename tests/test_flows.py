import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from wassertree import (
    BoundaryMeasure,
    DomainError,
    FamilySpec,
    check_antipodal,
    compute_flow_field,
    specific_flow_second_moment,
    spine_truncation,
)
from wassertree.dot import tree_to_dot
from wassertree.flows import flow_class
from wassertree.serialize import load_instance

from gen import random_measures, random_tree
from oracles import flows as oracle_flows


def test_measure_normalizes_zero_atoms():
    m = BoundaryMeasure({"A": Fraction(1), "B": Fraction(0)})
    assert m.support == {"A"}


def test_measure_rejects_bad_mass():
    with pytest.raises(DomainError):
        BoundaryMeasure({"A": Fraction(1, 2)})
    with pytest.raises(DomainError):
        BoundaryMeasure({"A": Fraction(3, 2), "B": Fraction(-1, 2)})


def _fraction_sum_error(atoms) -> str:
    """The refusal of a total other than 1, from a plain ``Fraction`` sum."""
    total = sum((Fraction(m) for m in atoms.values()), Fraction(0))
    return "" if total == 1 else f"masses sum to {total}, expected 1"


def _mass_check_cases(rng: random.Random):
    """Seeded measures on both sides of total 1, with large denominators."""
    yield {}
    yield {"A": 0, "B": "0"}
    for _ in range(40):
        size = rng.randint(1, 12)
        bits = rng.choice([8, 64, 420])
        dens = [rng.getrandbits(bits) | 1 for _ in range(size)]
        atoms = {f"e{i}": Fraction(rng.randrange(d), d * size) for i, d in enumerate(dens)}
        last = f"e{size}"
        atoms[last] = 1 - sum(atoms.values())
        for i in rng.sample(range(size), size // 3):
            atoms[f"z{i}"] = Fraction(0)  # zero-mass atoms, dropped
        yield atoms
        big = rng.getrandbits(400) | 1
        yield {**atoms, last: atoms[last] + Fraction(1, big)}
        if atoms[last] >= Fraction(1, big):
            yield {**atoms, last: atoms[last] - Fraction(1, big)}
    # Pairwise coprime denominators over 400 bits: a common factor of
    # 1 + i*M and 1 + j*M divides j - i, hence M, hence neither.
    for _ in range(10):
        M = 720 * (rng.getrandbits(400) | (1 << 399))
        dens = [1 + k * M for k in range(1, 7)]
        assert all(gcd(p, q) == 1 for p, q in combinations(dens, 2))
        atoms = {f"e{k}": Fraction(rng.randint(1, 9), d) for k, d in enumerate(dens)}
        atoms["last"] = 1 - sum(atoms.values())
        yield atoms
        yield {**atoms, "last": atoms["last"] + Fraction(1, dens[0])}
        yield {**atoms, "last": atoms["last"] - Fraction(1, dens[-1])}


def test_mass_check_matches_fraction_sum():
    valid = refused = 0
    for atoms in _mass_check_cases(random.Random(2626)):
        want = _fraction_sum_error(atoms)
        try:
            m = BoundaryMeasure(atoms)
        except DomainError as exc:
            assert str(exc) == want and want, atoms
            refused += 1
        else:
            assert not want, atoms
            assert m.atoms == {e: x for e, x in atoms.items() if x}
            valid += 1
    assert valid >= 50 and refused >= 90, (valid, refused)


def test_antipodal_examples(caterpillar, tripod, caterpillar_measures):
    minus, plus = caterpillar_measures
    assert check_antipodal(caterpillar, minus, plus)
    delta_a = BoundaryMeasure({"A": 1})
    assert not check_antipodal(caterpillar, delta_a, delta_a)
    assert check_antipodal(
        tripod, BoundaryMeasure({"A": 1}), BoundaryMeasure({"B": Fraction(1, 2), "C": Fraction(1, 2)})
    )


def test_flow_field_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    assert ff.flow("v0", "v1") == 0
    assert flow_class(ff.flow("v0", "v1")) == "neutral"
    assert ff.out["v0"] == Fraction(1, 2)
    assert ff.specific["v0"] == Fraction(1, 2)
    assert ff.out["v1"] == Fraction(1, 2)
    assert ff.specific["v1"] == Fraction(1, 2)
    with pytest.raises(DomainError, match="unknown end"):
        ff.flow_to_end("v0")


def test_flow_field_tripod(tripod):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"B": Fraction(1, 2), "C": Fraction(1, 2)})
    ff = compute_flow_field(tripod, minus, plus)
    assert ff.flow_to_end("A") == -1
    assert ff.flow_to_end("B") == Fraction(1, 2)
    assert ff.flow_to_end("C") == Fraction(1, 2)
    assert ff.out["c"] == 1
    assert ff.specific["c"] == 1


def test_flow_field_rejects_non_antipodal(caterpillar):
    minus = BoundaryMeasure({"A": 1})
    with pytest.raises(DomainError):
        compute_flow_field(caterpillar, minus, minus)


def test_moment_caterpillar(caterpillar, caterpillar_measures):
    minus, plus = caterpillar_measures
    ff = compute_flow_field(caterpillar, minus, plus)
    assert specific_flow_second_moment(caterpillar, ff) == 2


def test_moment_tripod_is_zero(tripod):
    minus = BoundaryMeasure({"A": 1})
    plus = BoundaryMeasure({"B": Fraction(1, 2), "C": Fraction(1, 2)})
    ff = compute_flow_field(tripod, minus, plus)
    assert specific_flow_second_moment(tripod, ff) == 0


def _antipodal_instance(rng):
    while True:
        t = random_tree(rng)
        try:
            minus, plus = random_measures(rng, t)
        except ValueError:
            continue
        return t, minus, plus


def test_flow_antisymmetry_random():
    rng = random.Random(31)
    for _ in range(30):
        t, minus, plus = _antipodal_instance(rng)
        ff = compute_flow_field(t, minus, plus)
        for u, v, _length in t.edges:
            assert ff.flow(u, v) == -ff.flow(v, u)


def test_kirchhoff_at_every_vertex_random():
    # Positive out-flow equals positive in-flow at every vertex.
    rng = random.Random(37)
    for _ in range(30):
        t, minus, plus = _antipodal_instance(rng)
        ff = compute_flow_field(t, minus, plus)
        for x in t.vertices:
            out_flows = [ff.flow(x, w) for w, _ in t.adjacency[x]]
            out_flows += [ff.flow_to_end(e) for e in t.vertex_ends[x]]
            positive_out = sum((f for f in out_flows if f > 0), Fraction(0))
            positive_in = sum((-f for f in out_flows if f < 0), Fraction(0))
            assert positive_out == positive_in == ff.out.get(x, 0)


def test_flow_bounds_random():
    # 0 <= specific flow <= vertex flow <= 1 everywhere.
    rng = random.Random(41)
    for _ in range(30):
        t, minus, plus = _antipodal_instance(rng)
        ff = compute_flow_field(t, minus, plus)
        for x in t.vertices:
            assert 0 <= ff.specific.get(x, 0) <= ff.out.get(x, 0) <= 1


def test_end_edge_balance_random():
    # Outward end-edge flow is the net mass charged to that end.
    rng = random.Random(43)
    for _ in range(30):
        t, minus, plus = _antipodal_instance(rng)
        ff = compute_flow_field(t, minus, plus)
        for e in t.ends:
            assert ff.flow_to_end(e) == plus.mass(e) - minus.mass(e)


def test_swap_negates_edge_flows_random():
    rng = random.Random(47)
    for _ in range(30):
        t, minus, plus = _antipodal_instance(rng)
        ff = compute_flow_field(t, minus, plus)
        swapped = compute_flow_field(t, plus, minus)
        assert dict(swapped.edge_flows()) == {edge: -value for edge, value in ff.edge_flows()}
        assert swapped.out == ff.out


# -- the sparse field against the dense fill it replaced ---------------------

SAMPLES = Path(__file__).parent.parent / "samples"


def _dense_oracle_instances():
    rng = random.Random(20261019)
    for _ in range(200):
        t = random_tree(rng, max_internal=rng.choice((1, 4, 10, 30)), extra_ends=rng.choice((0, 3, 8)))
        try:
            yield "seeded", (t, *random_measures(rng, t, max_side=rng.choice((2, 4, 8))))
        except ValueError:
            continue
    for sample in sorted(SAMPLES.glob("*.json")):
        data = json.loads(sample.read_text())
        if "measures" in data:
            tree, measures, _ = load_instance(str(sample))
            yield sample.name, (tree, *measures)
        else:
            yield sample.name, FamilySpec.from_json(data).truncation(20)
    for level in (1, 2, 7, 60, 200):
        masses = [Fraction(1, k) for k in range(1, level + 1)]
        lengths = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(level)]
        yield f"spine K={level}", spine_truncation(masses, lengths)
    for _ in range(16):
        t = random_tree(rng, max_internal=rng.choice((4, 10, 30)), extra_ends=8)
        yield "coprime", (t, *_coprime_measures(rng, t))


def _coprime_measures(rng: random.Random, t):
    """Antipodal measures whose denominators are pairwise coprime and over
    400 bits across both sides, with zero-mass atoms on either support."""
    ends = sorted(t.ends)
    rng.shuffle(ends)
    k_minus = rng.randint(1, len(ends) // 2)
    k_plus = rng.randint(1, len(ends) - k_minus)
    # 1 + i*M and 1 + j*M share no factor (see _mass_check_cases).
    M = 720 * (rng.getrandbits(400) | (1 << 399))
    dens = iter(1 + k * M for k in range(1, len(ends) + 1))

    def measure(support, zeros):
        atoms = {e: Fraction(rng.randint(1, 9), next(dens)) for e in support[1:]}
        atoms[support[0]] = 1 - sum(atoms.values())
        atoms.update(dict.fromkeys(zeros, Fraction(0)))
        return BoundaryMeasure(atoms)

    minus_support, plus_support = ends[:k_minus], ends[k_minus : k_minus + k_plus]
    minus = measure(minus_support, rng.sample(plus_support, len(plus_support) // 2))
    plus = measure(plus_support, rng.sample(minus_support, len(minus_support) // 2))
    assert minus.unit.bit_length() > 400 * (k_minus - 1) and not minus.support & plus.support
    return minus, plus


def test_sparse_field_matches_dense_oracle():
    checked = coprime = 0
    for label, (t, minus, plus) in _dense_oracle_instances():
        ff = compute_flow_field(t, minus, plus)
        dense = oracle_flows.compute_flow_field(t, minus, plus)
        edge_flows = list(ff.edge_flows())
        assert [edge for edge, _ in edge_flows] == [(u, v) for u, v, _ in t.edges], label
        assert dict(edge_flows) == dense.edge_flow, label
        assert {edge: flow_class(phi) for edge, phi in edge_flows} == dense.classification, label
        assert {e: ff.flow_to_end(e) for e in t.ends} == dense.end_flow, label
        assert {x: ff.out.get(x, 0) for x in t.vertices} == dense.vertex_flow, label
        assert {x: ff.specific.get(x, 0) for x in t.vertices} == dense.specific_flow, label
        assert specific_flow_second_moment(t, ff) == oracle_flows.specific_flow_second_moment(t, dense)
        for u, v, _length in t.edges:
            for tail, head in ((u, v), (v, u)):
                assert ff.flow(tail, head) == dense.flow(tail, head), f"{label}: ({tail}, {head})"
        for end_id, attach in t.ends.items():
            assert ff.flow(attach, end_id) == dense.flow(attach, end_id) == ff.flow_to_end(end_id)
            assert ff.flow(end_id, attach) == dense.flow(end_id, attach)
        # Two vertices that share no edge, and an end away from its attach vertex.
        far = [v for v in t.vertices if v != t.base and v not in dict(t.adjacency[t.base])]
        misses = [(t.base, t.base)] + [(t.base, v) for v in far[:1]]
        misses += [(v, e) for e, a in list(t.ends.items())[:1] for v in t.vertices if v != a][:1]
        for tail, head in misses:
            for field in (ff, dense):
                with pytest.raises(DomainError, match="no edge between"):
                    field.flow(tail, head)
        checked += 1
        coprime += label == "coprime" and len(minus.support) > 1 and len(plus.support) > 1
    assert checked >= 150 and coprime >= 10


def test_dot_labels_and_colours_match_dense_oracle():
    colour = {"positive": "red", "neutral": "gray", "negative": "blue"}
    checked = 0
    for label, (t, minus, plus) in _dense_oracle_instances():
        lines = set(tree_to_dot(t, compute_flow_field(t, minus, plus)).splitlines())
        dense = oracle_flows.compute_flow_field(t, minus, plus)
        for (u, v), phi in dense.edge_flow.items():
            cls = colour[dense.classification[(u, v)]]
            assert f'  "{u}" -- "{v}" [label="{u}->{v}: {phi}", color={cls}];' in lines, label
        for e, phi in dense.end_flow.items():
            cls = colour[flow_class(phi)]
            assert f'  "{t.attach(e)}" -- "end:{e}" [label="out: {phi}", color={cls}, style=dashed];' in lines, label
        checked += 1
    assert checked >= 150
