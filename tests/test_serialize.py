"""``serialize.dumps`` against its oracle, the standard library.

``dumps(x)`` must equal ``json.dumps(x, sort_keys=True, indent=2) + "\\n"``
byte for byte on every value type the package emits: dicts with string
keys (empty or nested), lists, tuples, strings with any characters,
integers of any size, booleans and ``None``.  The search is
derandomized, so every run replays the same examples.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassertree.serialize import dumps

# Quotes, backslashes, control characters, non-ASCII and astral
# characters, on top of whatever ``st.characters()`` draws.
TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "/"]
strings = st.text(st.sampled_from(TRICKY) | st.characters(), max_size=8)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | strings
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=20,
)


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(values)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"": ""}, 0, -(10**4000), True, None, ""],
)
def test_dumps_matches_json_dumps_on_edge_values(value):
    assert dumps(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": 0.0}, {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, [object()], {"a": {(1, 2): 3}}],
)
def test_dumps_refuses_other_types(value):
    with pytest.raises(TypeError):
        dumps(value)
