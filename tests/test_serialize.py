"""``serialize.dumps`` against its oracle, the standard library.

``dumps(x)`` must equal ``json.dumps(x, sort_keys=True, indent=2) + "\\n"``
byte for byte on every value type the package emits: dicts with string
keys (empty or nested), lists, tuples, strings with any characters,
integers of any size, booleans and ``None``.  The search is
derandomized, so every run replays the same examples.  Lists of flat
rows, which ``dumps`` fills from one template, are drawn on their own,
next to the near misses that must take the recursive route.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassertree import serialize
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


# Keys with the template's own "%" and "%s" in them, besides TRICKY.
keys = st.lists(st.sampled_from(["%", "%s", "%%s", *TRICKY]) | st.characters(), max_size=3).map("".join)
flat_rows = st.lists(keys, min_size=1, max_size=4, unique=True).flatmap(
    lambda row_keys: st.lists(st.fixed_dictionaries({k: strings for k in row_keys}), min_size=1, max_size=6)
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(flat_rows, strings)
def test_flat_rows_take_the_template_and_match_json_dumps(rows, key):
    assert serialize._render_rows(rows, "") is not None
    for value in (rows, {key: rows}, [rows, rows]):
        assert dumps(value) == oracle(value)


ROWS = [{"a": "x", "b%s": "%s"}, {"a": "%", "b%s": "\u00e9"}]


@pytest.mark.parametrize(
    "value",
    [
        pytest.param([ROWS[0], {"a": "y"}], id="missing key"),
        pytest.param([ROWS[0], {"a": "y", "b%s": "z", "c": "w"}], id="extra key"),
        pytest.param([ROWS[0], {"a": "y", "c": "z"}], id="other key"),
        pytest.param([ROWS[0], {"a": 1, "b%s": "z"}], id="int value"),
        pytest.param([ROWS[0], {"a": True, "b%s": "z"}], id="bool value"),
        pytest.param([ROWS[0], {"a": None, "b%s": "z"}], id="None value"),
        pytest.param([ROWS[0], {"a": ["y"], "b%s": "z"}], id="list value"),
        pytest.param([ROWS[0], {"a": {"y": "z"}, "b%s": "z"}], id="dict value"),
        pytest.param([{"a": ("y",)}], id="tuple value, one key"),
        pytest.param([ROWS[0], "a"], id="str item"),
        pytest.param([ROWS[0], ["a", "x"]], id="list item"),
        pytest.param(["a", ROWS[0]], id="first item no dict"),
        pytest.param([{}, {}], id="empty rows"),
        pytest.param(tuple(ROWS), id="tuple of rows"),
    ],
)
def test_near_miss_rows_fall_back_and_match_json_dumps(value):
    assert serialize._render_rows(value, "") is None
    assert dumps(value) == oracle(value)
    assert dumps([value]) == oracle([value])


def test_rows_on_the_template_match_json_dumps():
    assert serialize._render_rows(ROWS, "") is not None
    assert dumps({"rows": ROWS}) == oracle({"rows": ROWS})


@pytest.mark.parametrize("value", [[{1: "a"}], [{"a": "x"}, {1: "y"}], [{"a": "x"}, {"a": 1.5}]])
def test_rows_with_other_types_are_refused(value):
    with pytest.raises(TypeError):
        dumps(value)
