"""``parse_fraction`` against the all-``Fraction`` route it shortcuts.

Plain ASCII ``[-]digits[/digits]`` strings are read by ``int``; every
input must give the same ``Fraction``, or a ``ParseError`` with the same
message, as ``tests/oracles/rationals.py``.  The search is derandomized,
so every run replays the same examples.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassertree import ParseError, parse_fraction

from oracles import rationals as oracle

ALPHABET = "0123456789-+/._ e٣"


def _outcome(parse, value):
    try:
        result = parse(value)
    except ParseError as exc:
        return "error", str(exc)
    assert type(result) is Fraction
    return "value", result


def _same(value):
    assert _outcome(parse_fraction, value) == _outcome(oracle.parse_fraction, value), repr(value)


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=12))
def test_strings_parse_like_fraction(text):
    _same(text)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(
    st.sampled_from(["", "-", "+", " "]),
    st.integers(min_value=0, max_value=10**40),
    st.sampled_from(["", "/", "/-", "/+", " / ", "."]),
    st.integers(min_value=0, max_value=10**40),
)
def test_signed_ratios_parse_like_fraction(sign, num, sep, den):
    _same(f"{sign}{num}{sep}{den}" if sep else f"{sign}{num}")


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "text",
    [
        "1/0",
        "-0/0",
        "7/00",
        "0",
        "-0",
        "007/010",
        "3/4/5",
        "1//2",
        "/2",
        "-/2",
        "--1",
        "1/-2",
        "1/+2",
        "٣/4",
        "3/٤",
        "²",
        "1²/2",
        "1_000/3",
        "1.5",
        " 3/4 ",
        "1e5",
        "9" * (LIMIT + 1),
        "-" + "9" * (LIMIT + 1),
        "1/" + "9" * (LIMIT + 1),
        "9" * (LIMIT + 1) + "/0",
        "9" * LIMIT + "/" + "7" * LIMIT,
    ],
)
def test_edge_strings_parse_like_fraction(text):
    _same(text)


def test_past_the_int_to_str_limit_is_a_parse_error():
    text = "1" * (LIMIT + 1) + "/3"
    with pytest.raises(ParseError) as caught:
        parse_fraction(text)
    assert str(caught.value) == f"not a rational: {text!r}"
    with pytest.raises(ParseError, match=r"not a rational: '1/0'$"):
        parse_fraction("1/0")
