"""``parse_fraction`` with every string read by ``Fraction``'s own parser.

The library reads a plain ASCII ``[-]digits[/digits]`` string with two
``int`` calls and sends every other string here; this route sends every
string to ``Fraction``, and exists only to be compared with the library
by exact equality of values and of error messages.
"""

from __future__ import annotations

from fractions import Fraction

from wassertree.errors import ParseError


def parse_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ParseError(f"not a rational: {value!r} (exponent notation is not accepted)")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    hint = " (floats are not accepted)" if isinstance(value, float) else ""
    raise ParseError(f"not a rational: {value!r}{hint}")
