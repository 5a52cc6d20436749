"""Helpers for exact rational values and their wire format.

All quantities in this package (edge lengths, masses, flows, costs,
times) are `fractions.Fraction` instances.  On the wire they travel as
strings like ``"3/4"`` or ``"-2"``; floats are rejected so that no
rounding can sneak into a computation.  Exponent notation (``"1e5"``)
is refused too: a short string could otherwise ask for a numerator or
denominator of any number of digits before a single check runs.  A
plain ASCII ``[-]digits[/digits]`` string, the form every report
writes, is read by two ``int`` calls; any other string goes through
``Fraction``'s own parser, with the same result or the same error.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, OversizeError, ParseError

__all__ = ["parse_fraction", "format_fraction", "decimal_string", "INFINITY"]


def parse_fraction(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction or a "p/q" string.

    A plain ASCII ``"p"``, ``"-p"``, ``"p/q"`` or ``"-p/q"`` is read
    with ``int``.  Other strings go to ``Fraction``: decimal strings
    such as ``"0.25"`` are read exactly, and exponent notation is a
    :class:`ParseError`.  A zero denominator, or more digits than
    Python's int-to-str limit, is a :class:`ParseError` on either route.
    """
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ParseError(f"not a rational: {value!r} (exponent notation is not accepted)")
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if value.isascii() and digits.isdigit() and (not slash or den.isdigit()):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    hint = " (floats are not accepted)" if isinstance(value, float) else ""
    raise ParseError(f"not a rational: {value!r}{hint}")


def _oversize() -> OversizeError:
    return OversizeError(
        f"a fraction exceeds Python's int-to-str limit of "
        f"{sys.get_int_max_str_digits()} digits"
    )


def format_fraction(value: Fraction) -> str:
    """Render a Fraction the way ``parse_fraction`` reads it back.

    Raises :class:`OversizeError` when the numerator or denominator has
    more digits than Python's int-to-str limit allows.
    """
    try:
        return str(value if isinstance(value, Fraction) else Fraction(value))
    except ValueError as exc:
        raise _oversize() from exc


def decimal_string(value: Fraction, places: int) -> str:
    """Decimal rendering with ``places`` digits after the point.

    The Fraction is rounded exactly, half to even, and the sign of
    ``value`` is kept even when it rounds to zero (``"-0.000000"``).
    A negative ``places`` is a :class:`DomainError`; a rendering with
    more digits than Python's int-to-str limit is an
    :class:`OversizeError`.
    """
    if places < 0:
        raise DomainError(f"decimal places must be nonnegative, got {places}")
    if places > sys.get_int_max_str_digits():
        raise _oversize()
    try:
        digits = str(abs(round(value * 10**places)))
    except ValueError as exc:
        raise _oversize() from exc
    return str(Decimal((int(value < 0), tuple(map(int, digits)), -places)))


class _Infinity:
    """Sentinel for the infinite Gromov product of an end with itself.

    Deliberately supports no arithmetic: it must never be mixed into a
    rational computation.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return (_Infinity, ())


INFINITY = _Infinity()
