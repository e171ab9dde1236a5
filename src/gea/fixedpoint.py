"""Exact fixed-point arithmetic for occurrence weights.

Weights and the recurrence base are stored as plain integers scaled by
``SCALE`` (10**6). Sums of weights are then exact, and tests like "is this
weight exactly equal to the recurrence base" need no tolerance.
"""
from __future__ import annotations

import re
from fractions import Fraction

SCALE = 10**6

_DECIMAL_RE = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)\Z")
# Significant digits of an integer field or a literal's whole part: int() and
# str() refuse over 4300 (naming no input line); sums of such values stay printable.
MAX_DIGITS = 4000
_ECHO = 80  # characters of an input value that an error message quotes


def cut(text: str) -> str:
    """``text`` cut to a bounded length, for quoting in an error message."""
    return text if len(text) <= _ECHO else text[:_ECHO] + "..."


def bounded_int(digits: str) -> int | None:
    """int() of a string of decimal digits, or None if it has more than
    MAX_DIGITS significant digits: checked first, as int() refuses over 4300."""
    return None if any(map(int, digits[:-MAX_DIGITS])) else int(digits[-MAX_DIGITS:])


def from_number(value) -> int:
    """Convert a number to scaled units, rounding to the nearest 1e-6.

    Accepts int, float, Fraction, Decimal, or a numeric string. Values that
    need more than six decimal places are rounded half away from zero.
    """
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot interpret {value!r} as a number") from exc
    num = frac.numerator * SCALE
    den = frac.denominator
    q, rem = divmod(abs(num), den)
    if 2 * rem >= den:
        q += 1
    return q if num >= 0 else -q


def from_decimal(text: str) -> int:
    """Parse a plain decimal literal ('3.8', '.5', '2') into scaled units with
    integers only, rounding half away from zero at the seventh decimal. A
    positive literal that rounds to 0 is an error: weights and r are > 0."""
    t = text.strip()
    if not _DECIMAL_RE.match(t):
        raise ValueError(f"not a decimal literal: {cut(text)!r}")
    whole, _, frac = t.lstrip("+-").partition(".")
    if (units := bounded_int(whole or "0")) is None:
        raise ValueError(f"{cut(t)} has more than {MAX_DIGITS} digits before the point")
    half_up = len(frac) > 6 and int(frac[6]) >= 5  # int() reads any Unicode digit
    scaled = units * SCALE + int((frac + "00000")[:6]) + half_up
    if scaled == 0 and t[0] != "-" and any(map(int, frac)):
        raise ValueError(f"{cut(t)} rounds to 0 at the 1e-6 resolution")
    return -scaled if t[0] == "-" else scaled


def format_decimal(scaled: int) -> str:
    """Canonical decimal string: trailing zeros trimmed, at least one
    fractional digit kept (1000000 -> '1.0', 3800000 -> '3.8')."""
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), SCALE)
    digits = f"{frac:06d}".rstrip("0") or "0"
    return f"{sign}{whole}.{digits}"
