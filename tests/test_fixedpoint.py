"""Fixed-point weight representation."""
import math
from fractions import Fraction

import pytest

from gea import fixedpoint as fp


def test_scale_is_one_millionth():
    assert fp.SCALE == 10**6


@pytest.mark.parametrize(
    "value,scaled",
    [
        (1, 1_000_000),
        (0, 0),
        (3.8, 3_800_000),
        (0.5, 500_000),
        (Fraction(1, 3), 333_333),  # rounds to nearest
        (Fraction(2, 3), 666_667),
        ("2.1", 2_100_000),
        (-1.5, -1_500_000),
    ],
)
def test_from_number(value, scaled):
    assert fp.from_number(value) == scaled


def test_from_number_rounds_half_away_from_zero():
    assert fp.from_number(Fraction(1, 2_000_000)) == 1
    assert fp.from_number(Fraction(-1, 2_000_000)) == -1
    assert fp.from_number(Fraction(1, 2_000_001)) == 0


def test_from_number_rejects_junk():
    with pytest.raises(ValueError):
        fp.from_number("not a number")
    with pytest.raises(ValueError):
        fp.from_number(float("nan"))


@pytest.mark.parametrize("text,scaled", [("3.8", 3_800_000), ("2", 2_000_000), (".5", 500_000), ("+0.25", 250_000)])
def test_from_decimal(text, scaled):
    assert fp.from_decimal(text) == scaled


@pytest.mark.parametrize("text", ["", "1/2", "1e3", "2.", "0x10", "1.2.3", "nan"])
def test_from_decimal_rejects_non_decimals(text):
    with pytest.raises(ValueError):
        fp.from_decimal(text)


def test_conversions():
    assert fp.to_fraction(500_000) == Fraction(1, 2)
    assert fp.is_integral(2_000_000)
    assert not fp.is_integral(2_000_001)


@pytest.mark.parametrize(
    "scaled,text",
    [
        (1_000_000, "1.0"),
        (3_800_000, "3.8"),
        (578_704, "0.578704"),
        (2_100_000, "2.1"),
        (0, "0.0"),
        (-1_500_000, "-1.5"),
        (10, "0.00001"),
    ],
)
def test_format_decimal(scaled, text):
    assert fp.format_decimal(scaled) == text


def test_format_parse_round_trip():
    for scaled in (1, 7, 999_999, 1_000_000, 123_456_789, 5):
        assert fp.from_decimal(fp.format_decimal(scaled)) == scaled


def test_float_round_trip_at_six_decimals():
    for x in (0.1, 0.578704, 12.000001, 3.8):
        assert math.isclose(fp.from_number(x) / fp.SCALE, x, abs_tol=5e-7)
