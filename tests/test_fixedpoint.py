"""Fixed-point weight representation."""
import math
import random
import re
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


# --- from_decimal against a Fraction oracle ------------------------------------

_LITERAL = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)\Z")
# ASCII, Arabic-Indic, Devanagari and fullwidth decimal digits 0-9
_DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")


def fraction_from_decimal(text: str) -> int:
    """Reference reading of a decimal literal through exact rationals: the
    value times 1e6, rounded half away from zero; a positive literal that
    rounds to 0 is rejected."""
    t = text.strip()
    if not _LITERAL.match(t):
        raise ValueError(text)
    value = Fraction(t)
    scaled = fp.from_number(value)
    if scaled == 0 and value > 0:
        raise ValueError(text)
    return scaled


def random_literal(rng: random.Random) -> str:
    digits = _DIGIT_SETS[0] if rng.random() < 0.8 else rng.choice(_DIGIT_SETS)

    def run(k):
        return "".join(rng.choice(digits) for _ in range(k))

    sign = rng.choice(["", "", "+", "-"])
    whole = rng.choice(["", "0", run(1), run(rng.randint(1, 6)), run(rng.randint(20, 30))])
    kind = rng.random()
    if kind < 0.2:
        frac = None
    elif kind < 0.4:  # an exact half at the seventh digit, or just off it
        frac = run(6) + digits[5] + rng.choice(["", "", digits[0] * 3, run(3)])
    elif kind < 0.55:  # near the rounds-to-zero boundary
        frac = digits[0] * rng.randint(6, 9) + run(rng.randint(1, 3))
        whole = rng.choice(["", digits[0]])
    else:
        frac = run(rng.randint(1, 12))
    text = sign + whole + ("" if frac is None else "." + frac)
    if rng.random() < 0.05:  # junk and near-miss syntax
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(["e", "/", ".", "x", "--", " 1", "_"]) + text[i:]
    if rng.random() < 0.05:
        text = rng.choice([" ", "\t"]) + text + rng.choice(["", " "])
    return text


def outcome(f, text):
    try:
        return f(text)
    except ValueError:
        return "raises"


@pytest.mark.parametrize(
    "text,scaled",
    [
        ("0.0000005", 1),
        ("2.5000005", 2_500_001),
        ("-2.5000005", -2_500_001),
        ("2.50000049999", 2_500_000),
        (".0000015", 2),
        ("12345678901234567890.1", 12345678901234567890_100000),
        ("٣.٥", 3_500_000),
        ("-0.0000004", 0),  # only positive literals must not round to 0
    ],
)
def test_from_decimal_rounds_half_away_from_zero_in_integers(text, scaled):
    assert fp.from_decimal(text) == scaled == fraction_from_decimal(text)


def test_from_decimal_matches_fraction_oracle():
    rng = random.Random(20240607)
    kinds = {"value": 0, "raises": 0}
    for _ in range(100_000):
        text = random_literal(rng)
        want = outcome(fraction_from_decimal, text)
        assert outcome(fp.from_decimal, text) == want, text
        kinds["raises" if want == "raises" else "value"] += 1
    assert min(kinds.values()) > 5_000
