"""Feature allocations and their CSR arrays, projection, size tallies, text format."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gea import fixedpoint as fp
from gea.allocation import (
    FeatureAllocation,
    cod,
    format_allocation_text,
    parse_allocation_text,
    project,
)

from helpers import random_allocation


# --- blocks as arrays ---------------------------------------------------------


def test_block_size_sums_weights_exactly():
    g = FeatureAllocation.from_weights(7, [{0: 1.0, 2: 2.0, 5: 0.5, 6: 0.3}])
    assert g.sizes.tolist() == [3_800_000]  # 3.8 exactly
    assert fp.format_decimal(int(g.sizes[0])) == "3.8"


def test_block_entries_sorted_and_validated():
    g = FeatureAllocation.from_weights(6, [{5: 1, 1: 2}])
    assert g.indptr.tolist() == [0, 2]
    assert g.elems.tolist() == [1, 5] and g.weights.tolist() == [2 * fp.SCALE, fp.SCALE]
    assert tuple(g.blocks[0].entries) == (1, 5)
    for arr in (g.indptr, g.elems, g.weights, g.sizes):
        with pytest.raises(ValueError):  # read-only
            arr[0] = 1
    for bad in ({}, {0: 0}, {0: -1}, {-1: 1}):
        with pytest.raises(ValueError):
            FeatureAllocation.from_weights(6, [bad])
    # the constructor checks arrays it is given the same way
    assert FeatureAllocation(6, [0, 2], [1, 5], [2 * fp.SCALE, fp.SCALE]) == g
    one = fp.SCALE
    for indptr, elems, weights in [
        ([0, 0], [], []),  # an empty block
        ([1, 1], [0], [one]),
        ([0, 1], [0, 1], [one, one]),  # entries past the last block
        ([0, 1], [0], [0]),
        ([0, 1], [0], [-one]),
        ([0, 1], [-1], [one]),
        ([0, 2], [5, 1], [one, one]),  # not ascending
        ([0, 2], [1, 1], [one, one]),  # a repeat, not folded
        ([0, 1], [0], [1.5]),  # plain numbers must go through from_weights
    ]:
        with pytest.raises(ValueError):
            FeatureAllocation(6, indptr, elems, weights)


# --- FeatureAllocation ------------------------------------------------------


def test_allocation_validates_element_range_and_r():
    b = [{6: 1}]
    FeatureAllocation.from_weights(7, b)
    with pytest.raises(ValueError):
        FeatureAllocation.from_weights(6, b)
    with pytest.raises(ValueError):
        FeatureAllocation(7, [0, 1], [6], [fp.SCALE], 0)
    with pytest.raises(ValueError):
        FeatureAllocation.from_weights(-1, [])


def test_allocation_rejects_values_beyond_int64():
    # the largest int64 is accepted as a block size, n and r; one unit more
    # is rejected, and a block size over the limit, whether from one weight
    # or summed over several, names the block
    top = 2**63 - 1
    FeatureAllocation(2, [0, 1], [0], [top], fp.SCALE)
    with pytest.raises(ValueError, match="block 1: size"):
        FeatureAllocation(2, [0, 1, 3], [0, 0, 1], [1, top, 1], fp.SCALE)
    with pytest.raises(ValueError, match="block 0: size"):
        FeatureAllocation.from_weights(1, [{0: fp.to_fraction(top + 1)}])
    # five weights of 2**62 units wrap to 2**62 in int64 sums, a valid size
    with pytest.raises(ValueError, match="block 0: size 23058430092136.93952 exceeds"):
        FeatureAllocation(5, [0, 5], range(5), [2**62] * 5)
    FeatureAllocation(top, [0], [], [], top)
    with pytest.raises(ValueError, match="element count"):
        FeatureAllocation(top + 1, [0], [], [], fp.SCALE)
    with pytest.raises(ValueError, match="recurrence base"):
        FeatureAllocation(2, [0], [], [], top + 1)


def test_allocation_r_is_exact():
    g = FeatureAllocation.from_weights(3, [{0: 1}], r="2.0")
    assert g.r_scaled == 2 * fp.SCALE


# --- project ----------------------------------------------------------------


def fixture_f():
    # {{1,3,6,7},{2},{4,5},{5}} over 7 elements (1-based notation)
    return parse_allocation_text("n=7 r=1.0\n1 3 6 7\n2\n4 5\n5\n")


def test_project_restricts_and_reindexes():
    g = fixture_f()
    sub = project(g, [3, 4])  # elements 4 and 5, 1-based
    assert sub.n == 2
    assert [b.entries for b in sub.blocks] == [
        {0: fp.SCALE, 1: fp.SCALE},
        {1: fp.SCALE},
    ]
    assert sub.r_scaled == g.r_scaled


def test_project_identity_on_full_universe():
    g = fixture_f()
    sub = project(g, range(7))
    assert sub == g


def test_project_discards_emptied_blocks():
    g = fixture_f()
    sub = project(g, [1])  # element 2: appears only in its singleton block
    assert len(sub.blocks) == 1
    assert sub.blocks[0].entries == {0: fp.SCALE}


def test_project_rejects_bad_subsets():
    g = fixture_f()
    with pytest.raises(ValueError):
        project(g, [])
    with pytest.raises(ValueError):
        project(g, [7])
    with pytest.raises(ValueError):
        project(g, [-1])


# --- cod ----------------------------------------------------------------------


def test_cod_counts_blocks_by_minimum_size():
    g = fixture_f()  # sizes 4, 1, 2, 1
    dist = cod(g)
    assert dist.counts == (4, 2, 1, 1)
    assert dist.phi(1) == 4
    assert dist.phi(4) == 1
    assert dist.phi(5) == 0
    with pytest.raises(ValueError):
        dist.phi(0)


def test_cod_is_nonincreasing_on_random_input():
    rng = random.Random(4)
    for _ in range(30):
        lines = [
            " ".join(str(rng.randint(1, 6)) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        g = parse_allocation_text("n=6 r=1.0\n" + "\n".join(lines) + "\n")
        counts = cod(g).counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == len(g.blocks)


def test_cod_requires_integer_sizes():
    g = FeatureAllocation.from_weights(2, [{0: 0.5}])
    with pytest.raises(ValueError, match="non-integer size"):
        cod(g)


def test_cod_empty_allocation():
    assert cod(FeatureAllocation.from_weights(3, [])).counts == ()


# --- text format ----------------------------------------------------------------


EXAMPLE_TEXT = """\
# four blocks, one heavy element
n=7 r=2.0
1:1.0 3:2.0 6:0.5
2:2.1

4:0.5 5:0.3
5:0.2
"""


def test_parse_allocation_text():
    g = parse_allocation_text(EXAMPLE_TEXT)
    assert g.n == 7
    assert g.r_scaled == 2 * fp.SCALE
    assert len(g.blocks) == 4
    assert g.blocks[0].entries == {0: fp.SCALE, 2: 2 * fp.SCALE, 5: 500_000}
    assert g.blocks[3].entries == {4: 200_000}


def test_parse_bare_tokens_fold_into_multiset_weights():
    g = parse_allocation_text("n=7 r=1.0\n1 3 3 6 7\n")
    (b,) = g.blocks
    assert b.entries == {0: fp.SCALE, 2: 2 * fp.SCALE, 5: fp.SCALE, 6: fp.SCALE}


def test_parse_mixed_tokens_fold_by_summing():
    g = parse_allocation_text("n=2 r=1.0\n1:0.5 1:0.25 2\n")
    (b,) = g.blocks
    assert b.entries == {0: 750_000, 1: fp.SCALE}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1:1.0\n", "header"),
        ("n=3 r=0.0\n1\n", "positive"),
        ("n=3 r=1.0\n4\n", "line 2: element 4 outside 1..3"),
        ("n=3 r=1.0\n0:1.0\n", "element 0 outside"),
        ("n=3 r=1.0\n1:abc\n", "malformed token"),
        ("n=3 r=1.0\nx\n", "malformed token"),
        ("n=3 r=1.0\n\u00b2:1.0\n", "line 2: malformed token"),  # a digit, not decimal
        ("n=3 r=1.0\n1:-2.0\n", "non-positive weight"),
        ("n=3 r=1.0\n1:0.0\n", "non-positive weight"),
        ("n=x r=1.0\n", "header"),
        ("", "missing header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_allocation_text(text)


def test_format_is_canonical_and_round_trips():
    g = parse_allocation_text(EXAMPLE_TEXT)
    text = format_allocation_text(g)
    assert text.splitlines()[0] == "n=7 r=2.0"
    assert parse_allocation_text(text) == g
    # canonical form is a fixed point of parse/format
    assert format_allocation_text(parse_allocation_text(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_text_round_trip_random(seed):
    g = random_allocation(random.Random(seed))
    assert parse_allocation_text(format_allocation_text(g)) == g


def test_blocks_may_repeat_as_a_multiset():
    g = parse_allocation_text("n=2 r=1.0\n1 2\n1 2\n")
    assert len(g.blocks) == 2
    assert g.blocks[0] == g.blocks[1]


def random_allocation_text(rng: random.Random) -> tuple[str, list[dict], int, Fraction]:
    """A seeded allocation text with repeated elements, bare tokens, '+'
    signs, comments, blank lines, indentation and LF or CRLF endings; also
    the per-block weight maps it spells (repeats summed exactly), n and r.
    Weights have at most six decimals, so parsing rounds none of them."""
    n = rng.randint(1, 25)
    r = rng.choice(["1.0", "0.5", "+2", "1.25", ".75"])
    lines = ["# generated", "", f"n={n} r={r}"]
    maps = []
    for _ in range(rng.randint(0, 12)):
        m, toks = {}, []
        for _ in range(rng.randint(1, 10)):
            e = rng.randint(1, n)
            if rng.random() < 0.3:
                toks.append(str(e))
                w = Fraction(1)
            else:
                units = rng.randint(1, 5_000_000)
                w = Fraction(units, 1_000_000)
                whole, frac = divmod(units, 1_000_000)
                lit = rng.choice([f"{whole}.{frac:06d}", f"{whole}.{frac:06d}".rstrip("0")])
                lit = lit.rstrip(".") if rng.random() < 0.5 or frac == 0 else lit
                if whole == 0 and rng.random() < 0.5:
                    lit = lit[1:] if lit.startswith("0.") else lit
                toks.append(f"{e}:{rng.choice(['', '+'])}{lit}")
            m[e - 1] = m.get(e - 1, 0) + w
        maps.append(m)
        lines.append(rng.choice(["", " ", "\t"]) + rng.choice([" ", "  ", "\t"]).join(toks))
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "# a comment", "   "]))
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])
    return text, maps, n, Fraction(r)


def test_parser_builds_the_arrays_from_weights_builds():
    rng = random.Random(77)
    for _ in range(400):
        text, maps, n, r = random_allocation_text(rng)
        g = parse_allocation_text(text)
        expected = FeatureAllocation.from_weights(n, maps, r)
        assert g == expected
        for k in ("indptr", "elems", "weights", "sizes"):
            assert getattr(g, k).tobytes() == getattr(expected, k).tobytes()
        canonical = format_allocation_text(g)
        assert parse_allocation_text(canonical) == g
        assert format_allocation_text(parse_allocation_text(canonical)) == canonical
