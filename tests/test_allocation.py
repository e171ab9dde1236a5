"""Blocks, feature allocations, projection, size tallies, text format."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from gea import fixedpoint as fp
from gea.allocation import (
    Block,
    FeatureAllocation,
    cod,
    format_allocation_text,
    parse_allocation_text,
    project,
)

from helpers import random_allocation


# --- Block ----------------------------------------------------------------


def test_block_size_sums_weights_exactly():
    b = Block.from_weights({0: 1.0, 2: 2.0, 5: 0.5, 6: 0.3})
    assert b.size_scaled == 3_800_000  # 3.8 exactly
    assert fp.format_decimal(b.size_scaled) == "3.8"


def test_block_entries_sorted_and_validated():
    b = Block({5: fp.SCALE, 1: 2 * fp.SCALE})
    assert tuple(b.entries) == (1, 5)
    with pytest.raises(ValueError):
        Block({})
    with pytest.raises(ValueError):
        Block({0: 0})
    with pytest.raises(ValueError):
        Block({0: -fp.SCALE})
    with pytest.raises(ValueError):
        Block({-1: fp.SCALE})
    with pytest.raises(ValueError):
        Block({0: 1.5})  # plain numbers must go through from_weights


# --- FeatureAllocation ------------------------------------------------------


def test_allocation_validates_element_range_and_r():
    b = Block.from_weights({6: 1})
    FeatureAllocation(7, (b,), fp.SCALE)
    with pytest.raises(ValueError):
        FeatureAllocation(6, (b,), fp.SCALE)
    with pytest.raises(ValueError):
        FeatureAllocation(7, (b,), 0)
    with pytest.raises(ValueError):
        FeatureAllocation(-1, (), fp.SCALE)


def test_allocation_rejects_values_beyond_int64():
    # the largest int64 is accepted as a block size, n and r; one unit more
    # is rejected, and a block size over the limit, whether from one weight
    # or summed over several, names the block
    top = 2**63 - 1
    FeatureAllocation(2, (Block({0: top}),), fp.SCALE)
    with pytest.raises(ValueError, match="block 1: size"):
        FeatureAllocation(2, (Block({0: 1}), Block({0: top, 1: 1})), fp.SCALE)
    with pytest.raises(ValueError, match="block 0: size"):
        FeatureAllocation(1, (Block({0: top + 1}),), fp.SCALE)
    FeatureAllocation(top, (), top)
    with pytest.raises(ValueError, match="element count"):
        FeatureAllocation(top + 1, (), fp.SCALE)
    with pytest.raises(ValueError, match="recurrence base"):
        FeatureAllocation(2, (), top + 1)


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
    assert cod(FeatureAllocation(3, ())).counts == ()


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
