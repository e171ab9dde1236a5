"""Feature allocations and their CSR arrays, size tallies, text format."""
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gea import allocation, fixedpoint as fp
from gea.allocation import (
    FeatureAllocation,
    cod,
    format_allocation_text,
    parse_allocation_text,
    parse_block_sizes,
)

from helpers import random_allocation, reference_parse_allocation_text, weighted_lines


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
    for bad in ({}, {0: 0}, {0: -1}, {-1: 1}, {2**63 - 1: 1}, {2**63: 1}):
        with pytest.raises(ValueError):
            FeatureAllocation.from_weights(6, [bad])
    # the constructor checks arrays it is given the same way
    assert FeatureAllocation(6, [0, 2], [1, 5], [2 * fp.SCALE, fp.SCALE]) == g
    assert g != "x" and (g == object()) is False  # other types compare unequal
    one = fp.SCALE
    for indptr, elems, weights in [
        ([0, 0], [], []),  # an empty block
        ([1, 1], [0], [one]),
        ([0, 1], [0, 1], [one, one]),  # entries past the last block
        ([0, 1], [0], [one, one]),  # a weight with no element
        ([0, 1], [0], [0]),
        ([0, 1], [0], [-one]),
        ([0, 1], [-1], [one]),
        ([0, 2], [5, 1], [one, one]),  # not ascending
        ([0, 2], [1, 1], [one, one]),  # a repeat, not folded
        ([0, 1], [0], [1.5]),  # plain numbers must go through from_weights
    ]:
        with pytest.raises(ValueError):
            FeatureAllocation(6, indptr, elems, weights)


def test_negative_element_in_a_later_block_is_rejected():
    # the fold's one key, block id times m plus element, would read element
    # -1 of block 1 as element m - 1 = 0 of block 0 and sum the two
    with pytest.raises(ValueError, match="outside"):
        FeatureAllocation.from_weights(3, [{0: 1}, {-1: 1}])


def test_views_given_to_the_constructor_are_copied():
    # an array that owns its data is frozen in place; a view is copied, as
    # its base stays writable
    e, w = np.array([0, 1, 2]), np.full(3, fp.SCALE)
    g = FeatureAllocation(3, np.array([0, 2, 3]), e[:], w[:])
    w[0], e[1] = -7, 0
    assert g.elems.tolist() == [0, 1, 2] and g.weights.tolist() == [fp.SCALE] * 3
    assert g.sizes.tolist() == [2 * fp.SCALE, fp.SCALE]
    ptr, el = np.array([0, 2]), np.array([0, 2])
    h = FeatureAllocation(3, ptr, el, np.full(2, fp.SCALE))
    assert h.indptr is ptr and h.elems is el and not el.flags.writeable


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


# --- cod ----------------------------------------------------------------------


def fixture_f():
    # {{1,3,6,7},{2},{4,5},{5}} over 7 elements (1-based notation)
    return parse_allocation_text(b"n=7 r=1.0\n1 3 6 7\n2\n4 5\n5\n")


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
        g = parse_allocation_text(("n=6 r=1.0\n" + "\n".join(lines) + "\n").encode())
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
    g = parse_allocation_text(EXAMPLE_TEXT.encode())
    assert g.n == 7
    assert g.r_scaled == 2 * fp.SCALE
    assert len(g.blocks) == 4
    assert g.blocks[0].entries == {0: fp.SCALE, 2: 2 * fp.SCALE, 5: 500_000}
    assert g.blocks[3].entries == {4: 200_000}


@pytest.mark.parametrize("parse", [parse_allocation_text, parse_block_sizes])
def test_rebased_sets_r_on_a_copy_that_shares_the_arrays(parse):
    g = parse(EXAMPLE_TEXT.encode())
    h = allocation.rebased(g, 1_500_000)
    assert (h.n, h.r_scaled, g.r_scaled) == (7, 1_500_000, 2 * fp.SCALE)
    for k in ("indptr", "elems", "weights", "sizes"):
        if hasattr(g, k):
            assert getattr(h, k) is getattr(g, k)
    with pytest.raises(ValueError, match="recurrence base must be positive and at most"):
        allocation.rebased(g, 2**63)
    assert g.r_scaled == 2 * fp.SCALE


def test_parse_bare_tokens_fold_into_multiset_weights():
    g = parse_allocation_text(b"n=7 r=1.0\n1 3 3 6 7\n")
    (b,) = g.blocks
    assert b.entries == {0: fp.SCALE, 2: 2 * fp.SCALE, 5: fp.SCALE, 6: fp.SCALE}


def test_parse_mixed_tokens_fold_by_summing():
    g = parse_allocation_text(b"n=2 r=1.0\n1:0.5 1:0.25 2\n")
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
        ("# c\nn=9223372036854775808 r=1.0\n", "^line 2: element count must be an int in "
         r"\[0, 2\*\*63\), got 9223372036854775808$"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_allocation_text(text.encode())


def test_format_is_canonical_and_round_trips():
    g = parse_allocation_text(EXAMPLE_TEXT.encode())
    text = format_allocation_text(g)
    assert text.splitlines()[0] == "n=7 r=2.0"
    assert parse_allocation_text(text.encode()) == g
    # canonical form is a fixed point of parse/format
    assert format_allocation_text(parse_allocation_text(text.encode())) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_text_round_trip_random(seed):
    g = random_allocation(random.Random(seed))
    assert parse_allocation_text(format_allocation_text(g).encode()) == g


def test_blocks_may_repeat_as_a_multiset():
    g = parse_allocation_text(b"n=2 r=1.0\n1 2\n1 2\n")
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
        g = parse_allocation_text(text.encode())
        expected = FeatureAllocation.from_weights(n, maps, r)
        assert g == expected
        for k in ("indptr", "elems", "weights", "sizes"):
            assert getattr(g, k).tobytes() == getattr(expected, k).tobytes()
        canonical = format_allocation_text(g)
        assert parse_allocation_text(canonical.encode()) == g
        assert format_allocation_text(parse_allocation_text(canonical.encode())) == canonical


# --- the vectorized parser against the per-token reference ------------------------

LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]  # whitespace that breaks no line
ZEROS = "\u0660\u0966\uff10"  # Arabic-Indic, Devanagari and fullwidth digit zero
INT64_MAX = 2**63 - 1
FILLER = ["", " ", "\t\u3000", "#", "# comment", "  \t# caf\u00e9 \u0663 1:2 \u2211", "\xa0#1:x"]
BAD_TOKENS = [
    "1:", ":1", "1::2", "1:2:3", "1:-0", "1:0.0000004", "1:-0.0000004", "1:.0000004", "1:-2",
    "1:0", "1:0.0", "1:1e3", "1:2.", "1:.", "1:+", "1:+.", "1:+-1", "1:2.5+", "1:2.5.6", "1.:2",
    "x", "1.5", "+1", "-1", "#1", "\u00b2", "1:\u00bd", "1:0x10", "1:1/2", "1:\x00", "\u00e9",
    "1:\u200b2",
]


def outcome(parse, text):
    """All a parse gives: the allocation's fields and arrays as bytes, or the
    message of its ValueError."""
    try:
        g = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.n, g.r_scaled, *(getattr(g, k).tobytes() for k in ("indptr", "elems", "weights", "sizes"))


def sizes_outcome(parse, text):
    """What an entropy reads of a parse: n, the recurrence base and the block
    sizes as bytes, or the message of its ValueError."""
    try:
        g = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.n, g.r_scaled, g.sizes.tobytes()


def unicode_digits(rng, text):
    """``text`` with about half its ASCII digits in one other script."""
    zero = ord(rng.choice(ZEROS))
    return "".join(
        chr(zero + int(c)) if "0" <= c <= "9" and rng.random() < 0.5 else c for c in text
    )


def random_weight(rng):
    kind = rng.random()
    if kind < 0.55:  # at most six decimals, trailing zeros and the leading 0 optional
        whole, frac = divmod(rng.randint(1, 20_000_000), fp.SCALE)
        lit = f"{whole}.{frac:06d}"
        lit = lit.rstrip("0").rstrip(".") if rng.random() < 0.5 else lit
        return lit[1:] if lit.startswith("0.") and rng.random() < 0.5 else lit
    if kind < 0.75:  # seven or more decimals, with exact half ties
        tail = rng.choice(["5", "4", "6", "9", "50", "49999", "50001", "5000000", "0000001"])
        return f"{rng.randint(0, 99)}.{rng.randint(0, 999_999):06d}{tail}"
    if kind < 0.78:  # around the 12 digits the byte pass reads, and beyond int64
        return rng.choice([
            str(rng.randint(10**11, 10**13)), f"{rng.randint(10**11, 10**12)}.{rng.randint(0, 99)}",
            "999999999999.9999995", "9223372036854.775807", "9223372036854.775808",
            "4611686018427.387904", str(rng.randint(10**19, 10**30)),
        ])
    if kind < 0.9:  # a '+' sign and leading zeros
        return rng.choice(["+", ""]) + "0" * rng.randint(1, 20) + rng.choice(["1", "7", ".5", "2.25"])
    return rng.choice(["1", "2", ".5", "+.5", "+3", "0.000001", "0.0000005", "0.00000050"])


def random_element(rng, n):
    e = rng.randint(1, n) if rng.random() < 0.8 else rng.randint(1, min(n, 30))
    return "0" * rng.choice([0, 0, 0, 1, rng.randint(2, 22)]) + str(e)


def random_parser_text(rng):
    """A seeded allocation text that mixes every line break, whitespace,
    comment, digit script, literal form and bad token the parser meets."""
    n = rng.choice([rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 10**18), INT64_MAX, 0])
    bad = rng.choice([0, 0, 0.01, 0.05, 0.3])
    lines = [rng.choice(FILLER) for _ in range(rng.randint(0, 2))]
    r = rng.choice(["1.0", "0.5", "+2", ".75", "1.2500005", "\u0662"])
    r = rng.choice(["0", "0.0000004", "1e3", "9" * 20]) if rng.random() < 0.1 else r
    header = f"n={n}{rng.choice(SPACES)}r={r}"
    if rng.random() < 0.05:
        header = rng.choice(["n=x r=1", "n=3", "1:1.0", "n=-1 r=1", f"n={n} r=1 x"])
    lines.append(rng.choice(["", " ", "\t"]) + header + rng.choice(["", " ", "\u3000"]))
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.2:
            lines.append(rng.choice(FILLER))
        toks = []
        for _ in range(rng.randint(1, 8)):
            if n and rng.random() >= bad:
                tok = random_element(rng, n)
                tok += f":{random_weight(rng)}" if rng.random() < 0.7 else ""
            else:
                tok = rng.choice(BAD_TOKENS + [f"{n + 1}:1", "0:1", "1" * 25])
            toks.append(unicode_digits(rng, tok) if rng.random() < 0.05 else tok)
        seps = [rng.choice(SPACES) * rng.randint(1, 2) for _ in toks]
        lines.append(rng.choice(["", " ", "\xa0"]) + "".join(s + t for s, t in zip(seps, toks))[len(seps[0]):])
    breaks = [rng.choice(LINE_BREAKS) for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks))[: None if rng.random() < 0.8 else -1]


def test_parser_matches_the_per_token_reference():
    # same arrays byte for byte, or the same error message; small byte
    # windows put piece edges inside lines and between a bad token and its
    # line. parse_block_sizes gives the same sizes, or the same message. At
    # windows of 24 and 8 bytes blocks span pieces, so the block sizes are
    # summed across piece edges.
    rng = random.Random(2024)
    kinds = {"parsed": 0, "parsed non-ASCII": 0, "raised": 0, "block size": 0}
    for i in range(2_400):
        text = random_parser_text(rng)
        want = outcome(reference_parse_allocation_text, text)
        sizes = sizes_outcome(reference_parse_allocation_text, text)
        data = text.encode()
        for chunk in [allocation._CHUNK_BYTES] + [24] * (i % 4 == 0) + [8] * (i % 20 == 0):
            with mock.patch.object(allocation, "_CHUNK_BYTES", chunk):
                assert outcome(parse_allocation_text, data) == want, (chunk, text)
                assert sizes_outcome(parse_block_sizes, data) == sizes, (chunk, text)
        if isinstance(want, str):
            kinds["raised"] += 1
            kinds["block size"] += "exceeds the largest supported block size" in want
        else:
            kinds["parsed"] += 1
            kinds["parsed non-ASCII"] += not text.isascii()
    assert min(kinds.values()) >= 100, kinds


@pytest.mark.parametrize("parse, seen", [(parse_allocation_text, outcome),
                                         (parse_block_sizes, sizes_outcome)])
def test_non_ascii_bytes_parse_as_their_text(parse, seen):
    # bytes that are not ASCII are decoded and parse as the reference parses the text
    text = "# caf\u00e9\nn=4 r=1.0\u3000\n1:2\u20282\xa03:0.5\x85\n4 \u0663\n"
    assert seen(parse, text.encode()) == seen(reference_parse_allocation_text, text)
    assert not isinstance(seen(parse, text.encode()), str)  # it parses
    # a bad byte's line counts every break str.splitlines knows: \r\n as one,
    # U+2028 and U+0085 as well
    assert seen(parse, b"n=2 r=1.0\n1 \xff\n") == "line 2: not valid UTF-8 (byte 0xff)"
    assert seen(parse, b"n=2 r=1.0\r\n1\xe2\x80\xa82\xc2\x85\xff\n") == (
        "line 4: not valid UTF-8 (byte 0xff)"
    )


FRAGMENTS = st.sampled_from([
    "0", "1", "2", "3", "7", "10", "\u0663", "\uff11", "\u00b2", ":", ":", "::", ".", "+", "-",
    "5", "000000000000000000001", "99999999999999999999", "e", "#", "\x00", "\u00e9",
])
# messages quote at most 80 characters of a token, the reference all of it
TOKENS = st.lists(FRAGMENTS, min_size=1, max_size=6).map("".join).filter(lambda t: len(t) <= 80)
SEPARATORS = st.sampled_from(SPACES + ["  "])


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([0, 1, 3, 10, 10**18, INT64_MAX]),
    lines=st.lists(st.tuples(st.lists(st.tuples(SEPARATORS, TOKENS), max_size=6),
                             st.sampled_from(LINE_BREAKS)), max_size=6),
    chunk=st.sampled_from([8, 16, 2**15]),
)
def test_parser_matches_the_reference_on_any_tokens(n, lines, chunk):
    text = f"n={n} r=1.0\n" + "".join(
        "".join(sep + tok for sep, tok in toks) + brk for toks, brk in lines
    )
    want = outcome(reference_parse_allocation_text, text)
    with mock.patch.object(allocation, "_CHUNK_BYTES", chunk):
        assert outcome(parse_allocation_text, text.encode()) == want


@pytest.mark.parametrize("blocks, lexsorted", [(1, False), (2, False), (3, True)])
def test_fold_sorts_by_one_key_unless_it_would_pass_int64(blocks, lexsorted):
    # element 2**62 of n = 2**62 in every block: the fold's key, block id
    # times 2**62 plus element, reaches 2**63 - 1 in the second block and
    # would pass int64 in the third, so there the fold lexsorts instead
    big = 2**62
    text = f"n={big} r=1.0\n" + f"{big}:2 3 {big} 1:0.5 3\n" * blocks
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        g = parse_allocation_text(text.encode())
    assert spy.called == lexsorted
    assert g == reference_parse_allocation_text(text)
    assert g.indptr.tolist() == list(range(0, 3 * blocks + 1, 3))
    assert g.elems.tolist() == [0, 2, big - 1] * blocks
    assert g.weights.tolist() == [fp.SCALE // 2, 2 * fp.SCALE, 3 * fp.SCALE] * blocks


def test_chunk_edges_inside_and_between_lines():
    size = allocation._CHUNK_BYTES // 8
    rng = random.Random(5)
    long_line = weighted_lines(rng, 1, width=(2 * size + 5,) * 2)[0]
    sevens = weighted_lines(rng, size // 7 + 3, width=(7, 7))  # a chunk edge falls inside a line
    # tokens of 1 to 5 bytes over more than two windows: a piece holds more
    # than size of them
    short = [" ".join(f"{rng.randint(1, 50)}{rng.choice(['', ':2'])}" for _ in range(8 * size))]
    assert len(short[0]) > 2 * allocation._CHUNK_BYTES
    for body in ([long_line], sevens, [long_line] + sevens, sevens + [long_line], short):
        text = "n=50 r=1.0\n" + "\n".join(body) + "\n"
        data = text.encode()
        g = parse_allocation_text(data)
        assert outcome(parse_allocation_text, data) == outcome(reference_parse_allocation_text, text)
        assert sizes_outcome(parse_block_sizes, data) == sizes_outcome(parse_allocation_text, data)
        assert len(g.indptr) == len(body) + 1


@pytest.mark.parametrize("bad", ["7:x", "\u0663:1.5x", "51"])
def test_bad_token_in_a_later_chunk_names_its_line(bad):
    size = allocation._CHUNK_BYTES // 8
    rng = random.Random(6)
    lines = weighted_lines(rng, size // 3 + 20, width=(3, 3))
    toks = lines[-5].split()
    toks[1] = bad  # in the second chunk, mid-line
    lines[-5] = " ".join(toks)
    long_line = weighted_lines(rng, 1, width=(size + 10,) * 2)[0].split()
    long_line[size + 3] = bad  # in the long line's second chunk
    for body, where in ((lines, len(lines) - 3), ([" ".join(long_line)], 2)):
        text = "n=50 r=1.0\n" + "\n".join(body) + "\n"
        with pytest.raises(ValueError, match=f"^line {where}: ") as exc:
            parse_allocation_text(text.encode())
        assert str(exc.value) == outcome(reference_parse_allocation_text, text)


@pytest.mark.parametrize("width", [1, 3, allocation._CHUNK_BYTES // 8])
@pytest.mark.parametrize("bad", [None, "4:x"])
def test_every_line_break_over_a_long_text(bad, width):
    # over two windows of 8-byte tokens, every break str.splitlines knows,
    # blank and comment lines among them, keeps each line's number; windows
    # as wide as 1, 3 and _CHUNK_BYTES // 8 such tokens
    rng = random.Random(9)
    body = []
    for _ in range(150):
        for brk in LINE_BREAKS:
            body += [weighted_lines(rng, 1, n=9, width=(1, 3))[0], brk, brk, "\n", "# 1:x", brk]
            body += ["2", brk, "\n", brk, " 3:0.5\t1 ", "\n"]
    body.insert(len(body) // 2 + 1, f"5 {bad}\n" if bad else "")
    text = "n=9 r=1.0\n" + "".join(body)
    assert len(text.split()) > 2 * (allocation._CHUNK_BYTES // 8)
    want = outcome(reference_parse_allocation_text, text)
    assert isinstance(want, str) == bool(bad)
    with mock.patch.object(allocation, "_CHUNK_BYTES", 8 * width):
        assert outcome(parse_allocation_text, text.encode()) == want


LONG = "123456789012345678:123456789012.123456"  # certified, and longer than 24 bytes
PIECE_EDGES = {
    "inside the header line": [
        "n=9 r=1.0\n1 2\n",
        "# a b c d e f\n  n=000000009 \t\x1f r=0001.250000  \n1 2:0.5\n",
        "\n\n n=9\u3000\u3000\u3000\u3000r=\u0662.5\u2028 3\n",
        "n=9 r=1.0 x y z\n1\n",
        "n=9                      r=1.0",
    ],
    "inside a comment line": [
        "n=9 r=1.0\n1 2\n# 3 4 5 6 7 8 9 1:x\n5 6\n  # 1\n\t#x 1 2 3\n7\n# 8 9 without a break",
        "# 1 2 3 4 5 6 7 8\nn=9 r=1.0\n#\n# 1:x 2:x 3:x 4:x 5:x\n1 2#\n",
        "n=9 r=1.0\n" + "# 1 2 3\n1:0.5 2 3\n" * 9 + "4:x\n",
    ],
    "between \\r and \\n": [  # each with and without a bad token at the end
        *("n=9 r=1.0\r\n" + "".join(f"1{' ' * pad}2\r\n" for pad in range(1, 30)) + end
          for end in ("3 4\r\n", "3 4:x\r\n")),
        *("n=9 r=1.0\r\n" + "".join(f"{'5 ' * k}6\r\r\n\n\r" for k in range(12)) + end
          for end in ("\r\n 7", "\r\n 7:x")),
    ],
    "before a run of blank lines": [
        *("n=9 r=1.0\n1 2 3\n\n\n\n \n\t\n4 5 6\n\n\n\n" + "\n" * 30 + end for end in ("7\n", "7:x\n")),
        *("n=9 r=1.0\n" + "".join(f"{k}\n" + "\n \x1c\u2029" * k for k in range(1, 10)) + end
          for end in ("1", "1:x")),
    ],
    "inside a token longer than a piece's byte window": [
        f"n=999999999999999999 r=1.0\n{LONG} 1 {LONG}\n{LONG}\n7 {LONG}",
        "n=9 r=1.0\n1 0000000000000000000000000000001:1 2:0000000000000000000000000.5\n3",
        "n=9 r=1.0\n1\n2 1:" + "9" * 40 + " 3\n",
        "n=9 r=1.0\n1\n2 3 " + "1:" + "7" * 40 + "x\n",
    ],
}


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("where", PIECE_EDGES)
def test_piece_edges(where, width):
    # windows as wide as 1 and 3 tokens of 8 bytes, 8 and 24 bytes, put
    # piece edges at every kind of place in these texts
    for text in PIECE_EDGES[where]:
        want = outcome(reference_parse_allocation_text, text)
        with mock.patch.object(allocation, "_CHUNK_BYTES", 8 * width):
            assert outcome(parse_allocation_text, text.encode()) == want, text


def test_unicode_whitespace_table_is_this_pythons():
    # every non-ASCII character str.split() splits at maps to ASCII
    # whitespace, a line break of str.splitlines to \x1e, which stays one
    # break after a \r, as \x85, \u2028 and \u2029 do, where \n would not
    spaces = [c for c in range(0x80, sys.maxunicode + 1) if chr(c).isspace()]
    breaks = [c for c in range(0x80, sys.maxunicode + 1) if len(f"a{chr(c)}b".splitlines()) == 2]
    table = allocation._UNICODE_SPACES
    assert sorted(table) == spaces
    assert sorted(c for c, to in table.items() if to == ord("\x1e")) == breaks
    assert {chr(to) for c, to in table.items() if c not in breaks} == {" "}
    assert "a\r\x1eb".splitlines() == ["a", "", "b"]


@pytest.mark.parametrize(
    "text", ["n=3 r=1.0", "n=3 r=1.0\n", "# c\nn=3 r=2\r\n# 1:2\n  # b\n\n\t\n\u2028#\x85"]
)
def test_header_without_blocks(text):
    data = text.encode()
    g = parse_allocation_text(data)
    assert (g.n, g.indptr.tolist(), len(g.elems)) == (3, [0], 0)
    assert outcome(parse_allocation_text, data) == outcome(reference_parse_allocation_text, text)


def test_parse_peak_memory_stays_within_the_reference():
    # the byte pass converts bounded chunks, so its temporaries stay below
    # the fold both parsers end with; one pass over all tokens would not. The
    # text is encoded inside the traced region, so its bytes count to the peak
    rng = random.Random(11)
    text = "\n".join(["n=5000 r=1.0", *weighted_lines(rng, 14_300, n=5000)]) + "\n"
    assert 95_000 < len(text.split()) < 105_000
    peaks = []
    for parse in (lambda t: parse_allocation_text(t.encode()), reference_parse_allocation_text):
        tracemalloc.start()
        try:
            parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks
