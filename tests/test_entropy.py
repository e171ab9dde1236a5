"""Entropy forms, sign cases, and their numerical cross-checks."""
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gea import fixedpoint as fp
from gea.allocation import FeatureAllocation, parse_allocation_text
from gea.entropy import (
    generalized_entropy,
    generalized_entropy_cod,
    information_sum,
    subset_entropy,
)

from helpers import random_allocation, random_integer_allocation, ragged, scaled_allocation, simpson


def fixture_f():
    return parse_allocation_text(b"n=7 r=1.0\n1 3 6 7\n2\n4 5\n5\n")


def one_block(size, n, r):
    # the kernel's term for one block, in fixed-point units as gea() passes them
    (h,) = information_sum(*ragged(np.array([[fp.from_number(size)]])), np.array([float(n * fp.from_number(r))]))
    return h


# --- per-block term -------------------------------------------------------------


def test_information_sum_closed_form():
    # (|B|/(n*r)) * log(n*r/|B|); the log frozen by hand evaluation
    assert one_block(3.8, 7, 2) == pytest.approx(3.8 / 14 * 1.3040562628829186, abs=1e-12)
    assert one_block(7, 7, 1) == 0.0
    assert one_block(2, 1, 1) == pytest.approx(-2 * math.log(2), abs=1e-12)


def test_information_sum_matches_quadrature_spot():
    integral = simpson(lambda t: 1 / t, 3.8, 14.0, 10_000)
    assert one_block(3.8, 7, 2) == pytest.approx(3.8 / 14 * integral, rel=1e-9)


@pytest.mark.parametrize("blocks", [0, 1, 5, 40])
def test_information_sum_rows_ignore_batch_and_zero_columns(blocks):
    # a row's sum is the same bits alone, in any batch at any position, and
    # with its zero columns dropped
    rng = np.random.default_rng(blocks)
    for k in (1, 2, 7):
        mass = rng.integers(1, 5 * fp.SCALE, (k, blocks)) * (rng.random((k, blocks)) < 0.5)
        mass[1:2] = 0  # an all-zero row whenever k > 1
        counts = rng.integers(1, 30, k).tolist()
        r_s = int(rng.choice([fp.SCALE // 2, fp.SCALE, 2 * fp.SCALE]))
        ref = np.array([float(c * r_s) for c in counts])
        sums = information_sum(*ragged(mass), ref)
        assert sums.dtype == np.float64 and sums.shape == (k,)
        alone = [information_sum(*ragged(mass[i : i + 1]), ref[i : i + 1]) for i in range(k)]
        dropped = [information_sum(*ragged(m[m > 0][None]), ref[i : i + 1]) for i, m in enumerate(mass)]
        perm = rng.permutation(k)
        shuffled = information_sum(*ragged(mass[perm]), ref[perm])
        assert sums.tobytes() == np.concatenate(alone).tobytes()
        assert sums.tobytes() == np.concatenate(dropped).tobytes()
        assert sums.tobytes() == shuffled[np.argsort(perm)].tobytes()


def dense_information_sum(mass, ref):
    """The kernel's earlier form, per row of a k-by-B int64 matrix: the sum
    of (s / nr) * log(nr / s) over the row's positive entries, left to right."""
    rows, cols = np.divmod(np.flatnonzero(mass > 0), mass.shape[1])
    s, nr = mass[rows, cols], ref[rows]
    terms = (s / nr) * np.log(nr / s)
    return np.bincount(rows, terms, len(mass)).astype(float)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ragged_kernel_is_bit_equal_to_dense_rows(seed):
    # random dense rows with zeros, some all zero: the call on their positive
    # entries in row order, with a row id each, gives the dense form's bits,
    # and a row with no positive mass sums to 0
    rng = np.random.default_rng(seed)
    k, blocks = int(rng.integers(1, 9)), int(rng.integers(0, 40))
    top = int(rng.choice([5 * fp.SCALE, 2**40, 2**62]))
    mass = rng.integers(1, top, (k, blocks)) * (rng.random((k, blocks)) < rng.random())
    mass[rng.random(k) < 0.25] = 0
    r_s = int(rng.choice([fp.SCALE // 2, fp.SCALE, 2 * fp.SCALE]))
    ref = np.array([float(c * r_s) for c in rng.integers(1, 30, k).tolist()])
    sums = information_sum(*ragged(mass), ref)
    assert sums.dtype == np.float64 and sums.tobytes() == dense_information_sum(mass, ref).tobytes()
    assert (sums[(mass == 0).all(axis=1)] == 0).all()


# --- block-sum form ------------------------------------------------------------


def test_entropy_of_reference_example():
    # sizes 4,1,2,1 over n=7, r=1; value frozen from independent evaluation
    h = generalized_entropy(fixture_f())
    expected = (
        (4 / 7) * math.log(7 / 4)
        + (1 / 7) * math.log(7)
        + (2 / 7) * math.log(7 / 2)
        + (1 / 7) * math.log(7)
    )
    assert h == expected
    assert h == pytest.approx(1.2336870552632933, abs=1e-12)


def test_entropy_zero_when_one_block_holds_everything_at_r():
    g = FeatureAllocation.from_weights(5, [{e: 2 for e in range(5)}], r=2)
    assert generalized_entropy(g) == 0.0


def test_entropy_negative_witness():
    g = FeatureAllocation.from_weights(1, [{0: 2.0}], r=1)
    assert generalized_entropy(g) == pytest.approx(-1.3862943611198906, abs=1e-12)


def test_entropy_empty_allocation():
    assert generalized_entropy(FeatureAllocation.from_weights(4, [])) == 0.0


# --- telescoped (size-tally) form ---------------------------------------------


def test_cod_form_matches_on_reference_example():
    g = fixture_f()
    assert generalized_entropy_cod(g) == pytest.approx(
        generalized_entropy(g), abs=1e-12
    )


def test_cod_form_trivials():
    full = parse_allocation_text(b"n=3 r=1.0\n1 2 3\n")
    assert generalized_entropy_cod(full) == 0.0
    assert generalized_entropy_cod(FeatureAllocation.from_weights(3, [])) == 0.0


def test_cod_form_handles_sizes_beyond_n():
    # one element with multiplicity 3: block size 3 > n=1
    g = parse_allocation_text(b"n=1 r=1.0\n1 1 1\n")
    assert generalized_entropy_cod(g) == pytest.approx(
        generalized_entropy(g), abs=1e-12
    )
    assert generalized_entropy(g) < 0


def test_cod_form_rejects_fractional_sizes():
    g = FeatureAllocation.from_weights(2, [{0: 0.5}])
    with pytest.raises(ValueError):
        generalized_entropy_cod(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_forms_agree_on_integer_weights(seed):
    g = random_integer_allocation(random.Random(seed))
    assert abs(generalized_entropy(g) - generalized_entropy_cod(g)) <= 1e-9


# --- sign cases -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
)
def test_case1_full_blocks_at_weight_r_have_zero_entropy(seed, r):
    rng = random.Random(seed)
    n = rng.randint(1, 20)
    r_scaled = fp.from_number(r)
    block = {e: r_scaled for e in range(n)}
    g = scaled_allocation(n, [block] * rng.randint(1, 6), r_scaled)
    assert abs(generalized_entropy(g)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_case2_weights_below_r_give_nonnegative_entropy(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 15)
    r_scaled = rng.choice([fp.SCALE // 2, fp.SCALE, 2 * fp.SCALE])
    blocks = []
    for _ in range(rng.randint(1, 8)):
        elems = rng.sample(range(n), rng.randint(1, n))
        blocks.append({e: rng.randint(1, r_scaled) for e in elems})
    g = scaled_allocation(n, blocks, r_scaled)
    assert generalized_entropy(g) >= -1e-12


# --- invariances -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_scaling_weights_and_r_together_preserves_entropy(seed, factor):
    from helpers import random_allocation

    g = random_allocation(random.Random(seed))
    scaled = scaled_allocation(
        g.n, [{e: w * factor for e, w in b.entries.items()} for b in g.blocks], g.r_scaled * factor
    )
    assert abs(generalized_entropy(g) - generalized_entropy(scaled)) <= 1e-9


def test_multiset_embedding_is_bitwise_consistent():
    # repeated bare tokens fold into the integer weights from_weights is given
    via_multiset = parse_allocation_text(b"n=7 r=1.0\n1 3 3 6 7\n2\n4 5 5 5\n")
    explicit = FeatureAllocation.from_weights(
        7, [{0: 1, 2: 2, 5: 1, 6: 1}, {1: 1}, {3: 1, 4: 3}], r=1
    )
    assert via_multiset == explicit
    assert generalized_entropy(via_multiset) == generalized_entropy(explicit)


# --- subset entropy ---------------------------------------------------------------


def restricted(g, subset):
    """The projection of ``g`` onto ``subset``, built apart from
    subset_entropy: each block's map restricted and re-indexed by hand,
    emptied blocks dropped."""
    new = {e: i for i, e in enumerate(sorted(set(subset)))}
    blocks = [{new[e]: w for e, w in b.entries.items() if e in new} for b in g.blocks]
    return scaled_allocation(len(new), [b for b in blocks if b], g.r_scaled)


def test_subset_entropy_reference_pair():
    g = fixture_f()
    # elements 4,5 (1-based): projected blocks {{4,5},{5}} over n'=2
    assert subset_entropy(g, [3, 4]) == pytest.approx(0.34657359027997264, abs=1e-12)


def test_subset_entropy_restricts_and_reindexes():
    g = fixture_f()
    sub = scaled_allocation(2, [{0: fp.SCALE, 1: fp.SCALE}, {1: fp.SCALE}], g.r_scaled)
    assert subset_entropy(g, [4, 3]) == generalized_entropy(sub)  # elements 4 and 5, 1-based


def test_subset_entropy_full_subset_is_plain_entropy():
    g = fixture_f()
    assert subset_entropy(g, range(7)) == generalized_entropy(g)


def test_subset_entropy_identity_on_full_universe():
    # the full universe keeps every block whole, so the subset entropy is the
    # plain entropy bit for bit
    rng = random.Random(8)
    for _ in range(100):
        g = random_allocation(rng, max_blocks=30)
        assert subset_entropy(g, range(g.n)) == generalized_entropy(g)


def test_subset_entropy_discards_emptied_blocks():
    g = fixture_f()
    # elements 2 and 5 (1-based): blocks {2}, {5} and {5} remain, {1,3,6,7} goes
    sub = scaled_allocation(2, [{0: fp.SCALE}, {1: fp.SCALE}, {1: fp.SCALE}], g.r_scaled)
    assert subset_entropy(g, [1, 4]) == generalized_entropy(sub)


def test_subset_entropy_matches_hand_restricted_allocations():
    # bit for bit, on weighted and integer allocations, some without blocks,
    # and on subsets that meet no block
    rng = random.Random(21)
    for t in range(400):
        if t % 2:
            g = random_allocation(rng, max_n=12, max_blocks=12)
        else:
            g = random_integer_allocation(rng, max_n=12, max_blocks=4)
        subset = rng.sample(range(g.n), rng.randint(1, g.n))
        assert subset_entropy(g, subset) == generalized_entropy(restricted(g, subset))


def test_subset_entropy_lone_element_with_weight_r():
    g = fixture_f()
    assert subset_entropy(g, [1]) == 0.0  # element 2 sits alone in one block


def test_subset_entropy_meeting_no_block_is_zero_without_warning():
    g = FeatureAllocation.from_weights(3, [{0: 1}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert subset_entropy(g, [2]) == 0.0
        assert subset_entropy(g, [1, 2]) == 0.0


def test_subset_entropy_of_allocation_without_blocks():
    g = FeatureAllocation.from_weights(3, [], r="0.5")
    assert subset_entropy(g, [0, 2]) == subset_entropy(g, range(3)) == 0.0
    assert generalized_entropy(g) == 0.0


def test_subset_entropy_rejects_empty_subset():
    with pytest.raises(ValueError):
        subset_entropy(fixture_f(), [])


def test_subset_entropy_rejects_elements_outside_the_universe():
    g = fixture_f()
    for bad in ([7], [-1], [0, 7]):
        with pytest.raises(ValueError, match=r"inside \[0, 7\)"):
            subset_entropy(g, bad)
