"""Grid categorization of numeric tables into weighted allocations."""
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gea import categorize as categorize_module
from gea import fixedpoint as fp
from gea.agglomeration import gea, to_json
from gea.categorize import (
    CategorizationParams,
    NumericDataset,
    categorize,
    minmax_scale,
)

from helpers import reference_categorize


def params(d=10, m=1, gamma=1.0, r=1):
    return CategorizationParams(d=d, m=m, gamma=gamma, r=r)


def entries(g):
    return [{e: w / fp.SCALE for e, w in b.entries.items()} for b in g.blocks]


# --- dataset / params validation ------------------------------------------------


def test_dataset_validates_shape_and_finiteness():
    NumericDataset(("a",), ((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        NumericDataset((), ((1.0,),))
    with pytest.raises(ValueError):
        NumericDataset(("a", "b"), ((1.0,),))
    with pytest.raises(ValueError):
        NumericDataset(("a",), ((float("inf"),),))
    with pytest.raises(ValueError):
        NumericDataset(("a",), ((1.0,),), labels=("x", "y"))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=0, m=1, gamma=1.0),
        dict(d=1.5, m=1, gamma=1.0),
        dict(d=10, m=-1, gamma=1.0),
        dict(d=10, m=1, gamma=-0.5),
        dict(d=10, m=1, gamma=float("nan")),
        dict(d=10, m=1, gamma=1.0, r=0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        CategorizationParams(**kwargs)


# --- neighborhood weights ------------------------------------------------------


def single_value_weights(p):
    """Weights one value at a grid point spreads, in ascending offset order."""
    g = categorize(NumericDataset(("x",), ((0.0,),)), p)
    return [b.entries[0] / fp.SCALE for b in g.blocks]


def test_neighborhood_m0_is_center_only():
    assert single_value_weights(params(m=0)) == [1.0]


def test_neighborhood_weights_m2_gamma1():
    got = single_value_weights(params(m=2, gamma=1.0))
    assert got == [0.333333, 0.666667, 1.0, 0.666667, 0.333333]


def test_neighborhood_weights_m5_gamma3():
    got = single_value_weights(params(m=5, gamma=3.0))
    flanks = [0.578704, 0.296296, 0.125, 0.037037, 0.00463]
    assert got == flanks[::-1] + [1.0] + flanks


def test_neighborhood_drops_zero_weight_flanks():
    # gamma large enough that the mu=+-2 flanks round to zero: they never
    # materialize as blocks, while the mu=+-1 flanks survive
    got = single_value_weights(params(m=2, gamma=20.0))
    assert got == [0.000301, 1.0, 0.000301]


# --- categorize -------------------------------------------------------------------


def test_single_value_m0():
    g = categorize(NumericDataset(("x",), ((5.1,),)), params(m=0))
    assert entries(g) == [{0: 1.0}]
    assert g.n == 1 and g.r_scaled == fp.SCALE


def test_equal_values_connect():
    g = categorize(NumericDataset(("x",), ((5.1,), (5.1,))), params(m=0))
    assert entries(g) == [{0: 1.0, 1: 1.0}]


def test_two_close_values_share_flank_categories():
    g = categorize(NumericDataset(("x",), ((5.1,), (5.2,))), params(m=1, gamma=1.0))
    assert entries(g) == [
        {0: 0.5},
        {0: 1.0, 1: 0.5},
        {0: 0.5, 1: 1.0},
        {1: 0.5},
    ]


def test_equal_values_connect_across_columns():
    # one row, two columns, same value: weights fold by addition
    g = categorize(NumericDataset(("a", "b"), ((2.3, 2.3),)), params(m=0))
    assert entries(g) == [{0: 2.0}]


def test_cross_column_overlap_partial():
    g = categorize(NumericDataset(("a", "b"), ((0.1, 0.2),)), params(m=1, gamma=1.0))
    # grids 1 and 2: flanks at 0..3, center contributions at 1 and 2 overlap
    # with the other column's flank
    assert entries(g) == [{0: 0.5}, {0: 1.5}, {0: 1.5}, {0: 0.5}]


def test_distant_values_share_nothing():
    g = categorize(
        NumericDataset(("x",), ((0.0,), (5.0,))), params(d=10, m=2, gamma=1.0)
    )
    for b in g.blocks:
        assert len(b.entries) == 1


def test_grid_alignment_shared_category_counts():
    # on one dimension, values j grid steps apart share 2m+1-j categories
    p = params(d=10, m=3, gamma=1.0)
    for j in range(8):
        ds = NumericDataset(("x",), ((1.0,), (1.0 + j / 10,)))
        g = categorize(ds, p)
        shared = sum(1 for b in g.blocks if len(b.entries) == 2)
        assert shared == max(2 * p.m + 1 - j, 0)


def test_snapping_rounds_half_away_from_zero():
    # 0.25 on a d=2 grid sits exactly between 0.0 and 0.5
    g = categorize(NumericDataset(("x",), ((0.25,), (-0.25,))), params(d=2, m=0))
    assert entries(g) == [{1: 1.0}, {0: 1.0}]  # snapped to -0.5 and +0.5


def test_weight_conservation_random():
    rng = random.Random(6)
    for _ in range(40):
        d = rng.randint(1, 30)
        m = rng.randint(0, 6)
        gamma = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 7.5])
        p = params(d=d, m=m, gamma=gamma)
        ncols = rng.randint(1, 4)
        nrows = rng.randint(1, 8)
        ds = NumericDataset(
            tuple(f"c{i}" for i in range(ncols)),
            tuple(
                tuple(round(rng.uniform(-5, 5), 3) for _ in range(ncols))
                for _ in range(nrows)
            ),
        )
        g = categorize(ds, p)
        per_dim = 1.0 + 2 * sum(
            fp.from_number((1 - mu / (m + 1)) ** gamma) / fp.SCALE
            for mu in range(1, m + 1)
        )
        for e in range(ds.n):
            total = sum(b.entries.get(e, 0) / fp.SCALE for b in g.blocks)
            assert abs(total - ncols * per_dim) <= 1e-9


def test_block_count_bound_and_nonempty():
    rng = random.Random(13)
    for _ in range(20):
        m = rng.randint(0, 5)
        p = params(d=10, m=m, gamma=1.0)
        ncols = rng.randint(1, 3)
        ds = NumericDataset(
            tuple(f"c{i}" for i in range(ncols)),
            tuple(
                tuple(round(rng.uniform(0, 3), 1) for _ in range(ncols))
                for _ in range(rng.randint(1, 10))
            ),
        )
        g = categorize(ds, p)
        # categories key on snapped grid values shared across all columns, so
        # each distinct value spawns at most its own window of 2m + 1 cells
        distinct = len({v for row in ds.values for v in row})
        assert 0 < len(g.blocks) <= distinct * (2 * m + 1)
        assert all(b.entries for b in g.blocks)


def test_whole_dataset_shift_leaves_dendrogram_unchanged():
    rng = random.Random(8)
    vals = tuple(
        (round(rng.uniform(0, 2), 1), round(rng.uniform(0, 2), 1)) for _ in range(12)
    )
    ds = NumericDataset(("a", "b"), vals)
    p = params(d=10, m=2, gamma=1.0)
    base = categorize(ds, p)
    shifted_ds = NumericDataset(
        ("a", "b"), tuple(tuple(v + 0.7 for v in row) for row in vals)
    )
    shifted = categorize(shifted_ds, p)
    assert [b.entries for b in base.blocks] == [b.entries for b in shifted.blocks]
    assert to_json(gea(base)) == to_json(gea(shifted))


def test_gamma_zero_gives_flat_weights():
    g = categorize(NumericDataset(("x",), ((1.0,),)), params(m=2, gamma=0.0))
    assert entries(g) == [{0: 1.0}] * 5


@st.composite
def numeric_inputs(draw):
    """A dataset and parameters: values at any float in a small range, at
    exact ties +-k/(2d) between grid points, and where |v*d| is at least
    2**53; rows may repeat, and in about one dataset of four v*d overflows
    for some value."""
    d = draw(st.integers(1, 40) | st.sampled_from([2**62 + 1, 10**15]))
    p = params(d=d, m=draw(st.integers(0, 8)), gamma=draw(st.sampled_from([0, 0.5, 1.0, 3.0, 20.0])))
    big = st.floats(2.0**53, 1e300).map(lambda x: x / d)
    value = st.one_of(
        st.floats(-8, 8),
        st.integers(-16 * d, 16 * d).map(lambda k: k / (2 * d)),
        big,
        big.map(lambda x: -x),
    )
    dims = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(value, min_size=dims, max_size=dims), max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        if draw(st.integers(0, 3)) == 0:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, dims - 1))
            rows[i] = [*rows[i][:j], draw(st.sampled_from([1.7e308, -1e308])), *rows[i][j + 1:]]
    return NumericDataset(tuple(f"c{i}" for i in range(dims)), tuple(map(tuple, rows))), p


@settings(max_examples=300, deadline=None)
@given(data=numeric_inputs())
def test_categorize_equals_the_per_value_reference(data):
    # the same blocks in the same order, elements and weights; or the same
    # error, naming the same row and dimension
    ds, p = data
    try:
        want = reference_categorize(ds, p)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            categorize(ds, p)
        assert str(got.value) == str(exc)
    else:
        assert categorize(ds, p) == want


def test_overflow_names_the_first_value_in_row_major_order():
    ds = NumericDataset(("a", "b"), ((1.0, 1e308), (-1e308, 1.0)))
    with pytest.raises(ValueError) as got:
        categorize(ds, params(d=10))
    assert str(got.value) == "row 0, dimension 'b': 1e+308 * d overflows the grid"
    with pytest.raises(ValueError, match=re.escape(str(got.value))):
        reference_categorize(ds, params(d=10))


def counted_weights(monkeypatch):
    calls = []
    real = categorize_module._weight

    def counting(p, mu):
        calls.append(mu)
        return real(p, mu)

    monkeypatch.setattr(categorize_module, "_weight", counting)
    return calls


def test_huge_m_is_an_error_before_the_weights_are_evaluated(monkeypatch):
    # about 2*10**15 offsets a value: their 114 PiB of ranks and weights pass any
    # address space, so the request fails at once, after the bisection alone
    calls = counted_weights(monkeypatch)
    ds = NumericDataset(("a", "b"), ((0.1, 0.2), (0.3, 0.5)))
    with pytest.raises(ValueError) as got:
        categorize(ds, params(m=10**15, gamma=1.0))
    assert str(got.value) == "m=1000000000000000 is too large: the categories need 127999936000000064 bytes"
    assert len(calls) <= 60


def test_huge_m_evaluates_only_the_flanks_with_a_nonzero_weight(monkeypatch):
    # with gamma = 10**12 the flanks' weights round to zero past |mu| = 14,508:
    # the bisection finds that flank, and only offsets up to it are evaluated
    calls = counted_weights(monkeypatch)
    p = params(m=10**15, gamma=10.0**12)
    g = categorize(NumericDataset(("x",), ((0.0,),)), p)
    last = 14_508
    assert len(g.sizes) == 2 * last + 1
    assert g.weights[0] == g.weights[-1] == categorize_module._weight(p, last) > 0
    assert categorize_module._weight(p, last + 1) == 0
    assert len(calls) <= last + 1 + 60


# --- minmax_scale -------------------------------------------------------------------


def test_minmax_scale_maps_to_unit_interval():
    ds = NumericDataset(("a", "b"), ((0.0, 5.0), (2.0, 5.0), (4.0, 5.0)))
    scaled = minmax_scale(ds)
    assert scaled.values == ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0))
    assert scaled.dims == ds.dims


def test_minmax_scale_of_no_rows_keeps_the_dims():
    scaled = minmax_scale(NumericDataset(("a", "b"), ()))
    assert scaled.values == () and scaled.dims == ("a", "b") and scaled.labels is None
