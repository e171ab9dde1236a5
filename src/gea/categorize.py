"""Numeric tables to feature allocations via overlapping value categories.

Each value is snapped to a 1/d grid and spawns a run of categories around
its grid point: the central category with weight 1 plus m flanking
categories on each side at offsets mu/d, weighted (1 - |mu|/(m+1))**gamma.
Rows that reach the same grid value end up together in that category's
block, so nearby values share blocks in proportion to how close they are.
Category identity is the grid value alone — equal values are connected no
matter which column they came from, and a row reaching one category from
several columns folds its contributions by addition. Weights are rounded
to six decimals to match the fixed-point allocation representation.

Dimensions are taken as-is (no normalization); :func:`minmax_scale` is an
optional preprocessing step, off by default in the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fixedpoint as fp
from .allocation import FeatureAllocation


@dataclass(frozen=True)
class NumericDataset:
    """n rows of D finite numeric values with optional ground-truth labels."""

    dims: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if not self.dims:
            raise ValueError("need at least one dimension")
        for i, row in enumerate(self.values):
            if len(row) != len(self.dims):
                raise ValueError(f"row {i}: expected {len(self.dims)} values, got {len(row)}")
            for name, v in zip(self.dims, row):
                if not math.isfinite(v):
                    raise ValueError(f"row {i}, dimension {name!r}: non-finite value {v!r}")
        if self.labels is not None and len(self.labels) != len(self.values):
            raise ValueError("labels must cover every row")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CategorizationParams:
    """Knobs of the categorization: grid division d, overlap m, coefficient
    power gamma, and the recurrence base r handed to the allocation."""

    d: int
    m: int
    gamma: float
    r: object = 1

    def __post_init__(self):
        if not isinstance(self.d, int) or not 1 <= self.d < 2**63:
            raise ValueError("division parameter d must be an integer in [1, 2**63)")
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError("overlap parameter m must be an integer >= 0")
        if not (isinstance(self.gamma, (int, float)) and math.isfinite(self.gamma)) or self.gamma < 0:
            raise ValueError("coefficient power gamma must be a finite number >= 0")
        if fp.from_number(self.r) <= 0:
            raise ValueError("recurrence base r must be positive")


def _weight(params: CategorizationParams, mu: int) -> int:
    """Fixed-point weight of the categories at offsets +-mu, 0 <= mu <= m.
    The central weight (1 - 0)**gamma is exactly 1, and as gamma >= 0 the
    weights fall as mu grows."""
    return fp.from_number((1 - mu / (params.m + 1)) ** params.gamma)


def categorize(ds: NumericDataset, params: CategorizationParams) -> FeatureAllocation:
    """Build the allocation whose blocks are the populated categories.

    Every row contributes its neighborhood weights to the categories around
    each of its snapped grid values. A category is identified by the grid
    value alone, so equal values connect across columns; when one row
    reaches the same category more than once its weights add up. A
    category's block collects the (row, weight) pairs of everyone who
    reached it. Blocks are ordered by grid value, so the output is
    deterministic.

    The values are snapped as one float array, and only the distinct
    snapped values become exact ints. Every offset up to the last flank
    with a nonzero weight, found by bisection, spawns a category, so a
    value's k offsets take a run of k category ranks, and each distinct
    value's run starts after the previous one's start by their gap, or by k
    if that is less. One stable sort of the ranks of every (row, dimension,
    offset), rows ascending in input order, forms the blocks. An m whose
    ranks and weights cannot be allocated raises ValueError before the
    offsets' weights are evaluated.
    """
    n, dims, m = ds.n, len(ds.dims), params.m
    with np.errstate(over="ignore"):  # the first overflow is named below
        y = np.array(ds.values, dtype=float).reshape(n, dims) * float(params.d)
    bad = ~np.isfinite(y)
    if bad.any():
        e, j = divmod(int(bad.argmax()), dims)
        raise ValueError(f"row {e}, dimension {ds.dims[j]!r}: {ds.values[e][j]!r} * d overflows the grid")
    # nearest integer, ties away from zero: the IEEE additions of math.floor(|y| + 0.5)
    g = np.floor(np.abs(y) + 0.5)
    np.negative(g, out=g, where=y < 0)
    u, inv = np.unique(g.ravel(), return_inverse=True)  # raveled: inv is 1-d on every numpy
    lo, hi = 0, m + 1  # the weight at lo is nonzero, at hi (or past m) zero
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _weight(params, mid) else (lo, mid)
    k = 2 * lo + 1  # offsets -lo..lo
    try:
        rank, weight = np.empty((2, n * dims, k), np.int64)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest shape
        raise ValueError(f"m={m} is too large: the categories need {16 * n * dims * k} bytes") from None
    w = [_weight(params, mu) for mu in range(lo + 1)]
    weight[:] = w[:0:-1] + w
    v = [int(x) for x in u.tolist()]
    start = np.cumsum([0, *(min(b - a, k) for a, b in zip(v, v[1:]))])
    np.add(start[inv][:, None], np.arange(k), out=rank)
    rank = rank.ravel()
    # stable: a category's entries keep input order, so their rows ascend
    order = np.argsort(rank.astype(np.min_scalar_type(start[-1] + k)), kind="stable")
    rank, row = rank[order], order // (dims * k)
    first = np.flatnonzero(np.diff(rank, prepend=-1) | np.diff(row, prepend=-1))  # (category, row) runs
    weights = np.add.reduceat(weight.ravel()[order], first)
    rank, row = rank[first], row[first]
    indptr = np.append(np.flatnonzero(np.diff(rank, prepend=-1)), len(rank))
    return FeatureAllocation(n, indptr, row, weights, fp.from_number(params.r))


def minmax_scale(ds: NumericDataset) -> NumericDataset:
    """Rescale each dimension to [0, 1]; constant dimensions map to 0.

    A column whose span overflows the float range is scaled from its values
    halved, which is exact at that magnitude; other columns are not halved.
    """
    cols = list(zip(*ds.values))
    spans = []
    for col in cols:
        lo, hi = min(col), max(col)
        h = 0.5 if math.isinf(hi - lo) else 1.0
        spans.append((h, lo * h, hi * h - lo * h))
    scaled = tuple(
        tuple((v * h - lo) / span if span else 0.0 for v, (h, lo, span) in zip(row, spans))
        for row in ds.values
    )
    return NumericDataset(ds.dims, scaled, ds.labels)
