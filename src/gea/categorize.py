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


def _offset_weights(params: CategorizationParams) -> list[tuple[int, int]]:
    """(offset, fixed-point weight) of each category one value spawns, in
    ascending offset order: the 2m+1 offsets less the flanks whose weight
    rounds to zero. The central weight (1 - 0)**gamma is exactly 1."""
    m, gamma = params.m, params.gamma
    weights = [(mu, fp.from_number((1 - abs(mu) / (m + 1)) ** gamma)) for mu in range(-m, m + 1)]
    return [(mu, w) for mu, w in weights if w]


def categorize(ds: NumericDataset, params: CategorizationParams) -> FeatureAllocation:
    """Build the allocation whose blocks are the populated categories.

    Every row contributes its neighborhood weights to the categories around
    each of its snapped grid values. A category is identified by the grid
    value alone, so equal values connect across columns; when one row
    reaches the same category more than once its weights add up. A
    category's block collects the (row, weight) pairs of everyone who
    reached it. Blocks are ordered by grid value, so the output is
    deterministic.
    """
    offsets = _offset_weights(params)
    cats: dict[int, dict[int, int]] = {}
    for e, row in enumerate(ds.values):
        for name, v in zip(ds.dims, row):
            y = v * params.d
            if not math.isfinite(y):
                raise ValueError(f"row {e}, dimension {name!r}: {v!r} * d overflows the grid")
            g0 = _snap(y)
            for mu, w in offsets:
                entries = cats.setdefault(g0 + mu, {})
                entries[e] = entries.get(e, 0) + w
    blocks = [cats[key] for key in sorted(cats)]  # a block's rows arrive ascending
    elems = np.fromiter((e for b in blocks for e in b), np.int64)
    weights = np.fromiter((w for b in blocks for w in b.values()), np.int64)
    indptr = np.cumsum([0, *map(len, blocks)])
    return FeatureAllocation(ds.n, indptr, elems, weights, fp.from_number(params.r))


def _snap(y: float) -> int:
    """Nearest integer to y (a value times d), ties away from zero."""
    return math.floor(y + 0.5) if y >= 0 else -math.floor(-y + 0.5)


def minmax_scale(ds: NumericDataset) -> NumericDataset:
    """Rescale each dimension to [0, 1]; constant dimensions map to 0.

    A column whose span overflows the float range is scaled from its values
    halved, which is exact at that magnitude; other columns are not halved.
    """
    cols = list(zip(*ds.values)) if ds.values else []
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
