"""Generalized entropy of weighted feature allocations.

The per-block information of a block of size s over reference mass n*r is
log(n*r / s), i.e. the integral of 1/t from s to n*r; the entropy of an
allocation is the size-weighted average

    H(G) = sum_i  (|B_i| / (n*r)) * log(n*r / |B_i|).

Entropies are reported in nats. The log base only rescales every entropy by
a constant, so it never changes which candidate merge minimizes the
agglomeration objective. Values can be negative once some weight exceeds
the recurrence base r; with all weights <= r every term is non-negative.
"""
from __future__ import annotations

import math
import warnings
from typing import Iterable

import numpy as np

from . import fixedpoint as fp
from .allocation import FeatureAllocation, cod, project


class EmptyProjectionWarning(UserWarning):
    """A projection wiped out every block; entropy is defined as zero."""


def information_sum(mass: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per row i of the k-by-B int64 matrix ``mass`` (fixed-point block sizes,
    or subsets' per-block masses), the sum of (s / nr) * log(nr / s) over its
    positive entries s, where nr = ref[i] is the row's reference mass: the
    exact integer n * r_scaled as a float, rounded once.

    Zero entries are blocks a projection discards; a row without a positive
    entry sums to zero. Terms are added left to right, so a row's sum depends
    only on its positive entries in order, not on zero columns or other rows.
    This is the one evaluation of the sum that both the entropy functions and
    the merge engine use, so equal inputs give bit-equal results.
    """
    rows, cols = np.divmod(np.flatnonzero(mass > 0), mass.shape[1])
    s, nr = mass[rows, cols], ref[rows]
    terms = (s / nr) * np.log(nr / s)
    return np.bincount(rows, terms, len(mass)).astype(float)  # int zeros when no terms


def generalized_entropy(g: FeatureAllocation) -> float:
    """Entropy of an allocation through :func:`information_sum` over its
    block sizes.

    Evaluated in double precision from the exact fixed-point sizes; the
    shared 1e-6 scale cancels inside each ratio. An empty allocation has
    entropy zero.
    """
    return float(information_sum(g.sizes[None], np.array([float(g.n * g.r_scaled)]))[0])


def generalized_entropy_cod(g: FeatureAllocation) -> float:
    """Entropy evaluated through the cumulative occurrence distribution.

    Blocks of equal integer size k share the term (k/(n*r))*log(n*r/k), so
    the block sum telescopes into counts of blocks of size >= k. The sum
    runs up to the largest block size (sizes may exceed n when weights do
    exceed 1). Requires integer block sizes; serves as a cross-check
    against :func:`generalized_entropy`.
    """
    dist = cod(g)
    if not dist.counts:
        return 0.0
    nr = g.n * g.r_scaled
    total = 0.0
    for k in range(1, len(dist.counts) + 1):
        mult = dist.phi(k) - dist.phi(k + 1)
        if mult == 0:
            continue
        s = k * fp.SCALE
        total += mult * (s / nr) * math.log(nr / s)
    return total


def subset_entropy(g: FeatureAllocation, subset: Iterable[int]) -> float:
    """Entropy of the projection onto ``subset`` (n' = len(subset), same r).

    If the subset's elements appear in no block at all, the entropy is
    defined as zero and an :class:`EmptyProjectionWarning` is emitted.
    """
    sub = project(g, subset)
    if not len(sub.sizes):
        warnings.warn(
            "subset intersects no block; entropy defined as 0",
            EmptyProjectionWarning,
            stacklevel=2,
        )
        return 0.0
    return generalized_entropy(sub)
