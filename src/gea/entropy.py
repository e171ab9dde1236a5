"""Generalized entropy of weighted feature allocations.

The per-block information of a block of size s over reference mass n*r is
log(n*r / s), i.e. the integral of 1/t from s to n*r; the entropy of an
allocation is the size-weighted average

    H(G) = sum_i  (|B_i| / (n*r)) * log(n*r / |B_i|).

Entropies are reported in nats. The log base only rescales every entropy by
a constant, so it never changes which candidate merge minimizes the
agglomeration objective. Values can be negative once some weight exceeds
the recurrence base r; with all weights <= r every term is non-negative.

:func:`subset_entropy` is the entropy of a projection onto a subset, the
agglomeration objective and the oracle every merge height is checked against.
"""
from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

from . import fixedpoint as fp
from .allocation import FeatureAllocation, cod


def information_sum(mass: np.ndarray, row: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per row i of a ragged batch, the sum of (s / nr) * log(nr / s) over
    its masses s, where nr = ref[i] is the row's reference mass: the exact
    integer n * r_scaled as a float, rounded once. ``mass`` holds the rows'
    positive int64 masses (fixed-point block sizes, or subsets' per-block
    masses) in row order, and ``row[j]`` is the row of ``mass[j]``.

    A projection discards the blocks it leaves empty, so a subset's row
    holds its positive masses only; a row without a mass sums to zero. Terms
    are added left to right, so a row's sum depends only on its masses in
    order, not on other rows. This is the one evaluation of the sum that
    both the entropy functions and the merge engine use, so equal inputs
    give bit-equal results.
    """
    nr = ref[row]
    terms = mass / nr
    nr /= mass  # in place, as is its log: one array a mass beside the terms
    terms *= np.log(nr, out=nr)
    return np.bincount(row, terms, len(ref)).astype(float, copy=False)  # int zeros when no terms


def generalized_entropy(g: FeatureAllocation) -> float:
    """Entropy of an allocation through :func:`information_sum` over its
    block sizes. Only ``n``, ``r_scaled`` and ``sizes`` are read, so the
    block sizes that ``parse_block_sizes`` gives serve as well.

    Evaluated in double precision from the exact fixed-point sizes; the
    shared 1e-6 scale cancels inside each ratio. An empty allocation has
    entropy zero.
    """
    nr = np.array([float(g.n * g.r_scaled)])
    return float(information_sum(g.sizes, np.zeros(len(g.sizes), np.intp), nr)[0])


def generalized_entropy_cod(g: FeatureAllocation) -> float:
    """Entropy evaluated through the cumulative occurrence distribution.

    Blocks of equal integer size k share the term (k/(n*r))*log(n*r/k), so
    the block sum telescopes into counts of blocks of size >= k. The sum
    runs up to the largest block size (sizes may exceed n when weights do
    exceed 1). Requires integer block sizes; serves as a cross-check
    against :func:`generalized_entropy`.
    """
    dist = cod(g)
    nr = g.n * g.r_scaled
    total = 0.0
    for k in range(1, len(dist.counts) + 1):
        mult = dist.phi(k) - dist.phi(k + 1)
        s = k * fp.SCALE
        total += mult * (s / nr) * math.log(nr / s)
    return total


def subset_entropy(g: FeatureAllocation, subset: Iterable[int]) -> float:
    """Entropy of the projection onto ``subset`` (n' = len(subset), same r):
    each block's positive mass on the subset goes to one
    :func:`information_sum` call in block order, as the engine's masses do.
    A subset that meets no block has entropy zero."""
    keep = sorted({operator.index(e) for e in subset})
    if not keep:
        raise ValueError("subset must be non-empty")
    if keep[0] < 0 or keep[-1] >= g.n:
        raise ValueError(f"subset must lie inside [0, {g.n})")
    keep = np.array(keep, dtype=np.int64)
    hit = keep[np.minimum(np.searchsorted(keep, g.elems), len(keep) - 1)] == g.elems
    mass = np.add.reduceat(np.where(hit, g.weights, 0), g.indptr[:-1])
    mass, nr = mass[mass > 0], np.array([float(len(keep) * g.r_scaled)])
    return float(information_sum(mass, np.zeros(len(mass), np.intp), nr)[0])
