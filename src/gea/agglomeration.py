"""Greedy minimum-projection-entropy clustering.

Starting from singletons, repeatedly merge the pair of clusters whose union
has the smallest projection entropy, recording that entropy as the merge
height. Heights may be negative (weights above the recurrence base) and are
not monotone across merges, so flat clusters are produced by undoing merges
in reverse merge order rather than by thresholding heights.

The engine keeps every live cluster in a slot: a row of an n-by-blocks
mass matrix, scattered in one step from the allocation's CSR arrays, its
total mass S and sum F of m*ln(m), and a row and column of an n-by-n matrix
of union scores, with each row's minimum cached. A score
(:func:`union_scores`) of slots a and o, (S_u*ln(Nr) - F_o - D_ao)/Nr, reads
only o's F, gathers at most BATCH_ENTRIES masses per call from the blocks
where a's row is positive, and is within its bound beta of the kernel's
entropy. Each merge's contenders are the pairs scored
within 2*beta + TIE_TOLERANCE of the least; :func:`information_sum`
replaces the score of each contender that has no kernel value yet, and that
value stays until a merge rescores the pair. A second row cache, a lower
bound on each row's least score without a kernel value that a scan of the
row makes exact, limits the search for such contenders, so pairs that tie
merge after merge are evaluated and scanned once. The least tied pair is
then read from the row minima, and its value is the merge height. A merge
keeps the union in the lower of its two slots, so slot i always holds the
cluster whose least element is i. It retires the other slot (inf row and
column), recomputes the kept slot's S and F from its row and rescores its
pairs. The kept row and rows whose minimum was in a merged column are
rescanned; the others compare one new entry.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fixedpoint as fp
from .allocation import FeatureAllocation
from .entropy import information_sum

# Candidate heights within this absolute gap count as tied; ties resolve to
# the pair whose merged element set is lexicographically least.
TIE_TOLERANCE = 1e-12
# Gathered mass entries per score or kernel call; temporaries take ~64 bytes per entry.
BATCH_ENTRIES = 2**14
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: child node ids, the entropy of the merged
    subset, and that subset's element count. Node ids 0..n-1 are leaves;
    merge i creates node n+i, and ``left < right`` always."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    n: int
    r_scaled: int
    merges: tuple[Merge, ...]


@dataclass(frozen=True)
class ClusterSet:
    """A flat clustering: ``labels[element]`` is a cluster id in [0, k)."""

    k: int
    labels: tuple[int, ...]

    def members(self, label: int) -> tuple[int, ...]:
        return tuple(e for e, lab in enumerate(self.labels) if lab == label)


def _xlogx(m: np.ndarray) -> np.ndarray:
    """f(x) = x * ln(x) of integer masses as floats; 0 where a mass is 0."""
    x = m.astype(float)
    y = np.maximum(x, 1.0)
    np.log(y, out=y)  # in place: the batch temporaries set gea()'s peak memory
    y *= x
    return y


def union_scores(mass, cols, a, o, total, flog, count, nr):
    """Scores of the unions of slot a with the slots ``o``, and a bound on
    each score's distance from :func:`information_sum`'s value.

    ``cols`` is slot a's support; per slot, ``total`` is S, the sum of its
    masses m, ``flog`` is F, the sum of f(m) = m*ln(m), and ``count`` is its
    support size; ``nr`` holds each union's float Nr. The kernel's sum of
    (s/Nr)*ln(Nr/s) is (S_u*ln(Nr) - F_u)/Nr, and as f(0) = 0, F_u = F_o + D_ao
    with D_ao the sum over cols of f(m_a + m_o) - f(m_o): the score is
    (S_u*ln(Nr) - F_o - D_ao)/Nr, S_u = S_a + S_o. Masses are integers, so
    Nr >= 2 and all these terms are >= 0. A rounded term is off by a few u
    times its operands, u the unit roundoff, and a sum of k terms by k*u
    times their sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3-4). D_ao's operands add up to at most D_ao + 2*F_o; with K =
    |supp a| + |supp o| + 16 (16 per term's conversions, log and products)
    the score is off by at most K*u*(S_u*ln(Nr) + 3*F_o + D_ao)/Nr, and the
    kernel by 1.5*K*u*(S_u*ln(Nr) + F_u)/Nr, as its ln(Nr/s) costs u*s/Nr and
    Nr >= 2. The bound 4*K*u*(S_u*ln(Nr) + 2*F_u)/Nr covers both.
    """
    ma, mo = mass[a, cols], mass[np.ix_(o, cols)]
    t = _xlogx(ma + mo)
    t -= _xlogx(mo)
    d = t.sum(axis=1)
    s, lnr = total[a] + total[o], np.log(nr)
    err = 4 * (count[a] + count[o] + 16) * _UNIT_ROUNDOFF * (s * lnr + 2 * (flog[o] + d)) / nr
    return (s * lnr - flog[o] - d) / nr, err


def gea(g: FeatureAllocation) -> Dendrogram:
    """Cluster an allocation's elements; deterministic for a given input.

    Every candidate union is scored by its projection entropy with the
    subset's own element count and the allocation's recurrence base. The
    merge with minimal entropy wins; near-exact ties (within ``TIE_TOLERANCE``)
    go to the union whose sorted element ids compare least: the least tied
    (row, column) slot pair. Decisions and heights use :func:`information_sum`
    values: the decomposed scores, each within its bound beta, only select
    the contenders, every pair scored within 2*beta + TIE_TOLERANCE of the
    least. A merge evaluates the contenders that have no kernel value yet
    in one kernel call (more only when it would pass BATCH_ENTRIES scanned
    scores or masses) and keeps those values until a merge rescores their
    pairs. Working memory is 9*n**2 + 8*n*B + 56*n bytes (scores and which
    of them are kernel values; masses of B blocks; per slot its size,
    reference mass, two row minima, S, F and support size)
    + ~64*BATCH_ENTRIES for the batches.
    """
    n = g.n
    if n < 1:
        raise ValueError("need at least one element to cluster")
    if n == 1:
        return Dendrogram(1, g.r_scaled, ())

    # slot i: mass row, size (0 once retired), node id, heights row/column
    mass = np.zeros((n, max(len(g.sizes), 1)), dtype=np.int64)
    mass[g.elems, np.repeat(np.arange(len(g.sizes)), g.indptr[1:] - g.indptr[:-1])] = g.weights
    count = np.bincount(g.elems, minlength=n)  # |supp|
    total = np.bincount(g.elems, g.weights.astype(float), n)  # S
    flog = np.bincount(g.elems, _xlogx(g.weights), n)  # F
    size = np.ones(n, dtype=np.int64)
    ref = np.array([float(c * g.r_scaled) for c in range(n + 1)])  # exact int c*r, rounded once
    node = list(range(n))
    # score of the union of slots a < b at [a, b]; inf below the diagonal and
    # in the row and column of every retired slot
    heights = np.full((n, n), np.inf)
    exact = np.zeros((n, n), dtype=bool)  # heights[a, b] is information_sum's value
    beta = 0.0  # largest error bound of any score so far

    def fill(a, others):
        # slot a's union scores with others, BATCH_ENTRIES gathered masses per call
        nonlocal beta
        cols = np.flatnonzero(mass[a])  # slot a's support
        rows = max(1, BATCH_ENTRIES // max(len(cols), 1))
        for i in range(0, len(others), rows):
            o = others[i : i + rows]
            h, err = union_scores(mass, cols, a, o, total, flog, count, ref[size[o] + size[a]])
            heights[np.minimum(o, a), np.maximum(o, a)] = h
            beta = max(beta, err.max())

    def canonical(r, c):
        # information_sum of the unions of slots r[i] and c[i], BATCH_ENTRIES masses per call
        k = max(1, BATCH_ENTRIES // mass.shape[1])
        parts = [(r[i : i + k], c[i : i + k]) for i in range(0, len(r), k)]
        return np.concatenate([information_sum(mass[x] + mass[y], ref[size[x] + size[y]])
                               for x, y in parts])

    for a in range(n - 1):
        fill(a, np.arange(a + 1, n))
    low = heights.min(axis=1)  # each row's minimum
    # at most each row's least score not yet replaced by a kernel value; exact once scanned
    fresh = low.copy()
    merges = []
    for step in range(n - 1):
        # contenders: each score is within beta of its entropy, so these hold every
        # pair whose entropy may lie within TIE_TOLERANCE of the least
        band = low.min() + 2 * beta + TIE_TOLERANCE
        near, k = np.flatnonzero(fresh <= band), max(1, BATCH_ENTRIES // n)
        for s in (near[i : i + k] for i in range(0, len(near), k)):
            h = heights[s]
            i, c = np.nonzero((h <= band) & ~exact[s])
            if len(i):  # a kernel value stays until a merge rescores its pair
                h[i, c] = heights[s[i], c] = canonical(s[i], c)
                exact[s[i], c] = True
            low[s] = h.min(axis=1)
            h[exact[s]] = np.inf
            fresh[s] = h.min(axis=1)
        # every pair within TIE_TOLERANCE of the least now holds its kernel value; slot
        # indices are least elements, so the least tied union is the first tied row and column
        band = low.min() + TIE_TOLERANCE
        a = int(np.argmax(low <= band))
        b = int(np.argmax(heights[a] <= band))
        # rescan row a and the rows whose minimum was in column a or b; others compare column a
        hit = (low == heights[:, a]) | (low == heights[:, b])
        stale = np.append(np.flatnonzero(hit & (low < np.inf)), a)
        mass[a] += mass[b]
        m = mass[a][mass[a] > 0]
        total[a], flog[a], count[a] = m.astype(float).sum(), _xlogx(m).sum(), len(m)
        size[a], size[b] = size[a] + size[b], 0
        merges.append(Merge(*sorted((node[a], node[b])), float(heights[a, b]), int(size[a])))
        node[a] = n + step
        heights[b, :] = heights[:, b] = low[b] = fresh[b] = np.inf
        exact[a, :] = exact[:, a] = False
        fill(a, np.flatnonzero((size > 0) & (np.arange(n) != a)))
        low[:a] = np.minimum(low[:a], heights[:a, a])
        fresh[:a] = np.minimum(fresh[:a], heights[:a, a])
        low[stale] = heights[stale].min(axis=1)
        fresh[a] = low[a]

    if merges[-1].size != n:
        raise RuntimeError("internal: agglomeration did not consume all elements")
    return Dendrogram(n, g.r_scaled, tuple(merges))


def cut(d: Dendrogram, k: int) -> ClusterSet:
    """Flat clusters from undoing the last k-1 merges (by merge order, not
    height: heights are not monotone). Clusters are labeled 0..k-1 in order
    of their smallest element."""
    n = d.n
    if not 1 <= k <= n:
        raise ValueError(f"cut size must be in 1..{n}, got {k}")
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step in range(n - k):
        m = d.merges[step]
        groups[n + step] = groups.pop(m.left) + groups.pop(m.right)
    clusters = sorted(groups.values(), key=min)
    labels = [0] * n
    for lab, elems in enumerate(clusters):
        for e in elems:
            labels[e] = lab
    return ClusterSet(k, tuple(labels))


def score_accuracy(clusters: ClusterSet, labels: Sequence[str]) -> tuple[int, int]:
    """Majority-label accuracy of a flat clustering against ground truth.

    Each cluster maps to its most frequent ground-truth label; within-cluster
    ties resolve to the lexicographically smallest tied label (either tied
    choice leaves the error count unchanged). Returns (correct, total).
    """
    total = len(clusters.labels)
    if len(labels) != total or any(lab is None for lab in labels):
        raise ValueError("ground-truth labels must cover every element")
    correct = 0
    for cluster_lab in range(clusters.k):
        counts = Counter(labels[e] for e in clusters.members(cluster_lab))
        best = max(counts.values())
        mapped = min(lab for lab, c in counts.items() if c == best)
        correct += counts[mapped]
    return correct, total


# --- serialization -------------------------------------------------------

DENDROGRAM_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "r", "merges"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "r": {"type": "string", "pattern": r"^\d+\.\d+$"},
        "merges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["left", "right", "height", "size"],
                "additionalProperties": False,
                "properties": {
                    "left": {"type": "integer", "minimum": 0},
                    "right": {"type": "integer", "minimum": 0},
                    "height": {"type": "number"},
                    "size": {"type": "integer", "minimum": 2},
                },
            },
        },
    },
}


def to_json(d: Dendrogram) -> str:
    """Serialize to the JSON layout described by DENDROGRAM_JSON_SCHEMA.
    Leaf node ids are 0..n-1, merge node ids n..2n-2 in merge order."""
    doc = {
        "n": d.n,
        "r": fp.format_decimal(d.r_scaled),
        "merges": [
            {"left": m.left, "right": m.right, "height": m.height, "size": m.size}
            for m in d.merges
        ],
    }
    return json.dumps(doc)


def to_newick(d: Dendrogram) -> str:
    """Serialize as a Newick tree with 1-based leaf labels.

    Branch lengths are merge heights clamped at zero (Newick consumers
    reject negative lengths); the raw heights ride along in one leading
    bracket comment, in merge order. Leaves get length 0.
    """
    parts = {i: f"{i + 1}:0.0" for i in range(d.n)}
    for idx, m in enumerate(d.merges):
        length = max(m.height, 0.0)
        parts[d.n + idx] = f"({parts.pop(m.left)},{parts.pop(m.right)}):{length!r}"
    (root,) = parts.values()
    raw = ",".join(repr(m.height) for m in d.merges) or "none"
    return f"[raw heights: {raw}]\n{root};"
