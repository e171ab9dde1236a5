"""Greedy minimum-projection-entropy clustering.

Starting from singletons, repeatedly merge the pair of clusters whose union
has the smallest projection entropy, recording that entropy as the merge
height. Heights may be negative (weights above the recurrence base) and are
not monotone across merges, so flat clusters are produced by undoing merges
in reverse merge order rather than by thresholding heights.

The engine keeps every live cluster in a slot (:class:`_Slots`): the
positions of its entries among the allocation's CSR entries, which are
block-major and so are also the block-to-slot incidence; its total mass S
and sum F of f(m) = m*ln(m); and a row and column of an n-by-n matrix of
union scores, with each row's minimum cached. A score (:func:`union_scores`)
of slots a and o, (S_u*ln(Nr) - F_a - F_o - G_ao)/Nr, is in closed form for
every slot at once; only the correction G_ao, over the blocks a and o share,
reads entries: those of the blocks in a's support, at most BATCH_ENTRIES per
batch. A score is within its bound beta of the kernel's entropy. Each
merge's contenders are the pairs scored
within 2*beta + TIE_TOLERANCE of the least; :func:`information_sum`
replaces the score of each contender that has no kernel value yet, and that
value stays until a merge rescores the pair. A second row cache, a lower
bound on each row's least score without a kernel value that a scan of the
row makes exact, limits the search for such contenders, so pairs that tie
merge after merge are evaluated and scanned once. The least tied pair is
then read from the row minima, and its value is the merge height. A merge
keeps the union in the lower of its two slots, so slot i always holds the
cluster whose least element is i. It moves the other slot's entries over
(adding those in shared blocks, which die), retires that slot (inf row and
column) and rescores the kept slot's pairs. The kept row and rows whose
minimum was in a merged column are rescanned; the others compare one new
entry.
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
# Gathered entries per score batch, dense union-row masses per kernel call;
# temporaries take ~64 bytes per entry.
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
    """f(m) = m * ln(m) of positive integer masses, as floats."""
    x = m.astype(float)
    y = np.log(x)
    y *= x  # in place: the set-up's temporaries set gea()'s peak memory
    return y


class _Slots:
    """Slot masses as the allocation's CSR entries. Entry e of block
    ``blk[e]`` (entries of block j at ``ptr[j]:ptr[j+1]``) holds ``mass[e]``
    of slot ``owner[e]`` and ``f[e]`` = f(mass[e]); ``pos[s]`` lists slot s's
    entries in block order, one per block of its support. Per slot, ``total``
    is S, ``flog`` is F and ``count`` the support size. An entry that a merge
    empties is dead, mass and f 0, until :meth:`compact` drops it."""

    def __init__(self, g: FeatureAllocation):
        n, self.dead = g.n, 0
        self.ptr = g.indptr.copy()
        self.blk = np.repeat(np.arange(len(g.sizes)), self.ptr[1:] - self.ptr[:-1])
        self.owner, self.mass = g.elems.copy(), g.weights.copy()
        self.f = _xlogx(self.mass)
        self.count = np.bincount(self.owner, minlength=n)
        self.total = np.bincount(self.owner, self.mass.astype(float), n)
        self.flog = np.bincount(self.owner, self.f, n)
        self.pos = np.split(np.argsort(self.owner, kind="stable"), np.cumsum(self.count)[:-1])

    def merge(self, a: int, b: int) -> None:
        """Move slot b's entries to slot a: those in a block a holds add to
        a's entry there and die, the others change owner."""
        pa, pb = self.pos[a], self.pos[b]
        ba, bb = self.blk[pa], self.blk[pb]
        at = np.searchsorted(ba, bb)  # also where b's position goes among a's
        hit = ba[np.minimum(at, len(ba) - 1)] == bb if len(ba) else np.zeros(len(bb), bool)
        ea, eb, new = pa[at[hit]], pb[hit], pb[~hit]
        m = self.mass[ea] + self.mass[eb]
        self.mass[ea], self.f[ea] = m, _xlogx(m)
        self.mass[eb] = self.f[eb] = 0
        self.owner[new] = a
        at = at[~hit] + np.arange(len(new))  # insert without a sort
        p, old = np.empty(len(pa) + len(new), pa.dtype), np.ones(len(pa) + len(new), bool)
        p[at], old[at] = new, False
        p[old] = pa
        self.pos[a], self.pos[b] = p, pb[:0]
        self.total[a], self.flog[a], self.count[a] = self.mass[p].astype(float).sum(), self.f[p].sum(), len(p)
        self.dead += len(eb)

    def compact(self) -> None:
        """Drop the dead entries once they are half the array; called after
        :meth:`merge` returns, so that its temporaries are freed first."""
        if 2 * self.dead >= len(self.mass):
            keep = self.mass > 0
            at = np.cumsum(keep) - 1  # a kept entry's new position
            self.ptr[1:] = at[self.ptr[1:] - 1] + 1
            for name in ("blk", "owner", "mass", "f"):
                setattr(self, name, getattr(self, name)[keep])
            for s, q in enumerate(self.pos):
                self.pos[s] = at[q]
            self.dead = 0

    def union_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Dense block masses of the unions of slots x[i] and y[i], one row
        each, added from one row per distinct slot."""
        on = np.zeros(len(self.pos), bool)
        on[x] = on[y] = True
        u = np.flatnonzero(on)
        if 16 * len(u) < len(self.owner):  # few slots: concatenate their position lists
            e = np.concatenate([self.pos[s] for s in u.tolist()])
        else:  # many: one pass over the owners (dead entries belong to retired slots)
            e = np.flatnonzero(on[self.owner])
        row = np.cumsum(on) - 1  # a slot's row among the distinct slots
        d = np.zeros((row[-1] + 1, max(len(self.ptr) - 1, 1)), np.int64)
        d[row[self.owner[e]], self.blk[e]] = self.mass[e]
        return d[row[x]] + d[row[y]]


def _batches(cum: np.ndarray) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of consecutive runs of blocks, with entry counts
    summing to ``cum``, that hold at most BATCH_ENTRIES entries in all, or
    one block."""
    lo, out = 0, []
    while lo < len(cum):
        hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + BATCH_ENTRIES, "right"))
        out.append((lo, max(hi, lo + 1)))
        lo = out[-1][1]
    return out


def union_scores(slots: _Slots, a: int, o: np.ndarray, nr: np.ndarray, above: bool = False):
    """Scores of the unions of slot a with the slots ``o``, and a bound on
    each score's distance from :func:`information_sum`'s value.

    ``nr`` holds each union's float Nr. The kernel's sum of (s/Nr)*ln(Nr/s)
    is (S_u*ln(Nr) - F_u)/Nr, S_u = S_a + S_o, and F_u = F_a + F_o + G_ao,
    where G_ao sums f(m_a + m_o) - f(m_a) - f(m_o) over the blocks a and o
    share: a pair that shares no block scores in closed form. G is read, one
    log per entry, from the entries of the blocks in a's support,
    BATCH_ENTRIES entries per batch (:func:`_batches`), and summed per owning
    slot; a's own and dead entries land on slots that are not scored. With
    ``above``, before any merge, only the entries after a's own in each block
    are read: slots are elements then, which ascend in a block, so these are
    the entries of the slots above a. Masses are integers, so Nr >= 2 and
    all these terms are >= 0. A rounded term is off by a few u times its
    operands, u the unit roundoff, and a sum of k terms by k*u times their
    sum (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3-4).
    G's operands add up to at most F_u + F_a + F_o <= 2*F_u; with
    K = |supp a| + |supp o| + 16 (16 per term's conversions, log and
    products) the score is off by at most K*u*(S_u*ln(Nr) + 3*F_u)/Nr, and
    the kernel by 1.5*K*u*(S_u*ln(Nr) + F_u)/Nr, as its ln(Nr/s) costs
    u*s/Nr and Nr >= 2. The bound 4*K*u*(S_u*ln(Nr) + 3*F_u)/Nr covers both.
    """
    p = slots.pos[a]
    j = slots.blk[p]
    start = p + 1 if above else slots.ptr[j]
    j += 1
    lens = slots.ptr[j]
    lens -= start
    cum = np.cumsum(lens)
    start += lens
    start -= cum  # entry k of the gather, in block i, is start[i] + k
    g = np.zeros(len(slots.total))
    for lo, hi in _batches(cum):
        k = lens[lo:hi]
        e = np.arange(cum[lo] - k[0], cum[hi - 1]) + np.repeat(start[lo:hi], k)
        x = np.repeat(slots.mass[p[lo:hi]], k).astype(float)
        x += slots.mass[e]  # in floats: a's own entries may pass int64
        t = np.log(x)  # x >= 1, as each of a's masses is
        t *= x
        t -= np.repeat(slots.f[p[lo:hi]], k)
        t -= slots.f[e]
        g += np.bincount(slots.owner[e], t, len(g))
    sl = (slots.total[a] + slots.total[o]) * np.log(nr)
    fu = slots.flog[a] + slots.flog[o] + g[o]
    err = (slots.count[o] + (slots.count[a] + 16)) * (4 * _UNIT_ROUNDOFF) * (sl + 3 * fu) / nr
    return (sl - fu) / nr, err


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
    scores or union-row masses) and keeps those values until a merge
    rescores their pairs. Working memory is at most about
    9*n**2 + 80*nnz + 112*B + 200*n + 128*BATCH_ENTRIES bytes: scores and
    which of them are kernel values; per entry its block, owner, mass, f
    and position, and as much again while they are built or compacted; per
    block its pointer and, once one union row passes BATCH_ENTRIES masses,
    that dense row and the kernel's temporaries on it; per slot its size,
    reference mass, two row minima, S, F, support size and position list;
    and the batches of gathered entries, scanned scores and union rows. No
    array has n*B entries.
    """
    n = g.n
    if n < 1:
        raise ValueError("need at least one element to cluster")
    if n == 1:
        return Dendrogram(1, g.r_scaled, ())

    # slot i: entries, size (0 once retired), node id, heights row/column
    slots = _Slots(g)
    size = np.ones(n, dtype=np.int64)
    ref = np.array([float(c * g.r_scaled) for c in range(n + 1)])  # exact int c*r, rounded once
    node = list(range(n))
    # score of the union of slots a < b at [a, b]; inf below the diagonal and
    # in the row and column of every retired slot
    heights = np.full((n, n), np.inf)
    exact = np.zeros((n, n), dtype=bool)  # heights[a, b] is information_sum's value
    beta = 0.0  # largest error bound of any score so far

    def fill(a, o, above=False):
        # slot a's union scores with the slots o
        nonlocal beta
        if len(o):
            h, err = union_scores(slots, a, o, ref[size[o] + size[a]], above)
            heights[np.minimum(o, a), np.maximum(o, a)] = h
            beta = max(beta, err.max())

    def canonical(r, c):
        # information_sum of the unions of slots r[i] and c[i], BATCH_ENTRIES masses per call
        k = max(1, BATCH_ENTRIES // max(len(g.sizes), 1))
        parts = [(r[i : i + k], c[i : i + k]) for i in range(0, len(r), k)]
        return np.concatenate([information_sum(slots.union_rows(x, y), ref[size[x] + size[y]])
                               for x, y in parts])

    for a in range(n - 1):
        fill(a, np.arange(a + 1, n), True)
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
        slots.merge(a, b)
        slots.compact()
        size[a], size[b] = size[a] + size[b], 0
        merges.append(Merge(*sorted((node[a], node[b])), float(heights[a, b]), int(size[a])))
        node[a] = n + step
        heights[b, :] = heights[:, b] = low[b] = fresh[b] = np.inf
        exact[a, :] = exact[:, a] = False
        fill(a, np.flatnonzero((size > 0) & (np.arange(n) != a)))
        low[:a] = np.minimum(low[:a], heights[:a, a])
        fresh[:a] = np.minimum(fresh[:a], heights[:a, a])
        for s in (stale[i : i + k] for i in range(0, len(stale), k)):
            low[s] = heights[s].min(axis=1)
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
