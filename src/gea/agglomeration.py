"""Greedy minimum-projection-entropy clustering.

Starting from singletons, repeatedly merge the pair of clusters whose union
has the smallest projection entropy, recording that entropy as the merge
height. Heights may be negative (weights above the recurrence base) and are
not monotone across merges, so flat clusters are produced by undoing merges
in reverse merge order rather than by thresholding heights.

The engine keeps every live cluster in a slot (:class:`_Slots`): the
positions of its entries among the allocation's CSR entries, which are
block-major and so are also the block-to-slot incidence; its total mass S
and sum F of f(m) = m*ln(m); and a row of its union scores with every later
slot, the row's minimum cached. The rows are one packed upper triangle of
n(n-1)/2 scores (the condensed form of Muellner 2011, arXiv:1109.2378), and
column c is a gather over rows 0..c-1. A score (:func:`union_scores`)
of slots a and o, (S_u*ln(Nr) - F_a - F_o - G_ao)/Nr, is in closed form for
every slot at once; only the correction G_ao, over the blocks a and o share,
reads entries: those of the blocks in a's support, at most BATCH_ENTRIES per
batch. The first scores, of every pair of elements, fill the packed cells of
groups of consecutive rows, one bincount of corrections per group; each merge
then rescores its kept slot alone, the one-row case of the same function.
A score is within its bound beta of the kernel's entropy. Each
merge's contenders are the pairs scored within 2*beta + TIE_TOLERANCE of
the least. The least row minimum names a row; when no other row minimum
and no other score of that row lies in that band, its least pair is a lone
contender and merges at once: the kernel could not change the decision
(see :func:`gea`). Otherwise :func:`information_sum` replaces the
score of each contender that has no kernel value yet, and that value stays
until a merge rescores the pair. A second row cache, a lower bound on each
row's least score without a kernel value that a scan of the row makes
exact, limits the search for such contenders, so pairs that tie merge
after merge are evaluated and scanned once. The least tied pair is then
read from the row minima. A merge keeps the union in the lower of its two
slots, so slot i always holds the cluster whose least element is i. It
moves the other slot's entries over (adding those in shared blocks, which
die), retires that slot (inf row and column) and rescores the kept slot's
pairs. The merge height is the kernel's value on the kept slot's masses,
which the merge gathers once, passed as one ragged row: the kernel takes
positive masses in row order with a row id each, not dense rows. The kept
row and rows whose minimum was in a merged column are rescanned; the
others compare one new entry.
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
# Gathered entries per score batch, dense union-row masses per kernel call,
# and gathered entries plus scores per set-up row group; temporaries take ~64
# bytes per entry.
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

    def merge(self, a: int, b: int) -> np.ndarray:
        """Move slot b's entries to slot a: those in a block a holds add to
        a's entry there and die, the others change owner. Returns a's new
        masses in block order."""
        pa, pb = self.pos[a], self.pos[b]
        ba, bb = self.blk[pa], self.blk[pb]
        at = ba.searchsorted(bb)
        hit = ba[np.minimum(at, len(ba) - 1)] == bb if len(ba) else np.zeros(len(bb), bool)
        ea, eb, new = pa[at[hit]], pb[hit], pb[~hit]
        m = self.mass[ea] + self.mass[eb]
        self.mass[ea], self.f[ea] = m, _xlogx(m)
        self.mass[eb] = self.f[eb] = 0
        self.owner[new] = a
        # entries are block-major, so sorted positions are in block order; timsort merges two runs
        p = np.sort(np.concatenate((pa, new)), kind="stable")
        m = self.mass[p]
        self.pos[a], self.pos[b] = p, pb[:0].copy()  # a view would keep all of pb
        self.total[a], self.flog[a], self.count[a] = m.astype(float).sum(), self.f[p].sum(), len(p)
        self.dead += len(eb)
        return m

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
        d = np.zeros((row[-1] + 1, len(self.ptr) - 1), np.int64)
        d[row[self.owner[e]], self.blk[e]] = self.mass[e]
        return d[row[x]] + d[row[y]]


def _batches(cum: np.ndarray):
    """Bounds (lo, hi) of consecutive runs of items (blocks, or rows), with
    entry counts summing to ``cum``, that hold at most BATCH_ENTRIES entries
    in all, or one item."""
    if len(cum) and cum[-1] <= BATCH_ENTRIES:
        return [(0, len(cum))]  # all in one: the common case, without the loop
    lo, out = 0, []
    while lo < len(cum):
        hi = int(np.searchsorted(cum, (cum[lo - 1] if lo else 0) + BATCH_ENTRIES, "right"))
        out.append((lo, max(hi, lo + 1)))
        lo = out[-1][1]
    return out


def union_scores(slots: _Slots, a: slice, r: int | np.ndarray, o: np.ndarray, nr: float | np.ndarray,
                 out: np.ndarray, above: bool = False) -> np.ndarray:
    """Scores of the unions of slots ``r`` and ``o[k]``, one per cell k,
    written to the flat array ``out``; returns each score's bound on its
    distance from :func:`information_sum`'s value. ``r`` is one slot of
    the slice ``a``, or one per cell; ``nr``, each union's float Nr, is one
    value (before any merge each union has two elements) or one per cell.

    The kernel's sum of (s/Nr)*ln(Nr/s) is (S_u*ln(Nr) - F_u)/Nr, with
    S_u = S_r + S_o and F_u = F_r + F_o + G_ro, where G_ro sums
    f(m_r + m_o) - f(m_r) - f(m_o) over the blocks r and o share: a pair
    that shares no block scores in closed form. G is read, one log per
    entry, from the entries of the blocks in the support of each slot of
    ``a``, BATCH_ENTRIES entries per batch (:func:`_batches`, one batch when
    all fit), and summed per row and owning slot with one bincount per
    batch, in block order within each pair; a row's own and dead entries
    land on slots that are not scored.
    With ``above``, before any merge, only the entries after a row's own in
    each block are read: slots are elements then, which ascend in a block,
    so these are the entries of the slots above the row, and every cell
    needs ``o > r``. Masses are integers, so Nr >= 2 and all these terms
    are >= 0. A rounded term is off by a few u times its operands, u the
    unit roundoff, and a sum of k terms by k*u times their sum (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3-4). G's
    operands add up to at most F_u + F_r + F_o <= 2*F_u; with
    K = |supp r| + |supp o| + 16 (16 per term's conversions, log and
    products) the score is off by at most K*u*(S_u*ln(Nr) + 3*F_u)/Nr, and
    the kernel by 1.5*K*u*(S_u*ln(Nr) + F_u)/Nr, as its ln(Nr/s) costs
    u*s/Nr and Nr >= 2. The bound 4*K*u*(S_u*ln(Nr) + 3*F_u)/Nr covers
    both. Each pair's terms and their order are the same however many rows
    a call scores, so are its score and bound, bit for bit.
    """
    n, rows = len(slots.total), a.stop - a.start
    p = slots.pos[a.start] if rows == 1 else np.concatenate(slots.pos[a])
    j = slots.blk[p]
    start = p + 1 if above else slots.ptr[j]
    j += 1
    lens = slots.ptr[j]
    lens -= start
    cum = lens.cumsum()
    start += lens
    start -= cum  # entry k of the gather, in block i, is start[i] + k
    if rows > 1:  # where the row of each of p's blocks starts in g
        span = np.arange(0, rows * n, n).repeat(slots.count[a])
    g = np.zeros(rows * n)
    for lo, hi in _batches(cum):
        k = lens[lo:hi]
        e = np.arange(cum[lo] - k[0], cum[hi - 1]) + start[lo:hi].repeat(k)
        x = slots.mass[p[lo:hi]].astype(float).repeat(k)
        x += slots.mass[e]  # in floats: a's own entries may pass int64
        t = np.log(x)  # x >= 1, as each of a's masses is
        t *= x
        del x
        t -= slots.f[p[lo:hi]].repeat(k)
        t -= slots.f[e]
        e = slots.owner[e]
        if rows > 1:
            e += span[lo:hi].repeat(k)
        g += np.bincount(e, t, len(g))
    fu = g[(r - a.start) * n + o]
    del g  # before the closed form's temporaries: a set-up group's g may be the largest array
    fu += slots.flog[r] + slots.flog[o]  # F_u, in place like the bound below
    sl = (slots.total[r] + slots.total[o]) * np.log(nr)
    err = fu * 3
    err += sl
    err *= (slots.count[o] + (slots.count[r] + 16)) * (4 * _UNIT_ROUNDOFF)
    err /= nr
    sl -= fu
    np.divide(sl, nr, out=out)
    return err


def gea(g: FeatureAllocation) -> Dendrogram:
    """Cluster an allocation's elements; deterministic for a given input.

    Every candidate union is scored by its projection entropy with the
    subset's own element count and the allocation's recurrence base. The
    set-up scores every pair in groups of consecutive rows, one
    :func:`union_scores` call on each group's packed cells, whose gathered
    entries plus n a row are at most BATCH_ENTRIES (or one row); a merge
    rescores the kept slot's pairs in one call. Score matrices that cannot
    be allocated raise ValueError. The merge with minimal entropy wins;
    near-exact ties (within ``TIE_TOLERANCE``) go to the union whose sorted
    element ids compare least: the least tied (row, column) slot pair.
    Decisions use :func:`information_sum` values: the decomposed scores,
    each within its bound beta, only select the contenders, every pair
    scored within 2*beta + TIE_TOLERANCE of the least. A merge first takes
    the row a of the least row minimum; when that row minimum is the only
    one in the band and its score the only one of row a there, the pair is
    a lone contender and wins without the kernel. The least entry is
    exact, so its pair's entropy is at most least + beta and every other
    pair's entropy is above least + 2*beta + TIE_TOLERANCE - beta; the lone
    pair is thus below every other by more than TIE_TOLERANCE, and the tie
    rule picks it whatever the kernel's values are. It is also what the
    tie rule would pick from the scores: row a is the first least row, and
    its one score in the band is the row's first minimum. Otherwise a merge
    evaluates the contenders that have no kernel value yet in one kernel
    call (more only when it would pass BATCH_ENTRIES scanned scores or
    union-row masses), on the positive masses of their dense union rows,
    and keeps those values until a merge rescores their pairs. Each height
    is one kernel call on the merged slot's masses in block order, as one
    row: they are the positive entries of the union's dense row in the
    same order, and the kernel sums them left to right, so the height is
    bit-equal to :func:`subset_entropy` and to the winner's contender
    value. Working memory is at most about
    4.5*n*(n-1) + 80*nnz + 112*B + 244*n + 128*BATCH_ENTRIES bytes: the
    packed scores and which of them are kernel values, one of each per pair
    of slots; per entry its block, owner, mass, f and position, and as much
    again while they are built, counted into row groups or compacted; per
    block its pointer and, once one union row passes BATCH_ENTRIES masses,
    that dense row and the kernel's temporaries on it; per slot its size,
    reference mass, two row minima, S, F, support size, position list,
    packed row offset and row start (a Python int); and the batches of
    gathered entries, scanned scores and union rows, and a set-up group's
    corrections (n a row) and its cells' row and column indices, at most
    BATCH_ENTRIES of each. No array has n*B entries.
    """
    n = g.n
    if n < 1:
        raise ValueError("need at least one element to cluster")

    # the score of the union of slots r < c, packed by rows: row r is heights[rs[r] : rs[r + 1]],
    # columns r+1..n-1, and (r, c) is at d[r] + c; inf in the row and column of every
    # retired slot. First: an n too large fails before any O(n) work
    try:
        heights = np.full(n * (n - 1) // 2, np.inf)
        exact = np.zeros(len(heights), dtype=bool)  # the score is information_sum's value
    except (MemoryError, ValueError):  # ValueError: past numpy's largest size
        raise ValueError(f"n={n} is too large: the score matrices need {9 * n * (n - 1) // 2} bytes") from None
    rs = np.cumsum(np.arange(n, -1, -1)) - n
    d = rs[:n] - np.arange(1, n + 1)
    rs = rs.tolist()  # slice bounds: Python ints slice faster than numpy's
    # slot i: entries, size (0 once retired), node id, heights row/column
    slots = _Slots(g)
    size = np.ones(n, dtype=np.int64)
    ref = np.array([float(c * g.r_scaled) for c in range(n + 1)])  # exact int c*r, rounded once
    node = list(range(n))
    beta = 0.0  # largest error bound of any score so far

    def canonical(r, c):
        # information_sum of the unions of slots r[i] and c[i], BATCH_ENTRIES masses per call
        k, out = max(1, BATCH_ENTRIES // max(len(g.sizes), 1)), []
        for i in range(0, len(r), k):
            x, y = r[i : i + k], c[i : i + k]
            u = slots.union_rows(x, y)
            at = np.flatnonzero(u > 0)  # each union's positive masses, in block order
            out.append(information_sum(u.ravel()[at], at // u.shape[1], ref[size[x] + size[y]]))
        return np.concatenate(out)

    def packed(rows, *v):
        # the packed rows (none empty), k at a time: each batch's rows, where each starts
        # among them, and their slices of each array of v one after another
        for i in range(0, len(rows), k):
            s = rows[i : i + k]
            lens = n - 1 - s
            at = lens.cumsum()
            at -= lens
            yield s, at, *(np.concatenate([w[rs[r] : rs[r + 1]] for r in s.tolist()]) for w in v)

    # every pair's score, in groups of rows whose gathered entries (a row's, those
    # after its own in each of its blocks) plus n scores a row sum to at most
    # BATCH_ENTRIES, the budget of every batch, or one row; every union has two elements
    after = slots.ptr[1:][slots.blk]
    after -= np.arange(1, len(after) + 1)
    cum = np.cumsum(np.bincount(slots.owner, after, n)[:-1] + n)
    del after
    low = np.full(n, np.inf)  # each row's minimum
    for lo, hi in _batches(cum):  # a group's cells are its rows' packed slices, one after another
        r = np.arange(lo, hi).repeat(np.diff(rs[lo : hi + 1]))
        h = heights[rs[lo] : rs[hi]]
        err = union_scores(slots, slice(lo, hi), r, np.arange(rs[lo], rs[hi]) - d[r], ref[2], h, True)
        beta = max(beta, err.max())
        low[lo:hi] = np.minimum.reduceat(h, np.subtract(rs[lo:hi], rs[lo]))
    # at most each row's least score not yet replaced by a kernel value; exact once scanned
    fresh = low.copy()
    merges = []
    k = max(1, BATCH_ENTRIES // n)
    for step in range(n - 1):
        # contenders: each score is within beta of its entropy, so these hold every
        # pair whose entropy may lie within TIE_TOLERANCE of the least
        a = int(low.argmin())
        band = low[a] + 2 * beta + TIE_TOLERANCE
        # a lone contender's entropy is at most least + beta and every other pair's above
        # least + beta + TIE_TOLERANCE, so it wins whatever the kernel says: it is the
        # first least row and the only column of that row in the band
        if np.count_nonzero(low <= band) + np.count_nonzero(heights[rs[a] : rs[a + 1]] <= band) > 2:
            near = (fresh <= band).nonzero()[0]
            for s, at, h, x in packed(near, heights, exact):
                j = np.flatnonzero((h <= band) & ~x)
                if len(j):  # a kernel value stays until a merge rescores its pair
                    i = at.searchsorted(j, "right") - 1
                    r, c = s[i], j - at[i] + s[i] + 1  # cell j of the batch is (r, c)
                    h[j] = heights[d[r] + c] = canonical(r, c)
                    exact[d[r] + c] = x[j] = True
                low[s] = np.minimum.reduceat(h, at)
                h[x] = np.inf
                fresh[s] = np.minimum.reduceat(h, at)
            h = x = None  # else the lone merges that may follow keep the last batch alive
            # every pair within TIE_TOLERANCE of the least now holds its kernel value;
            # slot indices are least elements, so the least tied union is the first
            # tied row and column
            band = low.min() + TIE_TOLERANCE
            a = int((low <= band).argmax())
        b = a + 1 + int((heights[rs[a] : rs[a + 1]] <= band).argmax())
        # rescan row a and the rows whose minimum was in column a or b; others compare
        # column a. A column's cells are in the rows above the diagonal
        ca, cb = d[:a] + a, d[:b] + b
        stale = low[:b] == heights[cb]
        stale[:a] |= low[:a] == heights[ca]
        stale &= low[:b] < np.inf
        stale[a] = True
        stale = stale.nonzero()[0]
        mass = slots.merge(a, b)
        size[a], size[b] = size[a] + size[b], 0
        # the union's positive masses in block order, as its dense row gives them
        height = information_sum(mass, np.zeros(len(mass), np.intp), ref[size[a] : size[a] + 1])
        del mass  # else it adds to the peaks of the compaction and the rescore
        slots.compact()
        merges.append(Merge(*sorted((node[a], node[b])), float(height[0]), int(size[a])))
        node[a] = n + step
        heights[rs[b] : rs[b + 1]] = heights[cb] = low[b] = fresh[b] = np.inf
        exact[rs[a] : rs[a + 1]] = exact[ca] = False
        o = np.flatnonzero(size)  # rescore the kept slot's pairs; none after the last merge
        o = o[o != a]
        h = np.empty(len(o))
        beta = max(beta, union_scores(slots, slice(a, a + 1), a, o, ref[size[o] + size[a]], h).max(initial=0))
        heights[d[np.minimum(o, a)] + np.maximum(o, a)] = h
        h = heights[ca]
        np.minimum(low[:a], h, out=low[:a])
        np.minimum(fresh[:a], h, out=fresh[:a])
        for s, at, h in packed(stale, heights):
            low[s] = np.minimum.reduceat(h, at)
        fresh[a] = low[a]

    if size[0] != n:  # a merge keeps its lower slot, so slot 0 holds the last union
        raise RuntimeError("internal: agglomeration did not consume all elements")
    return Dendrogram(n, g.r_scaled, tuple(merges))


def cut(d: Dendrogram, k: int) -> ClusterSet:
    """Flat clusters from undoing the last k-1 merges (by merge order, not
    height: heights are not monotone). Clusters are labeled 0..k-1 in order
    of their smallest element."""
    n = d.n
    if not 1 <= k <= n:
        raise ValueError(f"cut size must be in 1..{n}, got {k}")
    root = list(range(2 * n - k))  # per node, the root of the cluster holding it after the cut
    for step in reversed(range(n - k)):  # top-down: a node's root is set before its children's
        m = d.merges[step]
        root[m.left] = root[m.right] = root[n + step]
    ids: dict[int, int] = {}  # root to label, in order of the first leaf
    return ClusterSet(k, tuple(ids.setdefault(root[e], len(ids)) for e in range(n)))


def score_accuracy(clusters: ClusterSet, labels: Sequence[str]) -> tuple[int, int]:
    """Majority-label accuracy of a flat clustering against ground truth.

    Each cluster counts as correct the elements of its most frequent
    ground-truth label. Returns (correct, total).
    """
    total = len(clusters.labels)
    if len(labels) != total or any(lab is None for lab in labels):
        raise ValueError("ground-truth labels must cover every element")
    best: dict[int, int] = {}  # per cluster, its most frequent label's count
    for (cluster, _), count in Counter(zip(clusters.labels, labels)).items():
        best[cluster] = max(best.get(cluster, 0), count)
    return sum(best.values()), total


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
    out, todo = [], [2 * d.n - 2]  # a stack of node ids and text, written as popped: one walk, one join
    while todo:
        m = None if isinstance(x := todo.pop(), str) or x < d.n else d.merges[x - d.n]
        out.append(x if isinstance(x, str) else "(" if m else f"{x + 1}:0.0")
        todo += (f"):{max(m.height, 0.0)!r}", m.right, ",", m.left) if m else ()  # "(left,right):length"
    raw = ",".join(repr(m.height) for m in d.merges) or "none"
    return f"[raw heights: {raw}]\n{''.join(out)};"
