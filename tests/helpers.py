"""Shared test utilities: independent oracles and random input builders.

The agglomeration oracle here recomputes every candidate pair entropy from
scratch through the public projection-entropy path, with the same tie rules
as the production engine, so the two implementations share no caching code.
"""
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from gea import fixedpoint as fp
from gea.allocation import _HEADER_RE, _INT64_MAX, FeatureAllocation, _from_tokens
from gea.agglomeration import TIE_TOLERANCE, ClusterSet, Dendrogram
from gea.categorize import CategorizationParams, NumericDataset
from gea.entropy import information_sum, subset_entropy


def ragged(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive entries of a dense k-by-B int64 mass matrix in row order,
    and the row of each: the input form of :func:`information_sum`."""
    row, col = np.nonzero(mass > 0)
    return mass[row, col], row


def _naive_steps(g: FeatureAllocation):
    """From-scratch agglomeration; yields, for each merge, every candidate
    pair's union entropy and the merge as a canonical (left-members,
    right-members) tuple, lexicographically ordered."""
    clusters = [(i,) for i in range(g.n)]
    while len(clusters) > 1:
        scored = []  # a union that meets no block scores 0
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                union = clusters[i] + clusters[j]
                scored.append((subset_entropy(g, union), i, j))
        best = min(h for h, _, _ in scored)
        ties = [(i, j) for h, i, j in scored if h <= best + TIE_TOLERANCE]
        i, j = min(ties, key=lambda p: tuple(sorted(clusters[p[0]] + clusters[p[1]])))
        a, b = clusters[i], clusters[j]
        yield [h for h, _, _ in scored], tuple(sorted((tuple(sorted(a)), tuple(sorted(b)))))
        clusters = [c for t, c in enumerate(clusters) if t not in (i, j)]
        clusters.append(tuple(sorted(a + b)))


def naive_gea_members(g: FeatureAllocation) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The oracle's merge sequence as canonical member tuples."""
    return [merge for _, merge in _naive_steps(g)]


def naive_gea_ties(g: FeatureAllocation):
    """The oracle's merge sequence, as :func:`naive_gea_members` gives it,
    and per merge the number of candidate pairs within TIE_TOLERANCE of the
    best (1 when the step has no tie)."""
    members, tied = [], []
    for heights, merge in _naive_steps(g):
        best = min(heights)
        members.append(merge)
        tied.append(sum(h <= best + TIE_TOLERANCE for h in heights))
    return members, tied


def full_scan_gea(g: FeatureAllocation) -> list[tuple[int, int, float, int]]:
    """Reference engine without a row-minimum cache, decomposed scores or
    contenders: (left, right, height, size) per merge, with gea()'s node
    ids, tie rule and kept-lower-slot rule. Masses are scattered from the
    CSR arrays into a dense matrix; every step scans the whole n-by-n
    matrix of union entropies with argwhere, and a merge refills the kept
    slot's pairs in one unbatched information_sum call over dense union
    rows. Fast enough for n in the hundreds, where the from-scratch oracle
    is not."""
    n, r_s = g.n, g.r_scaled
    mass = np.zeros((n, max(len(g.sizes), 1)), dtype=np.int64)
    mass[g.elems, np.repeat(np.arange(len(g.sizes)), np.diff(g.indptr))] = g.weights
    node, members = list(range(n)), [(i,) for i in range(n)]
    heights = np.full((n, n), np.inf)

    def fill(a, others):
        o = np.array(others, dtype=np.intp)
        ref = np.array([float((len(members[a]) + len(members[j])) * r_s) for j in others])
        heights[np.minimum(o, a), np.maximum(o, a)] = information_sum(*ragged(mass[o] + mass[a]), ref)

    for a in range(n - 1):
        fill(a, list(range(a + 1, n)))
    merges = []
    for step in range(n - 1):
        ties = np.argwhere(heights <= heights.min() + TIE_TOLERANCE).tolist()
        a, b = min(ties, key=lambda p: tuple(sorted(members[p[0]] + members[p[1]])))
        mass[a] += mass[b]
        members[a], members[b] = tuple(sorted(members[a] + members[b])), ()
        merges.append((*sorted((node[a], node[b])), float(heights[a, b]), len(members[a])))
        node[a] = n + step
        heights[b, :] = heights[:, b] = np.inf
        fill(a, [o for o, m in enumerate(members) if m and o != a])
    return merges


def naive_decision_margin(g: FeatureAllocation) -> float:
    """The oracle's smallest best-versus-runner-up height gap over all merge
    steps that have a runner-up (inf when none has, i.e. n <= 2)."""
    gaps = []
    for heights, _ in _naive_steps(g):
        if len(heights) > 1:
            best, runner_up = sorted(heights)[:2]
            gaps.append(runner_up - best)
    return min(gaps, default=math.inf)


def engine_members(d: Dendrogram) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Dendrogram merge sequence in the same canonical form as the oracle."""
    members = {i: (i,) for i in range(d.n)}
    seq = []
    for t, m in enumerate(d.merges):
        a, b = members[m.left], members[m.right]
        seq.append(tuple(sorted((tuple(sorted(a)), tuple(sorted(b))))))
        members[d.n + t] = tuple(sorted(a + b))
    return seq


def reference_cut(d: Dendrogram, k: int) -> ClusterSet:
    """The dict-of-lists cut that the top-down pass of ``cut`` replaced,
    kept as its oracle: each undone merge's member lists are joined, and the
    clusters are labeled in order of their smallest element."""
    n = d.n
    groups = {i: [i] for i in range(n)}
    for step in range(n - k):
        m = d.merges[step]
        groups[n + step] = groups.pop(m.left) + groups.pop(m.right)
    labels = [0] * n
    for lab, elems in enumerate(sorted(groups.values(), key=min)):
        for e in elems:
            labels[e] = lab
    return ClusterSet(k, tuple(labels))


def reference_score_accuracy(clusters: ClusterSet, labels) -> tuple[int, int]:
    """The per-cluster majority count that the one ``Counter`` pass of
    ``score_accuracy`` replaced: each cluster's members found by a scan."""
    correct = sum(
        max(Counter(labels[e] for e in clusters.members(lab)).values()) for lab in range(clusters.k)
    )
    return correct, len(labels)


def reference_to_newick(d: Dendrogram) -> str:
    """The writer that the one-walk ``to_newick`` replaced, kept as its
    oracle: each merge copies its children's strings into its own, so it
    takes time quadratic in the depth of the tree."""
    parts = {i: f"{i + 1}:0.0" for i in range(d.n)}
    for idx, m in enumerate(d.merges):
        length = max(m.height, 0.0)
        parts[d.n + idx] = f"({parts.pop(m.left)},{parts.pop(m.right)}):{length!r}"
    (root,) = parts.values()
    raw = ",".join(repr(m.height) for m in d.merges) or "none"
    return f"[raw heights: {raw}]\n{root};"


def scaled_allocation(n: int, blocks, r_scaled: int = fp.SCALE) -> FeatureAllocation:
    """An allocation from maps of element id to weight in fixed-point units,
    built exactly through :meth:`FeatureAllocation.from_weights`."""
    return FeatureAllocation.from_weights(
        n,
        [{e: Fraction(w, fp.SCALE) for e, w in b.items()} for b in blocks],
        Fraction(r_scaled, fp.SCALE),
    )


def random_allocation(
    rng,
    max_n: int = 12,
    max_blocks: int = 8,
    max_weight: float = 3.0,
    r_choices=(0.5, 1.0, 2.0),
    min_n: int = 2,
) -> FeatureAllocation:
    """Random allocation with fixed-point weights up to ``max_weight``."""
    n = rng.randint(min_n, max_n)
    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        size = rng.randint(1, n)
        elems = rng.sample(range(n), size)
        entries = {e: rng.randint(1, int(max_weight * fp.SCALE)) for e in elems}
        blocks.append(entries)
    r = rng.choice(r_choices)
    return scaled_allocation(n, blocks, fp.from_number(r))


def random_integer_allocation(rng, max_n: int = 10, max_blocks: int = 10,
                              max_weight: int = 3, min_n: int = 1) -> FeatureAllocation:
    """Random allocation whose weights are whole multiples of 1 (integral
    block sizes), as the telescoped entropy form requires."""
    n = rng.randint(min_n, max_n)
    blocks = []
    for _ in range(rng.randint(0, max_blocks)):
        size = rng.randint(1, n)
        elems = rng.sample(range(n), size)
        entries = {e: rng.randint(1, max_weight) * fp.SCALE for e in elems}
        blocks.append(entries)
    return scaled_allocation(n, blocks)


def reference_parse_allocation_text(text: str) -> FeatureAllocation:
    """The per-line, per-token allocation text parser that the vectorized
    ``parse_allocation_text`` replaced, kept as its oracle: each token goes
    through ``str.partition``, ``int`` and ``fp.from_decimal``."""
    from array import array

    n = r_scaled = None
    starts, elems, weights = array("q", [0]), array("q"), array("q")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ValueError(f"line {lineno}: expected header 'n=<int> r=<decimal>'")
            n = int(m.group(1))
            if n > _INT64_MAX:  # elements go to int64 buffers
                raise ValueError(f"element count must be an int in [0, 2**63), got {n!r}")
            try:
                r_scaled = fp.from_decimal(m.group(2))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad recurrence base: {exc}") from None
            if not 0 < r_scaled <= _INT64_MAX:
                raise ValueError(
                    f"line {lineno}: recurrence base must be positive and at most "
                    f"{fp.format_decimal(_INT64_MAX)}"
                )
            continue
        for tok in line.split():
            elem_s, colon, weight_s = tok.partition(":")
            if not elem_s.isdecimal():
                raise ValueError(f"line {lineno}: malformed token {tok!r}")
            if not 1 <= (elem := int(elem_s)) <= n:
                raise ValueError(f"line {lineno}: element {elem} outside 1..{n}")
            weight = fp.SCALE
            if colon:
                try:
                    weight = fp.from_decimal(weight_s)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: malformed token {tok!r}: {exc}") from None
                if weight <= 0:
                    raise ValueError(f"line {lineno}: non-positive weight in {tok!r}")
                if weight > _INT64_MAX:
                    raise ValueError(
                        f"line {lineno}: weight in {tok!r} exceeds the largest supported "
                        f"block size {fp.format_decimal(_INT64_MAX)}"
                    )
            elems.append(elem - 1)
            weights.append(weight)
        starts.append(len(elems))
    if n is None:
        raise ValueError("missing header line 'n=<int> r=<decimal>'")
    return _from_tokens(n, starts, [elems, weights], r_scaled)


def reference_categorize(ds: NumericDataset, params: CategorizationParams) -> FeatureAllocation:
    """The per-value categorization loop that the array ``categorize``
    replaced, kept as its oracle: every value is multiplied by d and snapped
    in Python floats, and adds each of the 2m+1 offsets' nonzero weights to
    its category's dict, keyed by the exact int grid value."""
    m, gamma = params.m, params.gamma
    offsets = [(mu, fp.from_number((1 - abs(mu) / (m + 1)) ** gamma)) for mu in range(-m, m + 1)]
    offsets = [(mu, w) for mu, w in offsets if w]
    cats: dict[int, dict[int, int]] = {}
    for e, row in enumerate(ds.values):
        for name, v in zip(ds.dims, row):
            y = v * params.d
            if not math.isfinite(y):
                raise ValueError(f"row {e}, dimension {name!r}: {v!r} * d overflows the grid")
            g0 = math.floor(y + 0.5) if y >= 0 else -math.floor(-y + 0.5)  # ties away from zero
            for mu, w in offsets:
                entries = cats.setdefault(g0 + mu, {})
                entries[e] = entries.get(e, 0) + w
    blocks = [cats[key] for key in sorted(cats)]  # a block's rows arrive ascending
    elems = np.fromiter((e for b in blocks for e in b), np.int64)
    weights = np.fromiter((w for b in blocks for w in b.values()), np.int64)
    indptr = np.cumsum([0, *map(len, blocks)])
    return FeatureAllocation(ds.n, indptr, elems, weights, fp.from_number(params.r))


def weighted_lines(rng, count, n=50, width=(2, 12)):
    """``count`` block lines of random ``element:weight`` tokens."""
    return [
        " ".join(f"{rng.randint(1, n)}:{rng.randint(1, 20) / 4}" for _ in range(rng.randint(*width)))
        for _ in range(count)
    ]


def simpson(f, a: float, b: float, intervals: int) -> float:
    """Composite Simpson quadrature of f over [a, b] with an even number
    of intervals."""
    if intervals < 2 or intervals % 2:
        raise ValueError("intervals must be even and >= 2")
    h = (b - a) / intervals
    acc = f(a) + f(b)
    for i in range(1, intervals):
        acc += f(a + i * h) * (4 if i % 2 else 2)
    return acc * h / 3


def entropy_by_hand(sizes_and_terms, n: int, r: float) -> float:
    """Plain-python evaluation of the size-weighted information sum, used to
    freeze expected values independently of the library."""
    nr = n * r
    return sum((s / nr) * math.log(nr / s) for s in sizes_and_terms)
