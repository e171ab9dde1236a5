"""Shared test utilities: independent oracles and random input builders.

The agglomeration oracle here recomputes every candidate pair entropy from
scratch through the public projection-entropy path, with the same tie rules
as the production engine, so the two implementations share no caching code.
"""
import math
from collections import Counter

import numpy as np

from gea import fixedpoint as fp
from gea.allocation import _HEADER_RE, _INT64_MAX, FeatureAllocation, _from_tokens
from gea.agglomeration import TIE_TOLERANCE, Dendrogram
from gea.entropy import information_sum, subset_entropy


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
    """Reference engine without a row-minimum cache: (left, right, height,
    size) per merge, with gea()'s node ids, tie rule and kept-lower-slot
    rule. Every step scans the whole n-by-n matrix of union entropies with
    argwhere; a merge refills the kept slot's pairs in one unbatched
    information_sum call. Fast enough for n in the hundreds, where the
    from-scratch oracle is not."""
    n, r_s = g.n, g.r_scaled
    mass = np.zeros((n, max(len(g.blocks), 1)), dtype=np.int64)
    for j, b in enumerate(g.blocks):
        for e, w in b.entries.items():
            mass[e, j] = w
    node, members = list(range(n)), [(i,) for i in range(n)]
    heights = np.full((n, n), np.inf)

    def fill(a, others):
        o = np.array(others, dtype=np.intp)
        ref = np.array([float((len(members[a]) + len(members[j])) * r_s) for j in others])
        heights[np.minimum(o, a), np.maximum(o, a)] = information_sum(mass[o] + mass[a], ref)

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


def scaled_allocation(n: int, blocks, r_scaled: int = fp.SCALE) -> FeatureAllocation:
    """An allocation from maps of element id to weight in fixed-point units,
    built exactly through :meth:`FeatureAllocation.from_weights`."""
    return FeatureAllocation.from_weights(
        n,
        [{e: fp.to_fraction(w) for e, w in b.items()} for b in blocks],
        fp.to_fraction(r_scaled),
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
    starts, elems, weights, excess = array("q", [0]), array("q"), array("q"), Counter()
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
            if r_scaled <= 0:
                raise ValueError(f"line {lineno}: recurrence base must be positive")
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
            elems.append(elem - 1)
            try:
                weights.append(weight)
            except OverflowError:  # so is its block's size, reported once all lines parse
                weights.append(_INT64_MAX)
                excess[len(starts) - 1] += weight - _INT64_MAX
        starts.append(len(elems))
    if n is None:
        raise ValueError("missing header line 'n=<int> r=<decimal>'")
    return _from_tokens(n, starts, elems, weights, excess, r_scaled)


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
