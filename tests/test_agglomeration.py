"""Merge loop, dendrogram cutting, scoring, serialization."""
import json
import math
import random
import re
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gea import agglomeration, fixedpoint as fp
from gea.agglomeration import (
    BATCH_ENTRIES,
    DENDROGRAM_JSON_SCHEMA,
    ClusterSet,
    Dendrogram,
    Merge,
    cut,
    gea,
    score_accuracy,
    to_json,
    to_newick,
)
from gea.allocation import FeatureAllocation, parse_allocation_text
from gea.categorize import CategorizationParams, NumericDataset, categorize
from gea.cli import parse_csv
from gea.entropy import information_sum, subset_entropy

from helpers import (
    engine_members,
    full_scan_gea,
    naive_decision_margin,
    naive_gea_members,
    naive_gea_ties,
    random_allocation,
    random_integer_allocation,
    ragged,
    scaled_allocation,
)

INT64_MAX = 2**63 - 1
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def three_elements():
    # {1,2} share a block; 3 sits alone
    return parse_allocation_text(b"n=3 r=1.0\n1 2\n3\n")


# --- gea ---------------------------------------------------------------------


def test_single_element_has_no_merges():
    g = FeatureAllocation.from_weights(1, [{0: 1}])
    d = gea(g)
    assert d.n == 1 and d.merges == ()


def test_empty_universe_rejected():
    with pytest.raises(ValueError):
        gea(FeatureAllocation.from_weights(0, []))


def test_two_singleton_blocks_merge_at_log2():
    g = parse_allocation_text(b"n=2 r=1.0\n1\n2\n")
    d = gea(g)
    (m,) = d.merges
    assert {m.left, m.right} == {0, 1}
    assert m.size == 2
    assert m.height == pytest.approx(0.6931471805599453, abs=1e-12)


def test_shared_block_pair_merges_first():
    d = gea(three_elements())
    first = d.merges[0]
    assert {first.left, first.right} == {0, 1}
    assert d.merges[1].size == 3


def test_merge_heights_are_union_entropies():
    # the engine and subset_entropy share one kernel, so every height is
    # bit-equal to the entropy of its union, even over many blocks
    rng = random.Random(3)
    for _ in range(60):
        g = random_allocation(rng, max_n=20, max_blocks=200)
        d = gea(g)
        members = {i: (i,) for i in range(g.n)}
        for t, m in enumerate(d.merges):
            union = members[m.left] + members[m.right]
            members[g.n + t] = union
            assert m.height == subset_entropy(g, union)
            assert m.size == len(union)


def test_dendrogram_structure_invariants():
    rng = random.Random(12)
    for _ in range(20):
        g = random_allocation(rng, max_n=10)
        d = gea(g)
        assert len(d.merges) == g.n - 1
        children = [m.left for m in d.merges] + [m.right for m in d.merges]
        assert sorted(children) == sorted(set(children))  # each node a child once
        assert set(children) <= set(range(2 * g.n - 2))
        assert all(m.left < m.right for m in d.merges)
        assert d.merges[-1].size == g.n


def test_determinism_bitwise():
    g = random_allocation(random.Random(5))
    d1, d2 = gea(g), gea(g)
    assert d1 == d2
    assert to_json(d1) == to_json(d2)


def test_zero_one_weights_give_nonnegative_heights():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 9)
        sets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
        d = gea(FeatureAllocation.from_weights(n, [dict.fromkeys(s, 1) for s in sets]))
        assert all(m.height >= -1e-12 for m in d.merges)


def test_engine_matches_naive_oracle():
    rng = random.Random(2024)
    for _ in range(30):
        g = random_allocation(rng, max_n=9)
        assert engine_members(gea(g)) == naive_gea_members(g)


def test_engine_matches_naive_oracle_at_larger_n():
    rng = random.Random(40)
    for _ in range(4):
        g = random_allocation(rng, min_n=30, max_n=40, max_blocks=20)
        assert engine_members(gea(g)) == naive_gea_members(g)


def test_engine_matches_naive_oracle_when_most_steps_tie():
    # 0/1 and small-integer weights make many elements alike, so most steps
    # have several exactly tied pairs, in different rows of the slot matrix
    rng = random.Random(77)
    steps = tied = 0
    for t in range(16):
        g = random_integer_allocation(rng, min_n=8, max_n=30, max_blocks=6 if t % 2 else 3,
                                      max_weight=1 if t % 2 else 2)
        members, ties = naive_gea_ties(g)
        assert engine_members(gea(g)) == members
        steps, tied = steps + len(ties), tied + sum(k > 1 for k in ties)
    assert tied > steps / 2


def test_every_step_ties_when_all_elements_share_their_blocks():
    # every union has the same per-block ratios, so every candidate height
    # is the same float and each step is decided by the tie rule alone
    n = 25
    g = FeatureAllocation.from_weights(n, [dict.fromkeys(range(n), w) for w in (1, 2, 0.3)])
    members, ties = naive_gea_ties(g)
    assert ties == [(n - t) * (n - t - 1) // 2 for t in range(n - 1)]
    d = gea(g)
    assert engine_members(d) == members
    assert len({m.height for m in d.merges}) == 1


def larger_inputs():
    rng = random.Random(61)
    inputs = [
        random_integer_allocation(rng, min_n=60, max_n=150, max_blocks=8, max_weight=1) if t % 2
        else random_allocation(rng, min_n=60, max_n=150, max_blocks=40)
        for t in range(6)
    ]
    # no step of this one ties, yet a merged cluster becomes the best partner
    # of a row above it whose cached minimum lay in another column
    inputs.append(random_allocation(random.Random(1063), min_n=60, max_n=150, max_blocks=40))
    return inputs


def test_engine_matches_full_scan_reference_at_larger_n():
    # many merges at sizes the naive oracle is too slow for, so cached row
    # minima go stale and are rescanned often; heights must be bit-equal
    for g in larger_inputs():
        merges = [(m.left, m.right, m.height, m.size) for m in gea(g).merges]
        assert merges == full_scan_gea(g)


def dense_slot_rows(slots):
    """Every slot's block masses as one dense row, added up from the entry
    arrays (owner, block, mass) alone."""
    rows = np.zeros((len(slots.pos), max(len(slots.ptr) - 1, 1)), dtype=np.int64)
    np.add.at(rows, (slots.owner, slots.blk), slots.mass)
    return rows


def recorded_scores(monkeypatch, noise_seed=None):
    """Route gea()'s score calls through a wrapper that checks every score is
    within its bound of information_sum over dense union rows built from the
    entry arrays; returns, per call, the rows it scores, the pairs it scores,
    the entries of those rows' blocks and, per gathered batch, its entries
    and blocks. With ``noise_seed``, every score moves by a seeded draw
    within half its bound."""
    calls, batches = [], []
    real_scores, real_batches = agglomeration.union_scores, agglomeration._batches
    noise = None if noise_seed is None else np.random.default_rng(noise_seed)

    def batching(cum, *rest):
        bounds = real_batches(cum, *rest)
        batches.append([(int(cum[hi - 1] - (cum[lo - 1] if lo else 0)), hi - lo) for lo, hi in bounds])
        return bounds

    def recording(slots, a, o, nr, out, above=False):
        err = real_scores(slots, a, o, nr, out, above)
        shape = (a.stop - a.start, len(o))
        h, nr, err = out.reshape(shape), np.broadcast_to(nr, shape), err.reshape(shape)
        scored = o > np.arange(a.start, a.stop)[:, None] if above else np.ones(shape, dtype=bool)
        rows = dense_slot_rows(slots)
        for i, s in enumerate(range(a.start, a.stop)):
            assert (np.abs(h[i] - information_sum(*ragged(rows[o] + rows[s]), nr[i])) <= err[i])[scored[i]].all()
        blocks = len(slots.ptr) - 1
        entries = int(((rows[a, :blocks] > 0) @ np.diff(slots.ptr)).sum())
        calls.append((shape[0], int(scored.sum()), entries, batches.pop()))
        if noise is not None:
            out += (noise.uniform(-0.5, 0.5, shape) * err).reshape(out.shape)
        return err

    monkeypatch.setattr(agglomeration, "union_scores", recording)
    monkeypatch.setattr(agglomeration, "_batches", batching)
    return calls


def counted_kernel(monkeypatch):
    """Route gea()'s kernel calls through a wrapper; returns the row count
    of each call, in call order."""
    rows = []

    def counting(mass, row, ref):
        rows.append(len(ref))
        return information_sum(mass, row, ref)

    monkeypatch.setattr(agglomeration, "information_sum", counting)
    return rows


@pytest.mark.parametrize("width, per_call", [(BATCH_ENTRIES // 2 + 1, 1), (BATCH_ENTRIES // 3, 3)])
def test_score_batches_hold_at_most_the_batch_budget(monkeypatch, width, per_call):
    # every element holds all ``width`` blocks, with one seeded weight per
    # block, so all pairs tie at every step: a score call reads its blocks'
    # entries in batches of at most BATCH_ENTRIES (several per call here),
    # and a kernel call holds at most BATCH_ENTRIES // width = ``per_call``
    # pairs. Every pair is scored at the start, every live pair again after
    # a merge.
    rng = random.Random(width)
    n = 5
    g = scaled_allocation(n, [dict.fromkeys(range(n), rng.randint(1, 3 * fp.SCALE)) for _ in range(width)])
    calls, rows = recorded_scores(monkeypatch), counted_kernel(monkeypatch)
    d = gea(g)
    for group, _, entries, batches in calls:
        assert all(k <= BATCH_ENTRIES or blocks == 1 for k, blocks in batches)
        assert sum(k for k, _ in batches) <= entries
        assert sum(blocks for _, blocks in batches) == width * group  # the rows' support
        # a group of rows' gathered entries and scored cells come to at most BATCH_ENTRIES
        assert group == 1 or sum(k for k, _ in batches) + group * n <= BATCH_ENTRIES
    assert max(len(batches) for _, _, _, batches in calls) > 1
    assert sum(k for _, k, _, _ in calls) == n * (n - 1) // 2 + (n - 1) * (n - 2) // 2
    assert max(rows) == per_call
    members = {i: (i,) for i in range(n)}
    for t, m in enumerate(d.merges):
        members[n + t] = members[m.left] + members[m.right]
        assert m.height == subset_entropy(g, members[n + t])
    assert engine_members(d) == naive_gea_members(g)


def test_score_calls_gather_the_slot_support_not_every_block(monkeypatch):
    # over BATCH_ENTRIES blocks, yet each element holds about 1/13 of them:
    # a call reads only the entries of slot a's blocks, in batches within the
    # budget, and scores every other live slot at once
    rng = random.Random(42)
    n = 20
    blocks = [{e: rng.randint(1, 3 * fp.SCALE) for e in rng.sample(range(n), rng.randint(1, 2))}
              for _ in range(BATCH_ENTRIES + 1)]
    g = scaled_allocation(n, blocks)
    calls = recorded_scores(monkeypatch)
    d = gea(g)
    for _, _, entries, batches in calls:
        assert all(k <= BATCH_ENTRIES or b == 1 for k, b in batches)
        assert sum(k for k, _ in batches) <= entries
    assert max(k for _, k, entries, _ in calls if entries * 5 < len(g.elems)) >= 10
    assert [(m.left, m.right, m.height, m.size) for m in d.merges] == full_scan_gea(g)


def first_fill_inputs():
    """Iris; 300 rows of 4 seeded values at one decimal, categorized like
    Iris; 200 elements in 5,000 seeded blocks of 2 to 6; and 30 elements in
    9,000 blocks that all hold element 0, whose row gathers over
    BATCH_ENTRIES entries while the others' rows group."""
    params = CategorizationParams(d=10, m=5, gamma=3, r=1)
    iris = categorize(parse_csv(str(resources.files("gea") / "data" / "iris.csv"), "species"), params)
    rng = np.random.default_rng(16)
    grid = categorize(NumericDataset(tuple("abcd"), tuple(map(tuple, rng.integers(0, 80, (300, 4)) / 10))), params)

    def blocks(n, members):
        elems = np.concatenate([np.sort(m) for m in members])
        indptr = np.append(0, np.cumsum([len(m) for m in members]))
        return FeatureAllocation(n, indptr, elems, rng.integers(1, 21, len(elems)) * fp.SCALE // 4, fp.SCALE)

    sparse = blocks(200, [rng.choice(200, rng.integers(2, 7), replace=False) for _ in range(5000)])
    wide = blocks(30, [np.append(0, rng.choice(np.arange(1, 30), 2, replace=False)) for _ in range(9000)])
    return iris, grid, sparse, wide


@pytest.mark.parametrize("which", range(4), ids=["iris", "grid", "sparse", "wide"])
def test_first_fill_row_groups_are_bit_equal_to_one_row_calls(monkeypatch, which):
    # gea() scores its first pairs in groups of consecutive rows; the heights
    # it fills and its bound beta must be bit-equal to one union_scores call
    # per row, and each group's gathered entries plus its scores must come to
    # at most BATCH_ENTRIES, or be one row
    g = first_fill_inputs()[which]
    n, real = g.n, agglomeration.union_scores
    groups, heights, beta = [], np.full((n, n), np.inf), 0.0

    def recording(slots, a, o, nr, out, above=False):
        err = real(slots, a, o, nr, out, above)
        if above:
            groups.append((a.start, a.stop))
            heights[a, o] = out
            nonlocal beta
            beta = max(beta, err.max())
        return err

    monkeypatch.setattr(agglomeration, "union_scores", recording)
    gea(g)
    slots, one, one_beta = agglomeration._Slots(g), np.full((n, n), np.inf), 0.0
    for a in range(n - 1):
        o = np.arange(a + 1, n)
        err = real(slots, slice(a, a + 1), o, np.full(len(o), float(2 * g.r_scaled)), one[a, a + 1 :], True)
        one_beta = max(one_beta, err.max())
    assert np.array_equal(heights, one) and beta == one_beta
    # entries each row gathers: those after its own in each of its blocks
    lens = np.diff(g.indptr)
    after = np.bincount(g.elems, np.repeat(g.indptr[1:], lens) - 1 - np.arange(len(g.elems)), n)
    assert [lo for lo, _ in groups] == [0] + [hi for _, hi in groups[:-1]] and groups[-1][1] == n - 1
    for lo, hi in groups:
        assert hi - lo == 1 or after[lo:hi].sum() + (hi - lo) * n <= BATCH_ENTRIES
    assert max(hi - lo for lo, hi in groups) > 1
    if which == 3:
        assert groups[0] == (0, 1) and after[0] > BATCH_ENTRIES


def split_kernel_calls(monkeypatch):
    """Route gea()'s kernel calls through a wrapper that tells contender
    calls, on masses from the rows ``_Slots.union_rows`` built just before,
    from height calls. Returns the contender calls as (merges made before
    the call, rows), the height calls' (rows, masses), and per merge the
    winner's latest contender value (None when the pair has none since
    either slot last merged)."""
    contender, height, won, values, built = [], [], [], {}, []
    real_rows, real_merge = agglomeration._Slots.union_rows, agglomeration._Slots.merge

    def rows(slots, x, y):
        built.append((x.tolist(), y.tolist()))
        return real_rows(slots, x, y)

    def counting(mass, row, ref):
        h = information_sum(mass, row, ref)
        if not built:
            height.append((len(ref), len(mass)))
        else:
            contender.append((len(won), len(ref)))
            values.update(zip(zip(*built.pop()), h.tolist()))
        return h

    def merging(slots, a, b):
        won.append(values.get((a, b)))
        for pair in [p for p in values if {a, b} & set(p)]:
            del values[pair]
        return real_merge(slots, a, b)

    monkeypatch.setattr(agglomeration._Slots, "union_rows", rows)
    monkeypatch.setattr(agglomeration._Slots, "merge", merging)
    monkeypatch.setattr(agglomeration, "information_sum", counting)
    return contender, height, won


def tie_heavy_inputs():
    """64 elements that all hold the same 4 blocks, and 60 elements that
    each take one of 6 seeded profiles over 8 blocks (scattered duplicate
    rows)."""
    n = 64
    alike = FeatureAllocation.from_weights(n, [dict.fromkeys(range(n), 1) for _ in range(4)])
    rng = random.Random(0)
    profiles = [[rng.random() < 0.5 for _ in range(8)] for _ in range(6)]
    picks = [rng.randrange(6) for _ in range(60)]
    scattered = FeatureAllocation.from_weights(
        60, [b for b in ({e: 1 for e in range(60) if profiles[picks[e]][j]} for j in range(8)) if b])
    return alike, scattered


def union_support(g, members):
    """The number of blocks in which some element of ``members`` holds mass."""
    return len(np.unique(np.repeat(np.arange(len(g.sizes)), np.diff(g.indptr))[np.isin(g.elems, members)]))


def test_each_merge_makes_one_canonical_call_on_its_new_contenders(monkeypatch):
    # every union has the same per-block ratios, so every live pair is a
    # contender at every step, but only the first step and the merged slot's
    # rescored pairs need the kernel; with margins far above every bound,
    # only the winner is a contender, and it merges without the kernel, as
    # does the last live pair of the tied input. Every merge makes one height
    # call on the merged slot's support alone
    n = 25
    tied = FeatureAllocation.from_weights(n, [dict.fromkeys(range(n), w) for w in (1, 2, 0.3)])
    rng = random.Random(8)
    clear = next(g for g in (random_allocation(rng, min_n=12, max_n=12) for _ in range(100))
                 if naive_decision_margin(g) > 1e-6)
    for g, contenders in ((tied, [(t, n - t - 1 if t else n * (n - 1) // 2) for t in range(n - 2)]),
                          (clear, [])):
        contender, height, _ = split_kernel_calls(monkeypatch)
        d = gea(g)
        assert contender == contenders
        members = {i: (i,) for i in range(g.n)}
        for t, m in enumerate(d.merges):
            members[g.n + t] = members[m.left] + members[m.right]
        assert height == [(1, union_support(g, members[g.n + t])) for t in range(g.n - 1)]
        assert engine_members(d) == naive_gea_members(g)
    assert min(w for _, w in height) < len(clear.sizes)  # never B columns


def test_lone_contenders_merge_without_the_kernel_and_contested_heights_are_canonical(monkeypatch):
    # with every decision margin far above the bounds, each merge has one
    # contender and makes no contender call; when all elements are alike or
    # share a few profiles, merges are contested until the last one or the
    # last six, and a contested height, taken from the merged slot, is
    # bit-equal to the winner's contender value
    rng, checked = random.Random(15), 0
    while checked < 50:
        g = random_allocation(rng, min_n=3, max_n=12, max_blocks=12)
        if naive_decision_margin(g) <= 1e-6:
            continue
        contender, height, _ = split_kernel_calls(monkeypatch)
        d = gea(g)
        assert contender == [] and len(height) == g.n - 1
        assert engine_members(d) == naive_gea_members(g)
        members = {i: (i,) for i in range(g.n)}
        for t, m in enumerate(d.merges):
            members[g.n + t] = members[m.left] + members[m.right]
            assert m.height == subset_entropy(g, members[g.n + t])
        checked += 1
    for g, lone in zip(tie_heavy_inputs(), (1, 6)):
        _, _, won = split_kernel_calls(monkeypatch)
        merges = [(m.left, m.right, m.height, m.size) for m in gea(g).merges]
        assert [w is None for w in won] == [False] * (g.n - 1 - lone) + [True] * lone
        assert [m[2] for m in merges[:-lone]] == won[:-lone]
        assert merges == full_scan_gea(g)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_values_persist_when_the_kept_slot_is_not_slot_0(monkeypatch, seed):
    # 60 elements share 6 block profiles, so many rows are exact duplicates
    # and merges keep slots all over the matrix; each pair needs the kernel
    # once at the start and once per rescoring of its kept slot
    rng = random.Random(seed)
    n = 60
    profiles = [[rng.random() < 0.5 for _ in range(8)] for _ in range(6)]
    picks = [rng.randrange(6) for _ in range(n)]
    blocks = [{e: 1 for e in range(n) if profiles[picks[e]][j]} for j in range(8)]
    g = FeatureAllocation.from_weights(n, [b for b in blocks if b])
    rows = counted_kernel(monkeypatch)
    d = gea(g)
    assert sum(rows) <= n * (n - 1) // 2 + sum(n - t - 2 for t in range(n - 1))
    assert [(m.left, m.right, m.height, m.size) for m in d.merges] == full_scan_gea(g)


def test_contender_calls_split_at_the_batch_budget_in_pair_order(monkeypatch):
    # each element holds its own 100 blocks, weighted by one shuffled list, so
    # every two-element union ties up to the rounding of its summation order;
    # the first step's 66 contenders hold 1,200 blocks, so the kernel call
    # splits, and each value must land on its own pair for the heights to be
    # bit-equal
    rng = random.Random(5)
    n, width = 12, 100
    weights = [rng.randint(1, 3 * fp.SCALE) for _ in range(width)]
    blocks = []
    for e in range(n):
        rng.shuffle(weights)
        blocks += [{e: w} for w in weights]
    g = scaled_allocation(n, blocks)
    rows = counted_kernel(monkeypatch)
    d = gea(g)
    per_call, pairs = BATCH_ENTRIES // (n * width), n * (n - 1) // 2
    assert rows[: -(-pairs // per_call)] == [per_call] * (pairs // per_call) + [pairs % per_call]
    assert len({m.height for m in d.merges[: n // 2]}) > 1
    assert [(m.left, m.right, m.height, m.size) for m in d.merges] == full_scan_gea(g)


def assert_slots_consistent(slots, live, merged):
    """Each live slot lists its own entries, one per block of its support, in
    block order, with positive masses, S, F and support size to match; dead
    entries are empty, and no retired slot owns a live entry. S and F are
    summed again from the entries at each merge; a slot that never merged
    keeps the set-up's bincount over its entries, a left-to-right sum."""
    assert np.array_equal(slots.blk, np.repeat(np.arange(len(slots.ptr) - 1), np.diff(slots.ptr)))
    listed = np.zeros(len(slots.mass), dtype=bool)
    for s in np.flatnonzero(live):
        p = slots.pos[s]
        assert (np.diff(p) > 0).all() and (slots.owner[p] == s).all() and (np.diff(slots.blk[p]) > 0).all()
        assert (slots.mass[p] > 0).all() and slots.count[s] == len(p)
        x, y = slots.mass[p].astype(float), slots.f[p]
        if not merged[s]:
            x, y = np.add.accumulate(x)[-1:], np.add.accumulate(y)[-1:]
        assert slots.total[s] == x.sum() and slots.flog[s] == y.sum()
        listed[p] = True
    assert (slots.mass[~listed] == 0).all() and (slots.f[~listed] == 0).all()
    assert len(slots.mass) - listed.sum() == slots.dead


@pytest.mark.parametrize("which", range(3), ids=["iris", "sparse", "compacting"])
def test_slots_keep_their_invariants_over_seeded_merges(which):
    # seeded merge sequences of random live pairs, each keeping the lower
    # slot and compacting after it as gea() does: after every merge each
    # live slot's positions ascend, one per block of its support, with its
    # own positive masses, S, F and support size to match, and ``dead``
    # counts the zero-mass entries; all alike, merges kill entries fast
    # enough to compact several times
    iris, _, sparse, _ = first_fill_inputs()
    g = (iris, sparse, tie_heavy_inputs()[0])[which]
    rng = random.Random(which)
    for _ in range(2):
        slots, live, merged, compactions = agglomeration._Slots(g), np.ones(g.n, bool), np.zeros(g.n, bool), 0
        assert_slots_consistent(slots, live, merged)
        for _ in range(g.n - 1):
            a, b = sorted(rng.sample(np.flatnonzero(live).tolist(), 2))
            before = len(slots.mass)
            mass = slots.merge(a, b)
            live[b], merged[a] = False, True
            slots.compact()
            compactions += len(slots.mass) < before
            assert np.array_equal(mass, slots.mass[slots.pos[a]])
            assert_slots_consistent(slots, live, merged)
        assert compactions >= (0, 0, 5)[which]


def test_dead_entries_compact_and_merges_match_full_scan(monkeypatch):
    # all alike, a merge kills the absorbed slot's 4 entries; scattered
    # duplicate rows kill whole rows too: both compact several times. In the
    # third input elements 6..9 hold no block, so slot a's support is empty
    # when two of them merge, and so is a merge with no partner left
    alike, scattered = tie_heavy_inputs()
    sparse = parse_allocation_text(b"n=10 r=1.0\n1 2:2 3\n2 4:0.5\n5 6 1:3\n6\n")
    real_merge, real_compact = agglomeration._Slots.merge, agglomeration._Slots.compact
    live, merged, shrunk = np.ones(0, dtype=bool), np.zeros(0, dtype=bool), []

    def merging(slots, a, b):
        mass = real_merge(slots, a, b)
        live[b], merged[a] = False, True
        return mass

    def compacting(slots):
        before = len(slots.mass)
        real_compact(slots)
        shrunk.append(before - len(slots.mass))
        if shrunk[-1]:
            assert slots.dead == 0 and (slots.mass > 0).all()
        assert_slots_consistent(slots, live, merged)

    monkeypatch.setattr(agglomeration._Slots, "merge", merging)
    monkeypatch.setattr(agglomeration._Slots, "compact", compacting)
    for g, compactions in ((alike, 5), (scattered, 2), (sparse, 1)):
        live, merged, shrunk = np.ones(g.n, dtype=bool), np.zeros(g.n, dtype=bool), []
        merges = [(m.left, m.right, m.height, m.size) for m in gea(g).merges]
        assert merges == full_scan_gea(g)
        assert sum(k > 0 for k in shrunk) >= compactions


def test_engine_memory_follows_nnz():
    # 100 elements in 50,000 blocks of 2 (nnz 100,000): a dense n-by-B mass
    # matrix alone would take 40 MB; the peak must stay within the working
    # memory that gea()'s docstring states
    rng = np.random.default_rng(7)
    n, blocks = 100, 50_000
    first = rng.integers(0, n, blocks)
    second = (first + rng.integers(1, n, blocks)) % n
    elems = np.stack([np.minimum(first, second), np.maximum(first, second)], axis=1).ravel()
    weights = rng.integers(1, 4 * fp.SCALE, 2 * blocks)
    g = FeatureAllocation(n, np.arange(0, 2 * blocks + 1, 2), elems, weights, fp.SCALE)
    tracemalloc.start()
    try:
        d = gea(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.merges[-1].size == n
    assert peak < 9 * n**2 + 80 * len(elems) + 112 * blocks + 200 * n + 128 * BATCH_ENTRIES


WEIGHT = st.integers(1, 50) | st.just(None)  # None: near the block-size limit


@st.composite
def bound_inputs(draw):
    """Allocations at the edges of the score's range: weights near the
    int64 block-size limit, r = 1e-6 or a large r, blocks held by all but
    one element, and elements in no block."""
    n = draw(st.integers(2, 7))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1)
                       | st.integers(0, n - 1).map(lambda k: set(range(n)) - {k}))
        cap = INT64_MAX // len(members)
        blocks.append({e: w or cap - draw(st.integers(0, 10**6)) for e, w in
                       zip(sorted(members), draw(st.lists(WEIGHT, min_size=len(members), max_size=len(members))))})
    r_scaled = draw(st.sampled_from([1, fp.SCALE, 2**62]))
    return scaled_allocation(n + draw(st.integers(0, 2)), blocks, r_scaled)


@settings(max_examples=150, deadline=None)
@given(g=bound_inputs())
def test_every_score_is_within_its_bound_of_the_canonical_entropy(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = recorded_scores(monkeypatch)
        d = gea(g)
    assert calls
    members = {i: (i,) for i in range(g.n)}
    for t, m in enumerate(d.merges):
        members[g.n + t] = members[m.left] + members[m.right]
        assert m.height == subset_entropy(g, members[g.n + t])


def test_scores_moved_within_half_their_bound_leave_dendrograms_unchanged(monkeypatch):
    # the contenders, re-evaluated by the kernel, decide every merge; scores
    # that move anywhere within half their bound must not change one
    iris = categorize(parse_csv(str(resources.files("gea") / "data" / "iris.csv"), "species"),
                      CategorizationParams(d=10, m=5, gamma=3, r=1))
    inputs = [iris, *larger_inputs()]
    want = [gea(g).merges for g in inputs]
    for seed in (1, 2):
        recorded_scores(monkeypatch, noise_seed=seed)
        assert [gea(g).merges for g in inputs] == want


def test_block_order_leaves_merges_unchanged_above_margin():
    # shuffling blocks reorders the float sums; a merge sequence whose every
    # decision is won by more than 1e-9 must not notice
    rng, shuffler = random.Random(31), random.Random(32)
    checked = 0
    for _ in range(200):
        g = random_allocation(rng, min_n=3, max_n=10, max_blocks=30)
        if naive_decision_margin(g) <= 1e-9:
            continue
        blocks = [b.entries for b in g.blocks]
        shuffler.shuffle(blocks)
        shuffled = scaled_allocation(g.n, blocks, g.r_scaled)
        assert engine_members(gea(shuffled)) == engine_members(gea(g))
        checked += 1
    assert checked >= 150


def test_iris_merge_order_matches_benchmark_reference():
    # the benchmark's recorded Iris dendrogram (d=10, m=5, gamma=3, r=1)
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["iris"]
    ds = parse_csv(str(resources.files("gea") / "data" / "iris.csv"), "species")
    d = gea(categorize(ds, CategorizationParams(d=10, m=5, gamma=3, r=1)))
    assert [[m.left, m.right, m.size] for m in d.merges] == ref["topology"]
    assert [m.height for m in d.merges] == pytest.approx(ref["heights"], abs=1e-9)


def test_permutation_equivariance_without_ties():
    rng = random.Random(11)
    g = random_allocation(rng, max_n=9, max_blocks=6)
    n = g.n
    # verify the input is tie-free at the first step so equivariance is exact
    scores = sorted(
        subset_entropy(g, (i, j)) for i in range(n) for j in range(i + 1, n)
    )
    assert all(b - a > 1e-9 for a, b in zip(scores, scores[1:]))

    perm = list(range(n))
    rng.shuffle(perm)  # perm[old] = new
    permuted = scaled_allocation(
        n, [{perm[e]: w for e, w in b.entries.items()} for b in g.blocks], g.r_scaled
    )
    inv = {new: old for old, new in enumerate(perm)}
    got = [
        tuple(sorted((tuple(sorted(inv[e] for e in a)), tuple(sorted(inv[e] for e in b)))))
        for a, b in engine_members(gea(permuted))
    ]
    assert got == engine_members(gea(g))


# --- cut -----------------------------------------------------------------------


def test_cut_extremes():
    g = three_elements()
    d = gea(g)
    assert cut(d, 3).labels == (0, 1, 2)
    assert cut(d, 1).labels == (0, 0, 0)
    assert cut(d, 2).labels == (0, 0, 1)  # {1,2} vs {3}


def test_cut_validates_range():
    d = gea(three_elements())
    for k in (0, 4, -1):
        with pytest.raises(ValueError):
            cut(d, k)


def test_cut_yields_disjoint_cover():
    rng = random.Random(21)
    for _ in range(15):
        g = random_allocation(rng, max_n=11)
        d = gea(g)
        for k in range(1, g.n + 1):
            cs = cut(d, k)
            assert len(set(cs.labels)) == cs.k == k
            assert len(cs.labels) == g.n
            # labels are contiguous and ordered by smallest member
            firsts = [min(cs.members(lab)) for lab in range(k)]
            assert firsts == sorted(firsts)


def test_cut_uses_merge_order_not_heights():
    # hand-built dendrogram whose merge order disagrees with height order:
    # cutting must undo the most recent merges, not the tallest ones
    d = Dendrogram(
        n=4,
        r_scaled=fp.SCALE,
        merges=(Merge(0, 1, 1.0, 2), Merge(2, 3, -0.5, 2), Merge(4, 5, 0.2, 4)),
    )
    assert cut(d, 2).labels == (0, 0, 1, 1)
    # k=3 undoes the (2, 3) merge even though (0, 1) sits higher; a
    # height-threshold cut would have produced (0, 1, 2, 2) instead
    assert cut(d, 3).labels == (0, 0, 1, 2)


def test_negative_heights_flow_through_cut():
    g = FeatureAllocation.from_weights(4, [{0: 3, 1: 3}, {2: 0.2, 3: 0.2}], r=1)
    d = gea(g)
    assert d.merges[0].height < 0
    # the heavy pair merges first, then absorbs element 2 (tie resolved to
    # the lexicographically lesser union), leaving {3} at k=2
    assert cut(d, 2).labels == (0, 0, 0, 1)


# --- score_accuracy ---------------------------------------------------------------


def test_score_perfect_partition():
    cs = ClusterSet(2, (0, 0, 1, 1))
    assert score_accuracy(cs, ["a", "a", "b", "b"]) == (4, 4)


def test_score_single_cluster_majority():
    cs = ClusterSet(1, tuple([0] * 150))
    labels = ["x"] * 50 + ["y"] * 50 + ["z"] * 50
    assert score_accuracy(cs, labels) == (50, 150)


def test_score_tie_is_lexicographic():
    cs = ClusterSet(1, (0, 0, 0, 0))
    correct, total = score_accuracy(cs, ["b", "b", "a", "a"])
    assert (correct, total) == (2, 4)


def test_score_requires_full_labels():
    cs = ClusterSet(1, (0, 0))
    with pytest.raises(ValueError):
        score_accuracy(cs, ["a"])
    with pytest.raises(ValueError):
        score_accuracy(cs, ["a", None])


# --- serialization -----------------------------------------------------------------


def test_json_matches_schema_and_content():
    g = random_allocation(random.Random(31))
    d = gea(g)
    doc = json.loads(to_json(d))
    jsonschema.validate(doc, DENDROGRAM_JSON_SCHEMA)
    assert doc["n"] == g.n
    assert doc["r"] == fp.format_decimal(g.r_scaled)
    assert len(doc["merges"]) == g.n - 1
    for got, m in zip(doc["merges"], d.merges):
        assert (got["left"], got["right"], got["size"]) == (m.left, m.right, m.size)
        assert got["height"] == m.height


def _parse_newick(tree: str) -> int:
    """Minimal reader for the emitted grammar; returns the leaf count."""
    pos = 0

    def node() -> int:
        nonlocal pos
        if tree[pos] == "(":
            pos += 1
            leaves = node()
            assert tree[pos] == ","
            pos += 1
            leaves += node()
            assert tree[pos] == ")"
            pos += 1
        else:
            m = re.match(r"\d+", tree[pos:])
            assert m, f"expected leaf label at {pos}"
            pos += m.end()
            leaves = 1
        m = re.match(r":\d+(?:\.\d+)?(?:e-?\d+)?", tree[pos:])
        assert m, f"expected branch length at {pos}"
        length = float(m.group()[1:])
        assert length >= 0.0
        pos += m.end()
        return leaves

    leaves = node()
    assert tree[pos:] == ";"
    return leaves


def test_newick_round_trips_with_nonnegative_lengths():
    g = random_allocation(random.Random(41))
    text = to_newick(gea(g))
    comment, tree = text.split("\n", 1)
    assert comment.startswith("[raw heights: ")
    assert _parse_newick(tree) == g.n


def test_newick_clamps_negative_heights_but_reports_them():
    g = FeatureAllocation.from_weights(2, [{0: 2, 1: 2}], r=1)
    d = gea(g)
    assert d.merges[0].height < 0
    comment, tree = to_newick(d).split("\n", 1)
    assert repr(d.merges[0].height) in comment
    assert _parse_newick(tree) == 2
    assert ":0.0;" in tree  # clamped root branch


def test_newick_single_leaf():
    d = gea(FeatureAllocation.from_weights(1, [{0: 1}]))
    assert to_newick(d) == "[raw heights: none]\n1:0.0;"
