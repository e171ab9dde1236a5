"""Merge loop, dendrogram cutting, scoring, serialization."""
import json
import math
import random
import re
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

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
from gea.categorize import CategorizationParams, categorize
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
    scaled_allocation,
)

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def three_elements():
    # {1,2} share a block; 3 sits alone
    return parse_allocation_text("n=3 r=1.0\n1 2\n3\n")


# --- gea ---------------------------------------------------------------------


def test_single_element_has_no_merges():
    g = FeatureAllocation.from_weights(1, [{0: 1}])
    d = gea(g)
    assert d.n == 1 and d.merges == ()


def test_empty_universe_rejected():
    with pytest.raises(ValueError):
        gea(FeatureAllocation.from_weights(0, []))


def test_two_singleton_blocks_merge_at_log2():
    g = parse_allocation_text("n=2 r=1.0\n1\n2\n")
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


def test_engine_matches_full_scan_reference_at_larger_n():
    # many merges at sizes the naive oracle is too slow for, so cached row
    # minima go stale and are rescanned often; heights must be bit-equal
    rng = random.Random(61)
    inputs = [
        random_integer_allocation(rng, min_n=60, max_n=150, max_blocks=8, max_weight=1) if t % 2
        else random_allocation(rng, min_n=60, max_n=150, max_blocks=40)
        for t in range(6)
    ]
    # no step of this one ties, yet a merged cluster becomes the best partner
    # of a row above it whose cached minimum lay in another column
    inputs.append(random_allocation(random.Random(1063), min_n=60, max_n=150, max_blocks=40))
    for g in inputs:
        merges = [(m.left, m.right, m.height, m.size) for m in gea(g).merges]
        assert merges == full_scan_gea(g)


def counted_kernel(monkeypatch):
    """Route gea()'s kernel calls through a wrapper; returns the row count
    of each call, in call order."""
    rows = []

    def counting(mass, ref):
        rows.append(len(mass))
        return information_sum(mass, ref)

    monkeypatch.setattr(agglomeration, "information_sum", counting)
    return rows


def test_each_slot_row_fill_is_one_kernel_call(monkeypatch):
    # n * blocks is under BATCH_ENTRIES: n - 1 fills at the start, one per merge
    rows = counted_kernel(monkeypatch)
    g = random_allocation(random.Random(41), min_n=40, max_n=40, max_blocks=20)
    gea(g)
    assert len(rows) <= 2 * g.n


@pytest.mark.parametrize("width, per_call", [(BATCH_ENTRIES + 1, 1), (BATCH_ENTRIES // 3, 3)])
def test_row_batches_hold_at_most_the_batch_budget(monkeypatch, width, per_call):
    # one row per call when a row alone exceeds the budget; with 3 rows per
    # call the fills of 4 and 2 other slots end on a partial batch. Every
    # pair is evaluated at the start, every live pair again after a merge.
    rng = random.Random(width)
    n = 5
    blocks = [
        {e: rng.randint(1, 3 * fp.SCALE) for e in rng.sample(range(n), rng.randint(1, 2))}
        for _ in range(width)
    ]
    g = scaled_allocation(n, blocks)
    rows = counted_kernel(monkeypatch)
    d = gea(g)
    assert max(rows) == per_call
    assert sum(rows) == n * (n - 1) // 2 + (n - 1) * (n - 2) // 2
    members = {i: (i,) for i in range(n)}
    for t, m in enumerate(d.merges):
        members[n + t] = members[m.left] + members[m.right]
        assert m.height == subset_entropy(g, members[n + t])
    assert engine_members(d) == naive_gea_members(g)


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
