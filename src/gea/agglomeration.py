"""Greedy minimum-projection-entropy clustering.

Starting from singletons, repeatedly merge the pair of clusters whose union
has the smallest projection entropy, recording that entropy as the merge
height. Heights may be negative (weights above the recurrence base) and are
not monotone across merges, so flat clusters are produced by undoing merges
in reverse merge order rather than by thresholding heights.

The engine keeps every live cluster in a slot: a row of an n-by-blocks
mass matrix and a row and column of an n-by-n matrix of candidate union
entropies. A merge keeps the union in the lower of its two slots, retires
the other by filling its row and column with inf, and refills only the kept
slot's row. Every row fill makes one kernel call per batch of other slots
holding at most BATCH_ENTRIES summed masses; none re-projects the allocation.
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
# Mass entries per kernel call; its temporaries take ~64 bytes per entry.
BATCH_ENTRIES = 2**14


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


def gea(g: FeatureAllocation) -> Dendrogram:
    """Cluster an allocation's elements; deterministic for a given input.

    Every candidate union is scored by its projection entropy with the
    subset's own element count and the allocation's recurrence base. The
    merge with minimal entropy wins; near-exact ties (within
    ``TIE_TOLERANCE``) go to the union whose sorted element ids compare
    least. Slot rows are evaluated in bounded batches, so working memory is
    8*n**2 + 8*n*B bytes (heights; masses of B blocks) + ~64*BATCH_ENTRIES.
    """
    n = g.n
    if n < 1:
        raise ValueError("need at least one element to cluster")
    if n == 1:
        return Dendrogram(1, g.r_scaled, ())

    r_s = g.r_scaled
    # slot i: mass row, dendrogram node id, sorted members (() once retired), heights row/column
    mass = np.zeros((n, max(len(g.blocks), 1)), dtype=np.int64)
    for j, b in enumerate(g.blocks):
        for e, w in b.entries.items():
            mass[e, j] = w
    node = list(range(n))
    members = [(i,) for i in range(n)]
    # union entropy of slots a < b at [a, b]; inf below the diagonal and
    # in the row and column of every retired slot
    heights = np.full((n, n), np.inf)

    def fill(a, others):
        # slot a's union entropies with others, BATCH_ENTRIES mass entries per call
        rows = max(1, BATCH_ENTRIES // mass.shape[1])
        for i in range(0, len(others), rows):
            o = others[i : i + rows]
            counts = [len(members[a]) + len(members[j]) for j in o]
            h = information_sum(mass[o] + mass[a], counts, r_s)
            heights[np.minimum(o, a), np.maximum(o, a)] = h

    for a in range(n - 1):
        fill(a, range(a + 1, n))
    merges = []
    for step in range(n - 1):
        ties = np.argwhere(heights <= heights.min() + TIE_TOLERANCE).tolist()
        a, b = min(ties, key=lambda p: tuple(sorted(members[p[0]] + members[p[1]])))
        mass[a] += mass[b]
        members[a], members[b] = tuple(sorted(members[a] + members[b])), ()
        left, right = sorted((node[a], node[b]))
        merges.append(Merge(left, right, float(heights[a, b]), len(members[a])))
        node[a] = n + step
        heights[b, :] = heights[:, b] = np.inf
        fill(a, [o for o, m in enumerate(members) if m and o != a])

    if merges[-1].size != n:
        raise RuntimeError("internal: agglomeration did not consume all elements")
    return Dendrogram(n, r_s, tuple(merges))


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
