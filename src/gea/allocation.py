"""Data model for feature allocations: weighted blocks over an element universe.

A feature allocation assigns each of ``n`` elements to zero or more blocks,
where a block carries a positive rational occurrence weight per element.
Classic set-valued blocks are the special case of weight 1; integer weights
encode multiset blocks; general weights come from the numeric categorization
pipeline. Elements are indexed 0..n-1 internally; the text format speaks
the 1-based convention used in presentation.

All types are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""
from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from . import fixedpoint as fp

# Upper bound on n, on r and on every block size (the last two in fixed-point
# units): the entropy kernel and the merge engine hold them in int64.
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Block:
    """A non-empty map from element id to positive occurrence weight.

    ``entries`` holds weights in fixed-point units of 1e-6 (see
    :mod:`gea.fixedpoint`); use :meth:`from_weights` to build a block from
    plain numbers. A repeated element folds into one entry by summing its
    weights, and a weight of zero is never stored: absence encodes zero.
    """

    entries: Mapping[int, int]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("block must be non-empty")
        norm = {}
        for elem in sorted(self.entries):
            weight = self.entries[elem]
            if not isinstance(elem, int) or elem < 0:
                raise ValueError(f"bad element id {elem!r}")
            if not isinstance(weight, int):
                raise ValueError(
                    f"weight for element {elem} must be a fixed-point int, "
                    f"got {weight!r}; use Block.from_weights for plain numbers"
                )
            if weight <= 0:
                raise ValueError(f"element {elem}: weight must be positive")
            norm[elem] = weight
        object.__setattr__(self, "entries", norm)

    @classmethod
    def from_weights(cls, weights: Mapping[int, object]) -> "Block":
        """Build from plain weights (int, float, Fraction, decimal string);
        values are rounded to the nearest 1e-6."""
        return cls({e: fp.from_number(w) for e, w in weights.items()})

    @cached_property
    def size_scaled(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class FeatureAllocation:
    """A multiset of blocks over elements 0..n-1 plus a recurrence base.

    ``blocks`` keeps duplicates and preserves order; ``r_scaled`` is the
    positive recurrence base in fixed-point units. The recurrence base sets
    the reference mass ``n*r`` that entropies are measured against. ``n``,
    ``r_scaled`` and every block size must fit in int64: entropies and merge
    masses are evaluated from int64 vectors (a subset's mass in a block
    never exceeds the block's size), and n*r must stay a finite float.
    """

    n: int
    blocks: tuple[Block, ...]
    r_scaled: int = fp.SCALE

    def __post_init__(self):
        if not isinstance(self.n, int) or not 0 <= self.n <= _INT64_MAX:
            raise ValueError(f"element count must be an int in [0, 2**63), got {self.n!r}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for i, b in enumerate(self.blocks):
            top = max(b.entries)
            if top >= self.n:
                raise ValueError(f"block references element {top} outside [0, {self.n})")
            if b.size_scaled > _INT64_MAX:
                raise ValueError(
                    f"block {i}: size {fp.format_decimal(b.size_scaled)} exceeds the "
                    f"largest supported block size {fp.format_decimal(_INT64_MAX)}"
                )
        if not isinstance(self.r_scaled, int) or not 0 < self.r_scaled <= _INT64_MAX:
            raise ValueError(
                f"recurrence base must be positive and at most {fp.format_decimal(_INT64_MAX)}"
            )

    @classmethod
    def from_weights(
        cls,
        n: int,
        block_weights: Iterable[Mapping[int, object]],
        r=1,
    ) -> "FeatureAllocation":
        """Build from plain-number weight maps and a plain recurrence base."""
        blocks = tuple(Block.from_weights(m) for m in block_weights)
        return cls(n, blocks, fp.from_number(r))


def project(g: FeatureAllocation, subset: Iterable[int]) -> FeatureAllocation:
    """Restrict an allocation to a subset of its elements.

    Each block keeps only entries whose element lies in ``subset``; blocks
    emptied by the restriction are discarded. The result is an allocation
    over the subset with elements re-indexed 0..len(subset)-1 in ascending
    original order; the recurrence base carries over unchanged.
    """
    keep = sorted({operator.index(e) for e in subset})
    if not keep:
        raise ValueError("subset must be non-empty")
    if keep[0] < 0 or keep[-1] >= g.n:
        raise ValueError(f"subset must lie inside [0, {g.n})")
    remap = {e: i for i, e in enumerate(keep)}
    new_blocks = []
    for b in g.blocks:
        restricted = {remap[e]: w for e, w in b.entries.items() if e in remap}
        if restricted:
            new_blocks.append(Block(restricted))
    return FeatureAllocation(len(keep), tuple(new_blocks), g.r_scaled)


@dataclass(frozen=True)
class COD:
    """Cumulative occurrence distribution over integer block sizes.

    ``counts[k-1]`` is the number of blocks of size at least k; the sequence
    is non-increasing and implicitly zero past the largest block size.
    """

    counts: tuple[int, ...]

    def phi(self, k: int) -> int:
        if k < 1:
            raise ValueError("size threshold must be >= 1")
        return self.counts[k - 1] if k <= len(self.counts) else 0


def cod(g: FeatureAllocation) -> COD:
    """Tally blocks by integer size: phi(k) counts blocks of size >= k.

    Only defined for allocations whose block sizes are all integers (the
    count of "blocks of size at least k" is not meaningful otherwise).
    """
    sizes = []
    for i, b in enumerate(g.blocks):
        if not fp.is_integral(b.size_scaled):
            raise ValueError(
                f"block {i} has non-integer size {fp.format_decimal(b.size_scaled)}"
            )
        sizes.append(b.size_scaled // fp.SCALE)
    if not sizes:
        return COD(())
    hist = Counter(sizes)
    kmax = max(sizes)
    counts = []
    running = len(sizes)
    for k in range(1, kmax + 1):
        counts.append(running)
        running -= hist.get(k, 0)
    return COD(tuple(counts))


# --- text format ---------------------------------------------------------
#
# One block per line of whitespace-separated tokens, each `element:weight`
# (element 1-based, weight a positive decimal) or a bare `element` meaning
# weight 1.0 (repeats allowed and folded). A header `n=<int> r=<decimal>`
# must precede the blocks; `#` lines are comments and blank lines are
# skipped.

_HEADER_RE = re.compile(r"n=(\d+)\s+r=(\S+)\Z")


def parse_allocation_text(text: str) -> FeatureAllocation:
    """Parse the allocation text format. Raises ValueError with a line number
    on malformed input."""
    n = None
    r_scaled = None
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise ValueError(f"line {lineno}: expected header 'n=<int> r=<decimal>'")
            n = int(m.group(1))
            try:
                r_scaled = fp.from_decimal(m.group(2))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad recurrence base: {exc}") from None
            if r_scaled <= 0:
                raise ValueError(f"line {lineno}: recurrence base must be positive")
            continue
        entries: dict[int, int] = {}
        for tok in line.split():
            if ":" in tok:
                elem_s, _, weight_s = tok.partition(":")
                elem = _parse_element(elem_s, tok, lineno, n)
                try:
                    weight = fp.from_decimal(weight_s)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: malformed token {tok!r}: {exc}") from None
                if weight <= 0:
                    raise ValueError(f"line {lineno}: non-positive weight in {tok!r}")
            else:
                elem = _parse_element(tok, tok, lineno, n)
                weight = fp.SCALE
            entries[elem - 1] = entries.get(elem - 1, 0) + weight
        blocks.append(Block(entries))
    if n is None:
        raise ValueError("missing header line 'n=<int> r=<decimal>'")
    return FeatureAllocation(n, tuple(blocks), r_scaled)


def _parse_element(text: str, tok: str, lineno: int, n: int) -> int:
    if not text.isdecimal():
        raise ValueError(f"line {lineno}: malformed token {tok!r}")
    elem = int(text)
    if not 1 <= elem <= n:
        raise ValueError(f"line {lineno}: element {elem} outside 1..{n}")
    return elem


def format_allocation_text(g: FeatureAllocation) -> str:
    """Serialize to the text format; parse_allocation_text round-trips it."""
    lines = [f"n={g.n} r={fp.format_decimal(g.r_scaled)}"]
    for b in g.blocks:
        lines.append(
            " ".join(f"{e + 1}:{fp.format_decimal(w)}" for e, w in b.entries.items())
        )
    return "\n".join(lines) + "\n"
