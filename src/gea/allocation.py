"""Data model for feature allocations: weighted blocks over an element universe.

A feature allocation assigns each of ``n`` elements to zero or more blocks,
where a block carries a positive rational occurrence weight per element.
Classic set-valued blocks are the special case of weight 1; integer weights
encode multiset blocks; general weights come from the numeric categorization
pipeline. Elements are indexed 0..n-1 internally; the text format speaks
the 1-based convention used in presentation.

Blocks are compressed sparse rows of int64 arrays: block i's element ids are
``elems[indptr[i]:indptr[i + 1]]``, ascending and each once, with their
fixed-point weights at the same positions of ``weights``. The parser and the
categorization build the arrays once; everything else reads them as arrays.
All types are immutable (the arrays are read-only) and all operations are
pure, so values can be shared freely across threads.

The text parser splits lines and tokens with ``str.splitlines`` and
``str.split``, then converts the tokens with numpy, a bounded chunk at a
time: one pass over each chunk's bytes checks the token grammar and reads the
digits. A token it cannot certify (Unicode digits, a field too long for
int64, a malformed token) takes the scalar check, which converts it exactly
or raises the error naming its line.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Mapping

import numpy as np

from . import fixedpoint as fp

# Upper bound on n, on r and on every block size (the last two in fixed-point
# units): the entropy kernel and the merge engine hold them in int64.
_INT64_MAX = 2**63 - 1
_ARRAYS = ("indptr", "elems", "weights")


@dataclass(frozen=True, eq=False)
class FeatureAllocation:
    """A multiset of blocks over elements 0..n-1 plus a recurrence base.

    The CSR arrays keep duplicate blocks and their order; blocks are non-empty
    with positive weights, and ``sizes`` holds their exact total weights.
    ``r_scaled`` is the positive recurrence base in fixed-point units; it sets
    the reference mass ``n*r`` of the entropies. ``n``, ``r_scaled`` and every
    block size must fit in int64, the type of every mass the kernel and the
    engine sum, and n*r must stay a finite float. The constructor checks the
    arrays and makes them read-only in place, copying views first; a view
    taken of an owning array before it was passed must not be written.
    """

    n: int
    indptr: np.ndarray
    elems: np.ndarray
    weights: np.ndarray
    r_scaled: int = fp.SCALE
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or not 0 <= n <= _INT64_MAX:
            raise ValueError(f"element count must be an int in [0, 2**63), got {n!r}")
        if not isinstance(self.r_scaled, int) or not 0 < self.r_scaled <= _INT64_MAX:
            raise ValueError(
                f"recurrence base must be positive and at most {fp.format_decimal(_INT64_MAX)}"
            )
        arrays = [np.asarray(getattr(self, k)) for k in _ARRAYS]
        if any(a.ndim != 1 or a.size and a.dtype.kind != "i" for a in arrays):
            raise ValueError("indptr, elems and weights must be 1-d arrays of fixed-point ints")
        indptr, elems, weights = (a.astype(np.int64, copy=a.base is not None) for a in arrays)
        steps = indptr[1:] - indptr[:-1]  # entries per block
        if indptr[:1].tolist() != [0] or steps.min(initial=1) <= 0 or indptr[-1] != len(elems):
            raise ValueError("indptr must rise from 0 to len(elems), by at least 1 per block")
        if len(weights) != len(elems):
            raise ValueError("elems and weights must have the same length")
        if len(elems) and (elems.min() < 0 or elems.max() >= n):
            raise ValueError(f"block references an element outside [0, {n})")
        flat = elems[1:] <= elems[:-1]
        flat[indptr[1:-1] - 1] = False  # a block's first element follows another block
        if np.count_nonzero(flat) or weights.min(initial=1) <= 0:
            raise ValueError("a block's elements must ascend, each once, with positive weights")
        sizes = _block_sizes(indptr, weights, {})
        for k, a in zip((*_ARRAYS, "sizes"), (indptr, elems, weights, sizes)):
            a.flags.writeable = False
            object.__setattr__(self, k, a)

    def __eq__(self, other):
        if not isinstance(other, FeatureAllocation):
            return NotImplemented
        return (self.n, self.r_scaled) == (other.n, other.r_scaled) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS
        )

    @cached_property
    def blocks(self) -> tuple[SimpleNamespace, ...]:
        """Per block, ``entries``: a read-only map of element id to weight,
        built from the arrays on first use; for inspection, not for hot paths."""
        el, w, ptr = self.elems.tolist(), self.weights.tolist(), self.indptr.tolist()
        return tuple(
            SimpleNamespace(entries=MappingProxyType(dict(zip(el[lo:hi], w[lo:hi]))))
            for lo, hi in zip(ptr, ptr[1:])
        )

    @classmethod
    def from_weights(cls, n: int, block_weights: Iterable[Mapping[int, object]], r=1):
        """Build from maps of element id to plain weight (int, float, Fraction
        or decimal string, rounded to the nearest 1e-6) and a plain r."""
        from array import array  # not at module level: `import gea.cli` loads no more modules

        starts, elems, weights, excess = array("q", [0]), array("q"), array("q"), Counter()
        for i, m in enumerate(block_weights):
            if not m:
                raise ValueError(f"block {i} must be non-empty")
            for e, x in m.items():
                if (w := fp.from_number(x)) <= 0:
                    raise ValueError(f"block {i}, element {e}: weight must be positive")
                elems.append(e)
                weights.append(min(w, _INT64_MAX))
                if w > _INT64_MAX:
                    excess[i] += w - _INT64_MAX
            starts.append(len(elems))
        return _from_tokens(n, starts, elems, weights, excess, fp.from_number(r))


def _block_sizes(indptr: np.ndarray, weights: np.ndarray, excess: dict) -> np.ndarray:
    """Each block's size as int64, or ValueError naming the first that is
    beyond int64 once ``excess[i]`` units missing from ``weights`` are added
    to block i. The 32-bit halves of the weights are summed apart: no wrap."""
    hi, lo = (np.add.reduceat(half, indptr[:-1]) for half in np.divmod(weights, 2**32))
    over = hi + (lo >> 32) >= 2**31
    if excess:
        over[list(excess)] = True
    if len(bad := np.flatnonzero(over)):
        i = int(bad[0])
        size = int(hi[i]) * 2**32 + int(lo[i]) + excess.get(i, 0)
        raise ValueError(
            f"block {i}: size {fp.format_decimal(size)} exceeds the "
            f"largest supported block size {fp.format_decimal(_INT64_MAX)}"
        )
    return hi * 2**32 + lo


def _from_tokens(n, starts, elems, weights, excess, r_scaled) -> FeatureAllocation:
    """The allocation whose block i is the non-empty run of (element, weight)
    tokens from ``starts[i]`` to ``starts[i + 1]`` of int64 buffers. Repeated
    elements fold by summing, exactly, as block sizes are checked first."""
    starts, el, w = (np.frombuffer(a, dtype=np.int64) for a in (starts, elems, weights))
    _block_sizes(starts, w, excess)
    # the fold sets a parse's peak memory: block ids take the narrowest
    # dtype, and each temporary goes as soon as it is used
    nblocks = len(starts) - 1
    blk = np.repeat(np.arange(nblocks, dtype=np.min_scalar_type(nblocks)), starts[1:] - starts[:-1])
    order = np.lexsort((el, blk))  # by block, then element
    el, w, blk = el[order], w[order], blk[order]
    del order
    new = np.ones(len(el), dtype=bool)
    new[1:] = (el[1:] != el[:-1]) | (blk[1:] != blk[:-1])
    first = np.flatnonzero(new)
    del new
    w = np.add.reduceat(w, first)
    el, blk = el[first], blk[first]
    del first
    indptr = np.append(0, np.cumsum(np.bincount(blk, minlength=nblocks)))
    return FeatureAllocation(n, indptr, el, w, r_scaled)


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
    if len(odd := np.flatnonzero(~fp.is_integral(g.sizes))):
        i = int(odd[0])
        raise ValueError(f"block {i} has non-integer size {fp.format_decimal(int(g.sizes[i]))}")
    k = np.sort(g.sizes // fp.SCALE)  # counts[k-1]: blocks of size >= k
    return COD(tuple((len(k) - np.searchsorted(k, np.arange(1, k.max(initial=0) + 1))).tolist()))


# --- text format ---------------------------------------------------------
#
# One block per line of whitespace-separated tokens, each `element:weight`
# (element 1-based, weight a positive decimal) or a bare `element` meaning
# weight 1.0 (repeats allowed and folded). A header `n=<int> r=<decimal>`
# must precede the blocks; `#` lines are comments and blank lines are
# skipped.

_HEADER_RE = re.compile(r"n=(\d+)\s+r=(\S+)\Z")
# Tokens per numpy pass: its per-token int64 temporaries then stay near
# 1 MiB, so the fold at the end, not the pass, sets the parse's peak memory.
_CHUNK_TOKENS = 2**12
# bytes.translate table: keeps the bytes a certified token may hold, others become 0
_TOKEN_BYTES = bytes(c if chr(c) in "0123456789 :.+" else 0 for c in range(256))


def parse_allocation_text(text: str) -> FeatureAllocation:
    """Parse the allocation text format. Raises ValueError with a line number
    on malformed input.

    Python splits lines and tokens; numpy converts the tokens in bounded
    chunks and hands each token it cannot certify to the scalar check.
    """
    from array import array  # not at module level: `import gea.cli` loads no more modules

    n = r_scaled = None
    starts, elems, weights, excess = array("q", [0]), array("q"), array("q"), Counter()
    linenos, toks = array("q"), []  # each block's line; tokens not yet converted
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split()
        if not line or line[0][0] == "#":
            continue
        if n is None:
            m = _HEADER_RE.match(raw.strip())
            if not m:
                raise ValueError(f"line {lineno}: expected header 'n=<int> r=<decimal>'")
            n = fp.bounded_int(m.group(1))
            if n is None or n > _INT64_MAX:  # elements go to int64 buffers
                shown = fp.cut(m.group(1) if n is None else str(n))
                raise ValueError(
                    f"line {lineno}: element count must be an int in [0, 2**63), got {shown}"
                )
            try:
                r_scaled = fp.from_decimal(m.group(2))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad recurrence base: {exc}") from None
            if r_scaled <= 0:
                raise ValueError(f"line {lineno}: recurrence base must be positive")
            continue
        linenos.append(lineno)
        starts.append(starts[-1] + len(line))
        toks += line
        if len(toks) >= _CHUNK_TOKENS:
            _convert(toks, n, linenos, starts, elems, weights, excess)
            toks = []
    if n is None:
        raise ValueError("missing header line 'n=<int> r=<decimal>'")
    _convert(toks, n, linenos, starts, elems, weights, excess)
    del toks, linenos  # not needed by the fold
    # exact-size copies: the fold, the parse's peak, then holds no growth slack
    elems, weights = array("q", elems), array("q", weights)
    return _from_tokens(n, starts, elems, weights, excess, r_scaled)


def _convert(toks, n, linenos, starts, elems, weights, excess) -> None:
    """Append ``toks``, the next tokens of the blocks laid out by ``starts``
    (from line ``linenos[i]`` for block i), to the int64 buffers. The byte
    pass converts every token it certifies; the others take the scalar check
    in file order, which converts each or raises the error naming its line."""
    for i in range(0, len(toks), _CHUNK_TOKENS):
        chunk = toks[i : i + _CHUNK_TOKENS]
        data = (" ".join(chunk) + " ").encode("utf-8", "replace")
        el, w, ok = _scan(data.translate(_TOKEN_BYTES), n)
        for t in np.flatnonzero(~ok).tolist():
            block = bisect_right(starts, len(elems) + t) - 1  # the token's block
            el[t], weight = _token(chunk[t], linenos[block], n)
            w[t] = min(weight, _INT64_MAX)
            if weight > _INT64_MAX:  # so is its block's size, reported once all lines parse
                excess[block] += weight - _INT64_MAX
        elems.frombytes(el.tobytes())
        weights.frombytes(w.tobytes())


def _scan(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The byte pass. ``data`` holds tokens, each followed by one space, with
    every byte no certified token holds replaced by 0. Per token: the 0-based
    element id, the weight in fixed-point units, and whether both are
    certified: the token is ``element[:[+]weight]`` with an element of at
    most 18 digits in 1..n and a weight of at most 12 digits before the
    point that is positive once rounded. Uncertified tokens' values are junk."""
    b = np.frombuffer(data, dtype=np.uint8)
    digit = b - 48  # uint8: the value of a digit byte, 10 or more for others
    e = np.flatnonzero(b == 32)  # each token's end
    s = np.concatenate(([0], e[:-1] + 1))

    def first(mask):  # per token: its first byte in mask (its end if none), and if it has two
        at = np.append(np.flatnonzero(mask), [len(b), len(b)])
        i = np.searchsorted(at, s)
        return np.minimum(at[i], e), at[i + 1] < e

    other, _ = first(b == 0)
    c, colons = first(b == 58)
    d, dots = first(b == 46)
    p, pluses = first(b == 43)
    colon = c < e
    ws = c + 1 + (p < e)  # where the weight's digits start
    le, lw, lf = c - s, d - ws, e - d - 1  # element, whole and fraction lengths
    ok = (other == e) & ~(colons | dots | pluses) & (le >= 1) & (le <= 18) & (lw <= 12)
    ok &= (d >= c) & ((p == e) | (p == c + 1))  # a dot and a '+' only in the weight, '+' first
    ok &= ~colon | np.where(d < e, lf >= 1, lw >= 1)  # digits, and some after a point

    def read(start, count, lo, hi):  # per token, digits start..start+count-1, 0 outside lo..hi-1
        v = np.zeros(len(e), dtype=np.int64)
        for k in range(count):
            at = start + k
            v = v * 10 + np.where((at >= lo) & (at < hi), digit.take(at, mode="clip"), 0)
        return v

    ke, kw = (int(x.max(where=ok, initial=0)) for x in (le, lw))
    elem = read(c - ke, ke, s, c)
    frac = read(d + 1, 6, d + 1, e)
    half_up = (lf > 6) & (digit.take(d + 7, mode="clip") >= 5)
    w = np.where(colon, read(d - kw, kw, ws, d) * fp.SCALE + frac + half_up, fp.SCALE)
    ok &= (elem >= 1) & (elem <= n) & (w > 0)
    return elem - 1, w, ok


def _token(tok: str, lineno: int, n: int) -> tuple[int, int]:
    """The 0-based element id and the weight, in fixed-point units, of one
    token, read with str and int; ValueError naming ``lineno`` if invalid."""
    elem_s, colon, weight_s = tok.partition(":")
    if not elem_s.isdecimal():
        raise ValueError(f"line {lineno}: malformed token {fp.cut(tok)!r}")
    elem = fp.bounded_int(elem_s)
    if elem is None or not 1 <= elem <= n:
        shown = fp.cut(elem_s if elem is None else str(elem))
        raise ValueError(f"line {lineno}: element {shown} outside 1..{n}")
    weight = fp.SCALE
    if colon:
        try:
            weight = fp.from_decimal(weight_s)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed token {fp.cut(tok)!r}: {exc}") from None
        if weight <= 0:
            raise ValueError(f"line {lineno}: non-positive weight in {fp.cut(tok)!r}")
    return elem - 1, weight


def format_allocation_text(g: FeatureAllocation) -> str:
    """Serialize to the text format; parse_allocation_text round-trips it."""
    el, w, ptr = g.elems.tolist(), g.weights.tolist(), g.indptr.tolist()
    lines = [f"n={g.n} r={fp.format_decimal(g.r_scaled)}"] + [
        " ".join(f"{e + 1}:{fp.format_decimal(x)}" for e, x in zip(el[lo:hi], w[lo:hi]))
        for lo, hi in zip(ptr, ptr[1:])
    ]
    return "\n".join(lines) + "\n"
