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

The text parser takes the file's UTF-8 bytes. It walks ASCII bytes as they
are. Other bytes it decodes, naming the line of a bad byte, and encodes once
more, non-ASCII whitespace mapped to ASCII first. It walks the bytes in
pieces of a 64 KiB window: numpy finds each piece's tokens, the lines they
open and the comment lines, checks the token grammar and reads the digits,
each array freed after its last use, so that a piece's arrays peak near
0.5 MiB for tokens of 8 bytes and 2 MiB for one-byte tokens. A token it
cannot certify (Unicode digits, a signed weight, over six decimals, a field
too long for int64, a malformed token) takes the scalar check, which
converts it exactly or raises the error naming its line, counted from the
token's byte offset. The walk has two ends.
``parse_allocation_text`` folds the tokens into the CSR arrays, freeing the
bytes before the fold and each token array after the fold's last use of it;
for this CSR build the fold sets the peak memory.
``parse_block_sizes``, for the entropy, sums each piece's weights per block
as the piece comes, in high and low 32-bit halves, and carries the block
open at its end into the next piece: it keeps no per-token array, no fold,
no CSR arrays. The bytes set its peak, or on blocks of one or two tokens the
per-block sums. ``rebased`` replaces either end's recurrence base.
"""
from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Mapping

import numpy as np

from . import fixedpoint as fp

# Upper bound on n, on r and on every block size (the last two in fixed-point
# units): the entropy kernel and the merge engine hold them in int64.
_INT64_MAX = 2**63 - 1
_LIMIT = fp.format_decimal(_INT64_MAX)  # as the errors show it
_BEYOND = f"exceeds the largest supported block size {_LIMIT}"
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
        _base(self.r_scaled)
        arrays = [np.asarray(getattr(self, k)) for k in _ARRAYS]
        if any(a.ndim != 1 or a.size and a.dtype.kind != "i" for a in arrays):
            raise ValueError("indptr, elems and weights must be 1-d arrays of fixed-point ints")
        indptr, elems, weights = (a.astype(np.int64, copy=a.base is not None) for a in arrays)
        steps = indptr[1:] - indptr[:-1]  # entries per block
        if indptr[:1].tolist() != [0] or steps.min(initial=1) <= 0 or indptr[-1] != len(elems):
            raise ValueError("indptr must rise from 0 to len(elems), by at least 1 per block")
        if len(weights) != len(elems):
            raise ValueError("elems and weights must have the same length")
        if elems.min(initial=0) < 0 or elems.max(initial=-1) >= n:
            raise ValueError(f"block references an element outside [0, {n})")
        flat = elems[1:] <= elems[:-1]
        flat[indptr[1:-1] - 1] = False  # a block's first element follows another block
        if np.count_nonzero(flat) or weights.min(initial=1) <= 0:
            raise ValueError("a block's elements must ascend, each once, with positive weights")
        sizes = _block_sizes(indptr, weights)
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

        starts, elems, weights = array("q", [0]), array("q"), array("q")
        for i, m in enumerate(block_weights):
            if not m:
                raise ValueError(f"block {i} must be non-empty")
            for e, x in m.items():
                if isinstance(n, int) and not 0 <= e < n:  # before the int64 buffers
                    raise ValueError(f"block references an element outside [0, {n})")
                if (w := fp.from_number(x)) <= 0:
                    raise ValueError(f"block {i}, element {e}: weight must be positive")
                if w > _INT64_MAX:
                    raise ValueError(f"block {i}, element {e}: weight {_BEYOND}")
                elems.append(e)
                weights.append(w)
            starts.append(len(elems))
        return _from_tokens(n, starts, [elems, weights], fp.from_number(r))


def _block_sizes(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each block's size as int64, checked by :func:`_checked_sizes`. The
    high 32-bit halves of the weights are summed apart, as an int64 sum
    wraps silently: the plain sum less the high halves' sum times 2**32,
    both wrapping, is the low halves' sum. One temporary at a time."""
    hi = np.add.reduceat(weights >> 32, indptr[:-1])
    return _checked_sizes(hi, np.add.reduceat(weights, indptr[:-1]) - hi * 2**32)


def _checked_sizes(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The sizes hi * 2**32 + lo of blocks whose weights' high and low 32-bit
    halves sum to hi and lo, or ValueError naming the first that is beyond
    int64, with its exact size. lo is below 2**63 in a block of fewer than
    2**31 entries."""
    if len(bad := np.flatnonzero(hi + (lo >> 32) >= 2**31)):
        i = int(bad[0])
        size = fp.format_decimal(int(hi[i]) * 2**32 + int(lo[i]))
        raise ValueError(f"block {i}: size {size} {_BEYOND}")
    return hi * 2**32 + lo


def _base(r_scaled) -> int:
    """``r_scaled``, checked as the recurrence base of an allocation."""
    if not isinstance(r_scaled, int) or not 0 < r_scaled <= _INT64_MAX:
        raise ValueError(f"recurrence base must be positive and at most {_LIMIT}")
    return r_scaled


def rebased(g, r_scaled: int):
    """A copy of ``g``, either parser's result, with recurrence base ``r_scaled``,
    checked; it shares the read-only arrays, and no constructor runs again."""
    g = copy.copy(g)
    object.__setattr__(g, "r_scaled", _base(r_scaled))
    return g


def _from_tokens(n, starts, tokens, r_scaled) -> FeatureAllocation:
    """The allocation whose block i is the non-empty run of (element, weight)
    tokens from ``starts[i]`` to ``starts[i + 1]`` of the int64 buffers in
    ``tokens``, [elements, weights]. The fold empties that list, so a buffer
    nothing else holds is freed after its last use. Repeated elements fold
    by summing, exactly, as block sizes are checked first."""
    starts, w, el = (np.frombuffer(a, dtype=np.int64) for a in (starts, tokens.pop(), tokens.pop()))
    _block_sizes(starts, w)
    # the fold sets the CSR parse's peak memory: block ids take the narrowest
    # dtype, and each array goes as soon as it is used
    nblocks = len(starts) - 1
    blk = np.repeat(np.arange(nblocks, dtype=np.min_scalar_type(nblocks)), starts[1:] - starts[:-1])
    m = int(el.max(initial=0)) + 1
    if el.min(initial=0) >= 0 and nblocks * m <= 2**63:  # by block, then element: one key
        key = blk.astype(np.int64)
        key *= m
        key += el
        del blk, el  # the elements' buffer goes: the folded keys give them back
        cols = [key[order := np.argsort(key, kind="stable")]]
        del key
    else:  # the key would pass int64, or an element is negative
        cols = [blk[order := np.lexsort((el, blk))], el[order]]
        del blk, el
    w = w[order]
    del order
    new = np.ones(len(w), dtype=bool)
    new[1:] = np.logical_or.reduce([c[1:] != c[:-1] for c in cols])
    first = np.flatnonzero(new)
    del new
    w = np.add.reduceat(w, first)
    cols = [c[first] for c in cols]
    del first
    blk, el = np.divmod(cols.pop(), m) if len(cols) == 1 else cols
    indptr = np.append(0, np.cumsum(np.bincount(blk, minlength=nblocks)))
    del blk
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
    if len(odd := np.flatnonzero(g.sizes % fp.SCALE)):
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
# Bytes per numpy pass, extended to the next whitespace: its temporaries stay
# near 0.5 MiB for tokens of 8 bytes or more, 2 MiB for one-byte tokens, well
# below the fold at the end, which sets the CSR parse's peak memory.
_CHUNK_BYTES = 2**16
# Non-ASCII whitespace to ASCII: the line breaks to \x1e, also a break of
# str.splitlines that never pairs with \r, the others to a space
_UNICODE_SPACES = str.maketrans(
    "\x85\u2028\u2029\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
    "\u200a\u202f\u205f\u3000", "\x1e" * 3 + " " * 16
)
# The whitespace bytes left: line breaks, \r\n collapsed to \n, and blanks
_BREAKS, _BLANKS = b"\n\v\f\r\x1c\x1d\x1e", b"\t\x1f "
_SPACE = re.compile(rb"[\t-\r\x1c-\x20]")
# blank and comment lines, then the header line
_PREAMBLE = re.compile(
    rb"(?:[\t\x1f ]*(?:#[^\n\v\f\r\x1c-\x1e]*)?[\n\v\f\r\x1c-\x1e])*[\t\x1f ]*([^\n\v\f\r\x1c-\x1e]*)"
)
# bytes.translate table to byte classes, in an order where one comparison
# tells whitespace from token bytes: the digits become 0 to 9, ':' 10, '.' 11,
# '#' 12, any other byte 13, a blank 14 and a line break 15
_CLASSES = bytes(
    k if (k := b"0123456789:.#".find(c)) >= 0 else 15 if c in _BREAKS else 14 if c in _BLANKS else 13
    for c in range(256)
)


def parse_allocation_text(data: bytes) -> FeatureAllocation:
    """Parse the allocation text format from its UTF-8 bytes. Raises
    ValueError with a line number on malformed input. :func:`rebased`
    replaces the header's recurrence base.

    ASCII bytes are read as they are, others decoded and encoded once more;
    numpy finds the lines, tokens and comments in the bytes and converts the
    tokens a bounded piece at a time.
    """
    walk = _walk(data)
    del data  # the walk frees them before the fold, unless the caller keeps them (gea's CLI doesn't)
    n, r_scaled = next(walk)
    cols = list(zip(*walk))  # the pieces' block starts, elements and weights
    starts, *tokens = (np.concatenate(cols.pop(0)) for _ in range(3))  # each list goes once joined
    return _from_tokens(n, starts, tokens, r_scaled)


def parse_block_sizes(data: bytes) -> SimpleNamespace:
    """What an entropy reads of allocation text, given its UTF-8 bytes:
    ``n``, ``r_scaled`` and ``sizes``, each block's total weight as int64,
    equal to those fields of :func:`parse_allocation_text`, with its errors.
    It runs that parser's walk and sums each piece's weights per block, in
    high and low 32-bit halves, the block open at its end carried on: no
    per-token array is kept, no CSR array built, and the sizes are checked
    once every token has parsed. No check of the constructor could fail
    after these: the walk checks n and the recurrence base, each element
    against 1..n and each weight for being positive and within int64, no
    block is empty, and the size check keeps every size within int64.
    """
    walk = _walk(data)
    del data  # as in parse_allocation_text
    n, r_scaled = next(walk)
    sums, carry, seen = [], 0, 0  # per piece its blocks' half sums; the open block's; tokens
    for first, el, w in walk:
        # the halves, a 0 on each side: the part before the first block start
        # (none if a block starts there) adds to the open block, the last stays
        # open; the walk's last piece, of no tokens, closes it
        halves = np.zeros((2, len(w) + 2), np.int64)
        np.right_shift(w, 32, out=halves[0, 1:-1])
        np.bitwise_and(w, 2**32 - 1, out=halves[1, 1:-1])
        part = np.add.reduceat(halves, np.append(0, first - seen + 1), axis=1)
        part[:, 0] += carry
        sums.append(part[:, :-1])
        carry, seen = part[:, -1], seen + len(w)
        del first, el, w, halves  # before the walk makes the next piece
    hi, lo = np.concatenate(sums, axis=1)[:, 1:]  # the first piece's first part is no block
    del sums
    return SimpleNamespace(n=n, r_scaled=r_scaled, sizes=_checked_sizes(hi, lo))


def _walk(data: bytes):
    """The token walk of both parsers, a generator. It yields n and the
    header's r_scaled, both checked to lie within int64, then per piece, a
    window of _CHUNK_BYTES bytes run on to whitespace, three int64 arrays: the
    piece's blocks' first tokens, numbered from the first block, its 0-based
    elements and its weights, each weight within int64; a last piece, of no
    tokens, gives the token count. Comment lines are dropped. ASCII bytes are
    walked as they are; other bytes are decoded from UTF-8, their non-ASCII
    whitespace mapped to ASCII, and encoded. A bad UTF-8 byte's error and the
    header's come with the first item, a token's with its piece."""
    if not data.isascii():
        try:  # each copy goes once the next is made: the bytes, the text, the mapped text
            data = data.decode()
        except UnicodeDecodeError as exc:  # lines as str.splitlines counts them, the bad byte a "?"
            line = len((exc.object[: exc.start].decode() + "?").splitlines())
            bad = exc.object[exc.start]
            raise ValueError(f"line {line}: not valid UTF-8 (byte 0x{bad:02x})") from None
        data = data.translate(_UNICODE_SPACES)
        data = data.encode()
    if b"\r" in data:  # one break, as in str.splitlines; memchr, where replace scans 100x slower
        data = data.replace(b"\r\n", b"\n")
    at, end = _PREAMBLE.match(data).span(1)  # the header line
    if at == end or data[at] == 35:  # no line left, or a '#' line that no break ends
        raise ValueError("missing header line 'n=<int> r=<decimal>'")
    lineno = _lineno(data, at)
    m = _HEADER_RE.match(data[at:end].decode().rstrip())
    if not m:
        raise ValueError(f"line {lineno}: expected header 'n=<int> r=<decimal>'")
    n = fp.bounded_int(m.group(1))
    if n is None or n > _INT64_MAX:  # elements go to int64 buffers
        shown = fp.cut(m.group(1) if n is None else str(n))
        raise ValueError(f"line {lineno}: element count must be an int in [0, 2**63), got {shown}")
    try:
        r_scaled = fp.from_decimal(m.group(2))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad recurrence base: {exc}") from None
    if not 0 < r_scaled <= _INT64_MAX:
        raise ValueError(f"line {lineno}: recurrence base must be positive and at most {_LIMIT}")
    yield n, r_scaled
    yield from _blocks(data, end, n)


def _lineno(data: bytes, at: int) -> int:
    """The 1-based line of byte ``at``: one more than the breaks before it."""
    return 1 + sum(data.count(c, 0, at) for c in _BREAKS)


def _blocks(data: bytes, p: int, n: int):
    """The pieces of :func:`_walk` from byte ``p`` on."""
    count = 0  # tokens so far
    opening, comment = True, False  # a break since the last token; the last line a comment
    while p < len(data):
        # a byte window, extended to whitespace: it cuts no token
        ws = _SPACE.search(data, p + _CHUNK_BYTES - 1)
        q = ws.start() if ws else len(data)
        b = np.frombuffer(data[p:q].translate(_CLASSES), np.uint8)
        edges = np.flatnonzero(np.diff(b > 13, prepend=True, append=True))
        s, e = edges[::2], edges[1::2]  # each token's first byte and its end
        # a token opens a line if a break follows the token before it; the
        # piece's end too, for the next piece's first token
        opens = np.zeros(len(s) + 1, bool)
        opens[s.searchsorted(np.flatnonzero(b == 15))] = True  # the token after each break
        opens[0] |= opening
        opens, opening = opens[:-1], bool(opens[-1])
        if comment or data.find(b"#", p, q) >= 0:
            # per line, whether it is a comment, the last piece's first
            comments = np.append(comment, b[s[opens]] == 12)
            comment = bool(comments[-1])
            keep = ~comments[np.cumsum(opens)]
            s, e, opens = s[keep], e[keep], opens[keep]
        first = np.flatnonzero(opens)
        del edges, opens
        el, w, ok = _scan(b, s, e, n)
        for t in np.flatnonzero(~ok).tolist():
            at = p + int(s[t])
            try:
                el[t], w[t] = _token(data[at : p + int(e[t])].decode(), n)
            except ValueError as exc:
                raise ValueError(f"line {_lineno(data, at)}: {exc}") from None
        yield count + first, el, w
        count, p = count + len(s), q
        del b, s, e, first, el, w, ok  # before the next piece's arrays are made
    empty = np.zeros(0, dtype=np.int64)
    yield np.array([count]), empty, empty


def _scan(b: np.ndarray, s: np.ndarray, e: np.ndarray, n: int):
    """The byte pass. ``b`` holds a piece's bytes as classes: digits as 0 to
    9, ':' 10, '.' 11, other bytes 12 or 13, whitespace 14 or more; token i
    is bytes s[i] to e[i] - 1. Per token: the 0-based element id, the weight
    in fixed-point units, and whether both are certified: the token is
    ``element[:weight]``, an element of at most 18 digits in 1..n and an
    unsigned positive weight of at most 12 digits before the point and 6
    after it. Uncertified tokens' values are junk. Each array goes after its
    last use: the pass sets the walk's peak memory."""
    # the bytes in tokens that are not digits, and three past the piece:
    # per token, the first two are a certified token's ':' and '.', and a
    # third must lie past its end
    at = np.flatnonzero(np.append((b > 9) & (b < 14), [True] * 3))
    i = at.searchsorted(s)
    ok = at[i + 2] >= e
    d = at[i + 1]
    c = at[i]
    del at, i
    np.minimum(c, e, out=c)  # a certified token's ':' and '.', or its end
    np.minimum(d, e, out=d)
    colon, point = c < e, d < e
    le, lw, lf = c - s, d - c, e - d  # element, whole and fraction lengths
    lw -= 1  # less the ':' and the '.'
    lf -= 1
    ok &= (le >= 1) & (le <= 18) & (lw <= 12) & (lf <= 6)
    ok &= (~colon | (b.take(c, mode="clip") == 10)) & (~point | (b.take(d, mode="clip") == 11))
    ok &= ~colon | np.where(point, lf >= 1, lw >= 1)  # digits, and some after a point
    ke, kw, kf = (int(x.max(where=ok, initial=0)) for x in (le, lw, lf))
    del le, lw, lf

    def read(at, count, valid):  # per token, digits at-count..at-1, 0 where not valid(at)
        at -= count  # in place: at ends where it began
        v = np.zeros(len(e), dtype=np.int64)
        for _ in range(count):
            v *= 10
            v += np.where(valid(at), b.take(at, mode="clip"), 0)
            at += 1
        return v

    # each part right-aligned, to the longest certified part
    elem = read(c, ke, lambda at: at >= s)
    w = read(d, kw, lambda at: at > c)
    del c
    w *= fp.SCALE
    d += kf + 1
    w += read(d, kf, lambda at: at < e) * 10 ** (6 - kf)  # to the longest certified fraction
    w[~colon] = fp.SCALE
    ok &= (elem >= 1) & (elem <= n) & (w > 0)
    elem -= 1
    return elem, w, ok


def _token(tok: str, n: int) -> tuple[int, int]:
    """The 0-based element id and the weight, in fixed-point units, of one
    token, read with str and int; ValueError if invalid."""
    elem_s, colon, weight_s = tok.partition(":")
    if not elem_s.isdecimal():
        raise ValueError(f"malformed token {fp.cut(tok)!r}")
    elem = fp.bounded_int(elem_s)
    if elem is None or not 1 <= elem <= n:
        shown = fp.cut(elem_s if elem is None else str(elem))
        raise ValueError(f"element {shown} outside 1..{n}")
    weight = fp.SCALE
    if colon:
        try:
            weight = fp.from_decimal(weight_s)
        except ValueError as exc:
            raise ValueError(f"malformed token {fp.cut(tok)!r}: {exc}") from None
        if weight <= 0:
            raise ValueError(f"non-positive weight in {fp.cut(tok)!r}")
        if weight > _INT64_MAX:
            raise ValueError(f"weight in {fp.cut(tok)!r} {_BEYOND}")
    return elem - 1, weight


def format_allocation_text(g: FeatureAllocation) -> str:
    """Serialize to the text format; parse_allocation_text round-trips its UTF-8 bytes."""
    el, w, ptr = g.elems.tolist(), g.weights.tolist(), g.indptr.tolist()
    lines = [f"n={g.n} r={fp.format_decimal(g.r_scaled)}"] + [
        " ".join(f"{e + 1}:{fp.format_decimal(x)}" for e, x in zip(el[lo:hi], w[lo:hi]))
        for lo, hi in zip(ptr, ptr[1:])
    ]
    return "\n".join(lines) + "\n"
