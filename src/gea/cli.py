"""Command line front end.

Two subcommands:

* ``gea cluster`` ingests a numeric CSV (via categorization) or an
  allocation text file, clusters, and emits the dendrogram as JSON and/or
  Newick; optionally cuts it into flat clusters and scores them against a
  label column.
* ``gea entropy`` prints the generalized entropy of an allocation file.

Logs and warnings go to stderr; machine-readable output goes to stdout or
to ``--output``. Exit codes: 0 success, 1 input/usage error, 2 internal
invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from pathlib import Path

from . import fixedpoint as fp
from .agglomeration import cut, gea, score_accuracy, to_json, to_newick
from .allocation import parse_allocation_text, parse_block_sizes, rebased
from .categorize import CategorizationParams, NumericDataset, categorize, minmax_scale
from .entropy import generalized_entropy


def _parse_file(path, parse):
    """``parse`` of the bytes of file ``path``, a leading byte-order mark
    skipped. The bytes are popped into the call, so ``parse`` holds the only
    reference and can free them early. Errors name the file."""
    try:
        data = [Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return parse(data.pop())  # a plain call hands them over; an argument tuple would keep them
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_csv(path, label_col: str | None = None) -> NumericDataset:
    """Read a UTF-8 CSV (a leading byte-order mark is skipped) with a header
    row; every column except the optional label column must parse as a
    number. Errors name rows by their line in the file."""

    def dataset(data: bytes) -> NumericDataset:
        try:
            reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        except UnicodeDecodeError as exc:  # lines end at \n, \r or \r\n, as in csv
            line, bad = len(exc.object[: exc.start + 1].splitlines()), exc.object[exc.start]
            raise ValueError(f"line {line}: not valid UTF-8 (byte 0x{bad:02x})") from None
        del data  # csv reads the decoded text; the bytes go now
        try:
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:  # e.g. a cell over csv's field size limit
            raise ValueError(f"row {reader.line_num}: {exc}") from None
        if not rows:
            raise ValueError("empty file")
        header = [h.strip() for h in rows[0][1]]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise ValueError(f"duplicate header names: {', '.join(dupes)}")
        label_idx = None
        if label_col is not None:
            if label_col not in header:
                raise ValueError(f"no column named {label_col!r}")
            label_idx = header.index(label_col)
        cols = [i for i in range(len(header)) if i != label_idx]
        if not cols:
            raise ValueError("no numeric columns")
        values = []
        for rowno, row in rows[1:]:
            if len(row) != len(header):
                raise ValueError(f"row {rowno}: expected {len(header)} cells, got {len(row)}")
            vals = []
            for i in cols:
                cell = row[i]
                try:
                    if "_" in cell:  # float() would read digit-group underscores: 1_0 as 10
                        raise ValueError
                    v = float(cell)
                except ValueError:
                    raise ValueError(
                        f"row {rowno}, column {header[i]!r}: "
                        f"cannot parse {fp.cut(cell.strip())!r} as a number"
                    ) from None
                if not math.isfinite(v):
                    raise ValueError(f"row {rowno}, column {header[i]!r}: non-finite value")
                vals.append(v)
            values.append(vals)
        if not values:
            raise ValueError("no data rows")
        labels = None if label_idx is None else [row[label_idx].strip() for _, row in rows[1:]]
        return NumericDataset([header[i] for i in cols], values, labels)

    return _parse_file(path, dataset)


def parse_allocation(path, r_override: str | None = None, parse=parse_allocation_text):
    """Read an allocation text file with ``parse``: parse_allocation_text, or
    parse_block_sizes where the block sizes are enough, from the file's bytes,
    which it decodes only if they are not ASCII. ``r_override`` (a decimal
    string) replaces the header's recurrence base, with a warning when they
    differ; the file's own errors are reported first."""
    g = _parse_file(path, parse)
    if r_override is not None and (r_s := _parse_r(r_override)) != g.r_scaled:
        header, g = g.r_scaled, rebased(g, r_s)
        print(
            f"warning: --r {fp.format_decimal(r_s)} overrides header "
            f"r={fp.format_decimal(header)}",
            file=sys.stderr,
        )
    return g


def _parse_r(text: str) -> int:
    """The ``--r`` option of either mode as a positive decimal literal, read
    like the allocation header's ``r=``; returns fixed-point units."""
    try:
        r_s = fp.from_decimal(text)
    except ValueError as exc:
        raise ValueError(f"bad --r value: {exc}") from None
    if r_s <= 0:
        raise ValueError("--r must be positive")
    return r_s


def _execute(args: argparse.Namespace) -> None:
    """The ``gea cluster`` pipeline for one parsed command line."""
    t0 = time.perf_counter()
    labels = None
    if args.mode == "numeric":
        if args.d is None or args.m is None or args.gamma is None:
            raise ValueError("--mode numeric requires --d, --m and --gamma")
        r_s = fp.SCALE if args.r is None else _parse_r(args.r)
        ds = parse_csv(args.input, args.label_col)
        labels = ds.labels
        if args.scale:
            ds = minmax_scale(ds)
        g = rebased(categorize(ds, CategorizationParams(args.d, args.m, args.gamma)), r_s)
    else:
        g = parse_allocation(args.input, args.r)
    if g.n < 1:
        raise ValueError(f"{args.input}: need at least one element to cluster")
    if args.cut is not None and not 1 <= args.cut <= g.n:
        raise ValueError(f"--cut must be in 1..{g.n}, got {args.cut}")

    dend = gea(g)
    _emit(dend, args)

    accuracy = ""
    if args.cut is not None:
        clusters = cut(dend, args.cut)
        groups = [[] for _ in range(clusters.k)]
        for e, lab in enumerate(clusters.labels):
            groups[lab].append(str(e + 1))
        for lab, elems in enumerate(groups):
            print(f"cluster {lab}: {' '.join(elems)}")
        if labels is not None:
            correct, total = score_accuracy(clusters, labels)
            accuracy = f" accuracy={correct}/{total}"
            print(f"correct={correct} total={total}")

    runtime = time.perf_counter() - t0
    print(
        f"n={g.n} blocks={len(g.indptr) - 1} r={fp.format_decimal(g.r_scaled)} "
        f"runtime={runtime:.2f}s{accuracy}",
        file=sys.stderr,
    )


def _emit(dend, args: argparse.Namespace) -> None:
    texts = {}
    if args.format in ("json", "both"):
        texts["json"] = to_json(dend)
    if args.format in ("newick", "both"):
        texts["nwk"] = to_newick(dend)
    if args.output is None:
        for text in texts.values():
            print(text)
        return
    for ext, text in texts.items():
        path = args.output if len(texts) == 1 else f"{args.output}.{ext}"
        Path(path).write_text(text + "\n", encoding="utf-8")


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not internal ones
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gea",
        description="Hierarchical clustering of weighted feature allocations "
        "by minimum projection entropy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="cluster a CSV or allocation file")
    c.add_argument("--input", required=True, help="input file path")
    c.add_argument(
        "--mode",
        required=True,
        choices=["numeric", "allocation"],
        help="numeric: CSV through categorization; allocation: text format",
    )
    c.add_argument("--d", type=int, help="grid division parameter (numeric mode)")
    c.add_argument("--m", type=int, help="neighborhood overlap parameter (numeric mode)")
    c.add_argument("--gamma", type=float, help="flank weight power (numeric mode)")
    c.add_argument(
        "--r",
        help="recurrence base (decimal; numeric default 1.0, allocation "
        "default from the file header)",
    )
    c.add_argument("--cut", type=int, help="also emit k flat clusters")
    c.add_argument("--label-col", dest="label_col", help="CSV column with ground-truth labels")
    c.add_argument("--format", choices=["json", "newick", "both"], default="json")
    c.add_argument("--output", help="write dendrogram here instead of stdout")
    c.add_argument(
        "--scale", action="store_true", help="min-max scale each dimension first"
    )

    e = sub.add_parser("entropy", help="print the entropy of an allocation file")
    e.add_argument("--input", required=True, help="allocation text file")
    e.add_argument("--r", help="override the file's recurrence base (decimal)")
    return parser


def main(argv=None) -> int:
    """Run one command line; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "entropy":
            print(generalized_entropy(parse_allocation(args.input, args.r, parse_block_sizes)))
        else:
            _execute(args)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
