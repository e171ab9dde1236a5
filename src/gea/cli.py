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
from .allocation import FeatureAllocation, parse_allocation_text
from .categorize import CategorizationParams, NumericDataset, categorize, minmax_scale
from .entropy import generalized_entropy


def _read_text(path) -> str:
    """A UTF-8 input file's text, a leading byte-order mark skipped. Errors
    name the file, and for bad UTF-8 the 1-based line of the first bad byte."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # offsets count from after a BOM
        line = len(exc.object[: exc.start + 1].splitlines())  # \n, \r or \r\n ends a line
        bad = exc.object[exc.start]
        raise ValueError(f"{path}: line {line}: not valid UTF-8 (byte 0x{bad:02x})") from None


def parse_csv(path, label_col: str | None = None) -> NumericDataset:
    """Read a UTF-8 CSV (a leading byte-order mark is skipped) with a header
    row; every column except the optional label column must parse as a
    number. Errors name rows by their line in the file."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:  # e.g. a cell over csv's field size limit
        raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1]]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise ValueError(f"{path}: duplicate header names: {', '.join(dupes)}")
    label_idx = None
    if label_col is not None:
        if label_col not in header:
            raise ValueError(f"{path}: no column named {label_col!r}")
        label_idx = header.index(label_col)
    dims = tuple(h for i, h in enumerate(header) if i != label_idx)
    if not dims:
        raise ValueError(f"{path}: no numeric columns")
    values = []
    labels: list[str] | None = [] if label_idx is not None else None
    for rowno, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {rowno}: expected {len(header)} cells, got {len(row)}"
            )
        vals = []
        for i, cell in enumerate(row):
            if i == label_idx:
                labels.append(cell.strip())
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {rowno}, column {header[i]!r}: "
                    f"cannot parse {fp.cut(cell.strip())!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise ValueError(
                    f"{path}: row {rowno}, column {header[i]!r}: non-finite value"
                )
            vals.append(v)
        values.append(tuple(vals))
    if not values:
        raise ValueError(f"{path}: no data rows")
    return NumericDataset(dims, tuple(values), tuple(labels) if labels else None)


def parse_allocation(path, r_override: str | None = None) -> FeatureAllocation:
    """Read an allocation text file. ``r_override`` (a decimal string)
    replaces the header's recurrence base, with a warning when they differ."""
    text = _read_text(path)
    try:
        g = parse_allocation_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if r_override is not None:
        r_s = _parse_r(r_override)
        if r_s != g.r_scaled:
            header_r = fp.format_decimal(g.r_scaled)
            g = FeatureAllocation(g.n, g.indptr, g.elems, g.weights, r_s)
            print(
                f"warning: --r {fp.format_decimal(r_s)} overrides header r={header_r}",
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
        params = CategorizationParams(args.d, args.m, args.gamma, fp.to_fraction(r_s))
        g = categorize(ds, params)
    else:
        g = parse_allocation(args.input, args.r)
    if args.cut is not None and not 1 <= args.cut <= g.n:
        raise ValueError(f"--cut must be in 1..{g.n}, got {args.cut}")

    dend = gea(g)
    _emit(dend, args)

    scored = None
    if args.cut is not None:
        clusters = cut(dend, args.cut)
        for lab in range(clusters.k):
            elems = " ".join(str(e + 1) for e in clusters.members(lab))
            print(f"cluster {lab}: {elems}")
        if labels is not None:
            correct, total = score_accuracy(clusters, labels)
            scored = (correct, total)
            print(f"correct={correct} total={total}")

    runtime = time.perf_counter() - t0
    summary = (
        f"n={g.n} blocks={len(g.indptr) - 1} r={fp.format_decimal(g.r_scaled)} "
        f"runtime={runtime:.2f}s"
    )
    if scored:
        summary += f" accuracy={scored[0]}/{scored[1]}"
    print(summary, file=sys.stderr)


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
    if len(texts) == 1:
        Path(args.output).write_text(next(iter(texts.values())) + "\n", encoding="utf-8")
    else:
        for ext, text in texts.items():
            Path(f"{args.output}.{ext}").write_text(text + "\n", encoding="utf-8")


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
            print(generalized_entropy(parse_allocation(args.input, args.r)))
        else:
            _execute(args)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violations and everything unexpected
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
