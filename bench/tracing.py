"""Spans around the public calls of each ``gea`` module, from outside.

:func:`traced_pass` replays what ``gea.cli.main`` does for one command line,
calling the same public functions in the same order as ``cli._execute``,
and records a span around each call. A span is (name, start, end, parent);
the root span ``cli.main`` covers the whole pass, and all spans of one pass
share its trace id. Spans stay in memory until the worker writes them out.

``gea()`` is one span: its mass build, pair fill and merge loop cannot be
told apart from outside the program.
"""
from __future__ import annotations

import io
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from gea import cli, fixedpoint as fp
from gea.agglomeration import cut, gea, score_accuracy, to_json, to_newick
from gea.categorize import CategorizationParams, categorize
from gea.entropy import generalized_entropy

# Span name -> per-layer metric that sums its self time; the root span's
# self time is the CLI glue (argparse, printing, config). The worker's
# ``calibrate.kernel`` spans belong to no layer.
LAYER_OF_SPAN = {
    "cli.main": "cli.glue_s",
    "cli.parse_csv": "cli.parse_csv_s",
    "categorize.categorize": "categorize.categorize_s",
    "cli.parse_allocation": "allocation.parse_s",
    "agglomeration.gea": "agglomeration.gea_s",
    "agglomeration.to_json": "agglomeration.emit_s",
    "agglomeration.to_newick": "agglomeration.emit_s",
    "agglomeration.cut": "agglomeration.cut_s",
    "agglomeration.score_accuracy": "agglomeration.score_s",
    "entropy.generalized_entropy": "entropy.generalized_entropy_s",
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"trace": self.trace_id, "name": name, "start": 0.0, "end": 0.0,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def add_spans(self, name: str, intervals: list[tuple[float, float]]) -> None:
        """Record spans measured elsewhere, each under the innermost span
        that contains it."""
        for start, end in intervals:
            parent = max((i for i, s in enumerate(self.spans)
                          if s["start"] <= start and end <= s["end"]),
                         key=lambda i: self.spans[i]["start"], default=None)
            self.spans.append({"trace": self.trace_id, "name": name, "start": start,
                               "end": end, "parent": parent})


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each span name: duration minus the part of its interval
    that its child spans cover, summed over spans of the same name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out


def traced_pass(argv: list[str], tracer: Tracer) -> tuple[str, dict]:
    """Run one command line as ``gea.cli.main`` would, with spans.

    Returns the captured stdout and the work counts; the counts are taken
    after the root span closes, so they cost the spans nothing. An error
    propagates instead of becoming an exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    emit_bytes = 0
    with redirect_stdout(out), redirect_stderr(err), tracer.span("cli.main"):
        args = cli.build_parser().parse_args(argv)
        if args.command == "entropy":
            g = tracer.call("cli.parse_allocation", cli.parse_allocation, args.input, args.r)
            print(tracer.call("entropy.generalized_entropy", generalized_entropy, g))
        else:
            g, emit_bytes = _traced_cluster(args, tracer)
    return out.getvalue(), _counts(args, g, emit_bytes)


def _traced_cluster(args, tracer: Tracer):
    """The body of ``cli._execute`` for the options the workloads use;
    returns the allocation and the bytes emitted for the dendrogram."""
    t0 = time.perf_counter()
    labels = None
    if args.mode == "numeric":
        if args.scale:
            raise ValueError("the traced run does not cover --scale")
        ds = tracer.call("cli.parse_csv", cli.parse_csv, args.input, args.label_col)
        labels = ds.labels
        params = CategorizationParams(args.d, args.m, args.gamma, args.r or "1.0")
        g = tracer.call("categorize.categorize", categorize, ds, params)
    else:
        g = tracer.call("cli.parse_allocation", cli.parse_allocation, args.input, args.r)
    dend = tracer.call("agglomeration.gea", gea, g)
    texts = []
    if args.format in ("json", "both"):
        texts.append(tracer.call("agglomeration.to_json", to_json, dend))
    if args.format in ("newick", "both"):
        texts.append(tracer.call("agglomeration.to_newick", to_newick, dend))
    for text in texts:
        print(text)
    scored = None
    if args.cut is not None:
        clusters = tracer.call("agglomeration.cut", cut, dend, args.cut)
        for lab in range(clusters.k):
            elems = " ".join(str(e + 1) for e in clusters.members(lab))
            print(f"cluster {lab}: {elems}")
        if labels is not None:
            scored = tracer.call("agglomeration.score_accuracy", score_accuracy, clusters, labels)
            print(f"correct={scored[0]} total={scored[1]}")
    summary = (
        f"n={g.n} blocks={len(g.blocks)} r={fp.format_decimal(g.r_scaled)} "
        f"runtime={time.perf_counter() - t0:.2f}s"
    )
    if scored:
        summary += f" accuracy={scored[0]}/{scored[1]}"
    print(summary, file=sys.stderr)
    return g, sum(len(t.encode()) for t in texts)


def _counts(args, g, emit_bytes: int) -> dict[str, int]:
    nnz = sum(len(b.entries) for b in g.blocks)
    counts = {"agglomeration.emit_bytes": emit_bytes}
    if getattr(args, "mode", None) == "numeric":
        counts.update({"categorize.blocks": len(g.blocks), "categorize.nnz": nnz})
    else:
        counts.update({"allocation.bytes": os.path.getsize(args.input), "allocation.nnz": nnz})
    return counts


def load_allocation(argv: list[str]):
    """The allocation a ``gea cluster`` or ``gea entropy`` command line
    clusters or measures, built untraced through the same public calls."""
    args = cli.build_parser().parse_args(argv)
    if getattr(args, "mode", None) == "numeric":
        params = CategorizationParams(args.d, args.m, args.gamma, args.r or "1.0")
        return args, categorize(cli.parse_csv(args.input, args.label_col), params)
    return args, cli.parse_allocation(args.input, args.r)


def gea_peak_bytes(argv: list[str]) -> int:
    """Peak bytes that ``tracemalloc`` sees inside one ``gea()`` call, or 0
    for a command that does not cluster."""
    args, g = load_allocation(argv)
    if args.command != "cluster":
        return 0
    tracemalloc.start()
    try:
        gea(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
