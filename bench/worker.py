"""One workload's closed loop, in its own process: one client, no threads.

Run as ``python3 bench/worker.py SPEC_JSON`` with the checkout's ``src`` on
PYTHONPATH. It imports ``gea.cli``, does one warm-up pass, then runs
``gea.cli.main(argv)`` with stdout captured, each pass starting when the
last one ended, until ``seconds`` have passed. A calibration kernel
samples the machine's speed during each pass (calibrate.py). With
``trace`` set, every timed pass is followed by a traced pass (see
tracing.py), and one last pass measures ``gea()`` under ``tracemalloc``.
The result, with the spans, goes to the JSON file the spec names.
"""
from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy

import calibrate
import gea
import gea.cli
import tracing

MIN_PASSES = 2  # per kind of pass, whatever ``seconds`` says


def cli_pass(argv: list[str]) -> tuple[int, str]:
    """One ``gea`` command, as the console script runs it."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = gea.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def timed(argv: list[str], reference: str) -> dict:
    with calibrate.Sampler() as sampler:
        t0 = time.perf_counter()
        code, out = cli_pass(argv)
        seconds = time.perf_counter() - t0
    return {"s": seconds - sampler.busy_s(), "kernel_s": sampler.kernel_s(),
            "ok": code == 0 and out == reference}


def traced(argv: list[str], trace_id: int, reference: str) -> dict:
    """A traced pass; the calibration ticks become ``calibrate.kernel`` spans,
    so that they come out of the self time of the span they interrupted."""
    tracer = tracing.Tracer(trace_id)
    with calibrate.Sampler() as sampler:
        try:
            out, counts = tracing.traced_pass(argv, tracer)
        except Exception as exc:  # counted as a failed pass, not a crash
            out, counts = repr(exc), None
    tracer.add_spans("calibrate.kernel", sampler.ticks)
    rec = {"ok": out == reference, "spans": tracer.spans, "counts": counts or {},
           "kernel_s": sampler.kernel_s()}
    if counts is None:
        rec["error"] = out
    return rec


def main() -> int:
    spec = json.loads(sys.argv[1])
    argv, trace = spec["argv"], spec["trace"]
    code, reference = cli_pass(argv)  # warm-up: lazy imports, file cache
    passes, traces = [], []
    min_passes = spec.get("min_passes", MIN_PASSES)
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(timed(argv, reference))
        if trace:
            traces.append(traced(argv, len(traces), reference))
    result = {
        "exit_code": code,
        "output": reference,
        "passes": passes,
        "traces": traces,
        "numpy": numpy.__version__,
        "gea_file": gea.__file__,
    }
    if trace:
        result["gea_peak_bytes"] = tracing.gea_peak_bytes(argv)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
