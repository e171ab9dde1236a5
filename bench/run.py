"""Benchmark of the ``gea`` command line: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src``. A run writes the workload's seeded input, measures
the set-up time of a fresh interpreter, then runs the workload's closed
loop in a worker process (worker.py) for S seconds and checks its output
(checks.py). With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` the worker also makes traced passes (tracing.py) and the run
reports the per-layer metrics. Pass and layer times are rescaled to a
reference machine speed (calibrate.py); the raw median pass time is
recorded too. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the input, the sample counts, the
raw times and the environment.

``--smoke`` runs all four workloads once at tiny sizes, traced, and exits
non-zero if any output check fails.

Nothing is pinned to a CPU and no cache is dropped; only the benchmark's
own processes are measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 4  # fresh interpreters before and again after the worker
WORKER_LIMIT_S = 150  # a whole run must end within 180 s
ACCOUNT_TOL_S = 1e-6  # layer self times must add up to the traced wall

PER_LAYER_UNITS = {
    "cli.parse_csv_s": "s",
    "categorize.categorize_s": "s",
    "categorize.blocks": "count",
    "categorize.nnz": "count",
    "allocation.parse_s": "s",
    "allocation.bytes": "bytes",
    "allocation.nnz": "count",
    "agglomeration.gea_s": "s",
    "agglomeration.merges_per_s": "1/s",
    "agglomeration.gea_peak_mb": "MiB",
    "agglomeration.cut_s": "s",
    "agglomeration.score_s": "s",
    "agglomeration.emit_s": "s",
    "agglomeration.emit_bytes": "bytes",
    "entropy.generalized_entropy_s": "s",
    "cli.glue_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "gea" / "cli.py").is_file():
        print(f"error: no gea sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibrate
    import workloads

    if args.smoke:
        return smoke()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inp = workloads.make_input(args.workload, seed, Path(tmp), ROOT)
        setup = [] if args.trace else measure_setup(SETUP_RUNS)
        res, maxrss_kb = run_worker(inp.argv, args.seconds, bool(args.trace), Path(tmp))
        if not args.trace:
            setup += measure_setup(SETUP_RUNS)
        info, summary = evaluate(inp, res)
    info["raw"] = {"wall_s": statistics.median(p["s"] for p in res["passes"]),
                   "kernel_ms": 1e3 * statistics.median(p["kernel_s"] for p in res["passes"])}
    if args.trace:
        spans = [s for t in res["traces"] for s in t["spans"]]
        (WORK / f"spans-{inp.name}-seed{seed}.json").write_text(json.dumps(spans))
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layer_metrics(inp, res).items()}
    else:
        metrics = {
            "wall_s": (statistics.median(calibrate.to_reference(p["s"], p["kernel_s"])
                                         for p in res["passes"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (maxrss_kb / 1024, "MiB"),
            "pass_frac": (1 - summary["failed"] / summary["attempted"], "ratio"),
        }
    info["environment"] = environment(res["numpy"])
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(summary))
    return 0


def evaluate(inp, res: dict, smoke: bool = False) -> tuple[dict, dict]:
    """Check the worker's output and count the failed passes."""
    import checks
    import tracing

    _, g = tracing.load_allocation(inp.argv)
    errors = [] if res["exit_code"] == 0 else [f"exit code {res['exit_code']}"]
    if not Path(res["gea_file"]).resolve().is_relative_to(SRC):
        errors.append(f"worker imported gea from {res['gea_file']}, not from {SRC}")
    errors += checks.output_errors(inp, res["output"], g, smoke)
    trace_errors = [f"traced pass {i}: {t['error']}" for i, t in enumerate(res["traces"]) if "error" in t]
    trace_errors += [f"traced pass {i}: self times leave {gap!r} s of its wall unaccounted"
                     for i, gap in enumerate(unaccounted(t["spans"]) for t in res["traces"])
                     if abs(gap) > ACCOUNT_TOL_S]
    passes = res["passes"] + res["traces"]
    attempted = len(passes)
    failed = attempted if errors else sum(not p["ok"] for p in passes)
    info = {
        "workload": inp.name,
        "seed": inp.seed,
        "input": {"n": inp.n, "blocks": len(g.blocks),
                  "nnz": sum(len(b.entries) for b in g.blocks), "bytes": inp.path.stat().st_size},
        "samples": len(res["passes"]),
        "traced_samples": len(res["traces"]),
        "errors": errors + trace_errors,
    }
    summary = {"correct": failed == 0 and not trace_errors, "attempted": attempted, "failed": failed}
    return info, summary


def unaccounted(spans: list[dict]) -> float:
    """Traced wall time minus the sum of every span's self time."""
    import tracing

    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    return wall - sum(tracing.self_times(spans).values())


def layer_metrics(inp, res: dict) -> dict[str, float]:
    """Medians over the traced passes of each layer's self time, rescaled to
    reference speed like ``wall_s``, plus counts. ``trace.wall_s`` is the
    traced wall time without the calibration ticks: the sum of the layers."""
    import calibrate
    import tracing

    per_pass = []
    for t in res["traces"]:
        layers = dict.fromkeys(tracing.LAYER_OF_SPAN.values(), 0.0)
        for name, s in tracing.self_times(t["spans"]).items():
            if name in tracing.LAYER_OF_SPAN:
                layers[tracing.LAYER_OF_SPAN[name]] += calibrate.to_reference(s, t["kernel_s"])
        per_pass.append(layers)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["trace.wall_s"] = statistics.median(sum(p.values()) for p in per_pass)
    untraced = statistics.median(calibrate.to_reference(p["s"], p["kernel_s"]) for p in res["passes"])
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    gea_s = out["agglomeration.gea_s"]
    out["agglomeration.merges_per_s"] = (inp.n - 1) / gea_s if gea_s > 0 else 0.0
    out["agglomeration.gea_peak_mb"] = res["gea_peak_bytes"] / 2**20
    counts = res["traces"][0]["counts"]
    return {k: out.get(k, counts.get(k, 0)) for k in PER_LAYER_UNITS}


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup(runs: int) -> list[float]:
    """Seconds for each of ``runs`` fresh interpreters to finish ``import gea.cli``.

    Not rescaled: import is mostly file, mmap and page-fault work that the
    calibration kernel does not track, and rescaling made it no steadier.
    """
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gea.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=10)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(argv: list[str], seconds: float, trace: bool, tmp: Path,
               min_passes: int | None = None) -> tuple[dict, int]:
    """Run worker.py to completion; returns its result and its peak RSS in KiB."""
    result = tmp / "result.json"
    spec = {"argv": argv, "seconds": seconds, "trace": trace, "result": str(result)}
    if min_passes is not None:
        spec["min_passes"] = min_passes
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                             json.dumps(spec)], env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    status, rusage = _wait4(proc, WORKER_LIMIT_S)
    if status != 0:
        raise RuntimeError(f"worker failed with wait status {status}")
    return json.loads(result.read_text(encoding="utf-8")), rusage.ru_maxrss


def _wait4(proc: subprocess.Popen, limit_s: int):
    """``os.wait4`` on ``proc`` (for its peak RSS), killing it after ``limit_s``."""

    def expire(signum, frame):
        raise TimeoutError(f"worker still running after {limit_s} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit_s)
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        proc.returncode = -1  # reaped here; stop Popen from waiting again
    return status, rusage


def environment(numpy_version: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loop": "closed: 1 client, 1 worker process, no threads",
        "pinned": False,
        "caches_dropped": False,
        "measured": "only the benchmark's own processes",
    }


def smoke() -> int:
    """All four workloads once each at tiny sizes, traced; 0 if all pass."""
    import workloads

    bad = 0
    WORK.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            inp = workloads.make_input(name, workloads.DEFAULT_SEED, Path(tmp), ROOT, smoke=True)
            res, _ = run_worker(inp.argv, 0, True, Path(tmp), min_passes=1)
            info, summary = evaluate(inp, res, smoke=True)
        print(json.dumps({**info, **summary}))
        bad += not summary["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
