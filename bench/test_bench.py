"""The benchmark's own tests: ``python3 -m pytest bench``."""
from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from gea import cli  # noqa: E402


def test_smoke_runs_every_workload_and_passes():
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in results] == list(workloads.NAMES)
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] >= 2 for r in results)


@pytest.mark.parametrize("name,swap", [
    ("iris", (0, -1)),
    ("iris", (0, 1)),
    ("sparse-alloc", (0, -1)),
])
def test_swapped_merges_count_as_failed(tmp_path, name, swap):
    smoke = name != "iris"
    inp = workloads.make_input(name, workloads.DEFAULT_SEED, tmp_path, run.ROOT, smoke=smoke)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(inp.argv) == 0
    lines = out.getvalue().splitlines()
    doc = json.loads(lines[0])
    i, j = swap
    doc["merges"][i], doc["merges"][j] = doc["merges"][j], doc["merges"][i]
    corrupted = "\n".join([json.dumps(doc), *lines[1:]]) + "\n"

    def evaluate(output):
        res = {"exit_code": 0, "output": output, "traces": [], "gea_file": cli.__file__,
               "passes": [{"s": 0.1, "ok": True}, {"s": 0.1, "ok": True}]}
        return run.evaluate(inp, res, smoke=smoke)

    info, summary = evaluate(out.getvalue())
    assert info["errors"] == [] and summary["failed"] == 0 and summary["correct"]
    info, summary = evaluate(corrupted)
    assert info["errors"]
    assert summary == {"correct": False, "attempted": 2, "failed": 2}


def test_generators_are_seeded(tmp_path):
    for d in "abc":
        (tmp_path / d).mkdir()
    for name in ("grid-n400", "sparse-alloc", "entropy-big"):
        a = workloads.make_input(name, 7, tmp_path / "a", run.ROOT, smoke=True)
        b = workloads.make_input(name, 7, tmp_path / "b", run.ROOT, smoke=True)
        c = workloads.make_input(name, 8, tmp_path / "c", run.ROOT, smoke=True)
        assert a.path.read_bytes() == b.path.read_bytes() != c.path.read_bytes()
