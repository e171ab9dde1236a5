"""Acceptance gate: the end-to-end claims this package must honor.

Each test prints exactly one `[acceptance] <name>: PASS/FAIL` line (bypassing
pytest's capture) and then asserts, so a full `pytest -v` run shows the
scoreboard inline.
"""
import json
import math
import random
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

from gea import fixedpoint as fp
from gea.agglomeration import cut, gea, score_accuracy
from gea.allocation import FeatureAllocation
from gea.categorize import CategorizationParams, NumericDataset, categorize
from gea.cli import parse_csv
from gea.entropy import generalized_entropy, generalized_entropy_cod, information_sum

from helpers import (
    engine_members,
    naive_gea_members,
    random_allocation,
    random_integer_allocation,
    ragged,
    scaled_allocation,
    simpson,
)

IRIS = str(resources.files("gea") / "data" / "iris.csv")


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail):
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)

    return _report


def test_iris_reproduction(report):
    t0 = time.perf_counter()
    ds = parse_csv(IRIS, label_col="species")
    g = categorize(ds, CategorizationParams(d=10, m=5, gamma=3, r=1))
    clusters = cut(gea(g), 3)
    correct, total = score_accuracy(clusters, ds.labels)
    elapsed = time.perf_counter() - t0
    ok = correct >= 140 and total == 150 and elapsed < 60.0
    report(
        "iris-reproduction",
        ok,
        f"correct={correct}/{total} (floor 140, target 145), {elapsed:.2f}s",
    )
    assert ok


def test_zero_entropy_suite(report):
    rng = random.Random(101)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(1, 20)
        r_scaled = fp.from_number(rng.choice([0.5, 1, 2]))
        block = {e: r_scaled for e in range(n)}
        g = scaled_allocation(n, [block] * rng.randint(1, 6), r_scaled)
        worst = max(worst, abs(generalized_entropy(g)))
    ok = worst <= 1e-12
    report("zero-entropy-suite", ok, f"200 cases, max |H| = {worst:.3g} (tol 1e-12)")
    assert ok


def test_nonnegativity_suite(report):
    rng = random.Random(202)
    worst = math.inf
    for _ in range(1000):
        n = rng.randint(1, 15)
        r_scaled = fp.from_number(rng.choice([0.5, 1, 2]))
        blocks = []
        for _ in range(rng.randint(1, 8)):
            elems = rng.sample(range(n), rng.randint(1, n))
            blocks.append({e: rng.randint(1, r_scaled) for e in elems})
        worst = min(worst, generalized_entropy(scaled_allocation(n, blocks, r_scaled)))
    ok = worst >= -1e-12
    report("non-negativity-suite", ok, f"1000 cases, min H = {worst:.3g} (tol -1e-12)")
    assert ok


def test_negative_entropy_witness(report):
    g = FeatureAllocation.from_weights(1, [{0: 2.0}], r=1)
    h = generalized_entropy(g)
    expected = 2 * math.log(0.5)  # -1.3862943611198906
    ok = abs(h - expected) <= 1e-9
    report("negative-entropy-witness", ok, f"H = {h!r}, expected {expected!r} (tol 1e-9)")
    assert ok


def test_two_form_equivalence(report):
    rng = random.Random(303)
    worst = 0.0
    for _ in range(1000):
        g = random_integer_allocation(rng, max_n=10, max_blocks=10, max_weight=3)
        worst = max(worst, abs(generalized_entropy(g) - generalized_entropy_cod(g)))
    ok = worst <= 1e-9
    report("two-form-equivalence", ok, f"1000 cases, max |gap| = {worst:.3g} (tol 1e-9)")
    assert ok


def test_quadrature_check(report):
    rng = random.Random(404)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 20)
        r = rng.choice([0.5, 1.0, 2.0, 3.5])
        # the kernel gea() evaluates, on a one-row, one-block int64 matrix in
        # fixed-point units: (s/nr) * log(nr/s), and log(nr/s) is the
        # integral of 1/t from s to nr
        r_s = fp.from_number(r)
        nr = n * r_s
        s = fp.from_number(rng.uniform(1e-3, 2 * n * r))
        (closed,) = information_sum(*ragged(np.array([[s]], dtype=np.int64)), np.array([float(nr)]))
        integral = (s / nr) * simpson(lambda t: 1 / t, s, nr, 10_000)
        rel = abs(integral - closed) / max(abs(closed), 1e-12)
        worst = max(worst, rel)
    ok = worst <= 1e-6
    report("quadrature-check", ok, f"100 cases, max rel err = {worst:.3g} (tol 1e-6)")
    assert ok


def test_engine_matches_oracle(report):
    rng = random.Random(505)
    mismatches = 0
    for _ in range(200):
        g = random_allocation(rng, max_n=12)
        if engine_members(gea(g)) != naive_gea_members(g):
            mismatches += 1
    ok = mismatches == 0
    report("engine-vs-oracle", ok, f"200 random allocations, {mismatches} merge-sequence mismatches")
    assert ok


def test_categorization_conservation(report):
    rng = random.Random(606)
    worst = 0.0
    for _ in range(50):
        d = rng.randint(1, 25)
        m = rng.randint(0, 6)
        gamma = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 5.5])
        ncols = rng.randint(1, 4)
        ds = NumericDataset(
            tuple(f"c{i}" for i in range(ncols)),
            tuple(
                tuple(round(rng.uniform(-4, 4), 3) for _ in range(ncols))
                for _ in range(rng.randint(1, 10))
            ),
        )
        g = categorize(ds, CategorizationParams(d=d, m=m, gamma=gamma, r=1))
        per_dim = 1.0 + 2 * sum(
            fp.from_number((1 - mu / (m + 1)) ** gamma) / fp.SCALE
            for mu in range(1, m + 1)
        )
        for e in range(ds.n):
            total = sum(b.entries.get(e, 0) / fp.SCALE for b in g.blocks)
            worst = max(worst, abs(total / ncols - per_dim))
    ok = worst <= 1e-9
    report(
        "categorization-conservation",
        ok,
        f"50 random (d, m, gamma) datasets, max per-dimension gap = {worst:.3g} (tol 1e-9)",
    )
    assert ok


def test_determinism_byte_identical(report, tmp_path):
    outs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "gea", "cluster", "--input", IRIS,
                "--mode", "numeric", "--d", "10", "--m", "5", "--gamma", "3",
                "--r", "1", "--label-col", "species", "--output", str(target),
            ],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(target.read_bytes())
    identical = outs[0] == outs[1]
    doc = json.loads(outs[0])
    ok = identical and doc["n"] == 150
    report(
        "determinism",
        ok,
        f"two CLI runs, byte-identical={identical}, {len(outs[0])} bytes each",
    )
    assert ok
