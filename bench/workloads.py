"""The benchmark's workloads and their seeded input generators.

Each workload is a ``gea`` command line plus the input file it reads. The
generators write plain CSV or allocation text, which is all the program
receives; the same seed always gives byte-identical files. Python's
``random.Random`` with an integer seed is stable across Python versions.

Why each workload (see README.md for the metrics each should move):

* ``iris``: the README command on the bundled file, the paper's
  reproduction. Fixed costs (import, CSV parse, categorize, CLI glue) are
  their largest share here. The file is fixed, so the seed is unused.
* ``grid-n400``: synthetic 4-column data like Iris at n=400. The O(n^3)
  merge loop is the whole cost, and there are few blocks, so this is where
  a merge-engine change shows.
* ``sparse-alloc``: 25 blocks per element, so the cost of one entropy
  evaluation is set by the block count; a mass-layout or parser change
  shows here.
* ``entropy-big``: ``gea entropy`` on a large allocation. The only
  workload that bypasses the merge engine: it isolates the allocation
  parser and ``generalized_entropy``, and an engine change should not move
  it.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

SCALE = 10**6  # fixed-point unit of the allocation format (1e-6)
DEFAULT_SEED = 1  # the seed reference.json was recorded at

IRIS_ARGS = ["--mode", "numeric", "--d", "10", "--m", "5", "--gamma", "3", "--r", "1"]


@dataclass(frozen=True)
class Size:
    """Input size of one workload: elements, blocks, block width range."""

    n: int
    blocks: int = 0
    width: tuple[int, int] = (0, 0)


# Full sizes; smoke mode shrinks them so that all four run in seconds.
SIZES = {
    "iris": Size(150),
    "grid-n400": Size(400),
    "sparse-alloc": Size(200, 5000, (2, 6)),
    "entropy-big": Size(10000, 20000, (2, 12)),
}
SMOKE_SIZES = {
    "iris": Size(150),
    "grid-n400": Size(30),
    "sparse-alloc": Size(20, 200, (2, 6)),
    "entropy-big": Size(200, 400, (2, 12)),
}
NAMES = tuple(SIZES)


@dataclass(frozen=True)
class Input:
    """A generated workload input and what the benchmark knows about it."""

    name: str
    seed: int
    argv: list[str]
    path: Path
    mode: str  # "numeric" | "allocation" | "entropy"
    n: int
    expected_entropy: float | None = None  # entropy-big only


def make_input(name: str, seed: int, workdir: Path, root: Path, smoke: bool = False) -> Input:
    """Write the input of workload ``name`` for ``seed`` under ``workdir``."""
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    rng = random.Random(seed)
    if name == "iris":
        path = root / "src" / "gea" / "data" / "iris.csv"
        argv = ["cluster", "--input", str(path), *IRIS_ARGS, "--label-col", "species", "--cut", "3"]
        return Input(name, seed, argv, path, "numeric", size.n)
    if name == "grid-n400":
        path = workdir / f"{name}-{seed}.csv"
        _write_grid_csv(path, size.n, rng)
        argv = ["cluster", "--input", str(path), *IRIS_ARGS, "--cut", "3"]
        return Input(name, seed, argv, path, "numeric", size.n)
    path = workdir / f"{name}-{seed}.txt"
    sizes = _write_allocation(path, size, rng)
    if name == "sparse-alloc":
        argv = ["cluster", "--input", str(path), "--mode", "allocation",
                "--format", "both", "--cut", "3"]
        return Input(name, seed, argv, path, "allocation", size.n)
    if name == "entropy-big":
        nr = size.n * SCALE  # r = 1.0
        expected = math.fsum((s / nr) * math.log(nr / s) for s in sizes)
        return Input(name, seed, ["entropy", "--input", str(path)], path, "entropy",
                     size.n, expected)
    raise ValueError(f"unknown workload {name!r}")


def _write_grid_csv(path: Path, n: int, rng: random.Random) -> None:
    """n rows of 4 values uniform on [0, 8) at one decimal, like Iris."""
    lines = ["a,b,c,d"]
    for _ in range(n):
        lines.append(",".join(f"{rng.randrange(80) / 10:.1f}" for _ in range(4)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_allocation(path: Path, size: Size, rng: random.Random) -> list[int]:
    """Blocks of distinct random elements with weights in {0.25, 0.5, ..., 5};
    returns each block's size in fixed-point units."""
    lines = [f"n={size.n} r=1.0"]
    sizes = []
    lo, hi = size.width
    for _ in range(size.blocks):
        elems = rng.sample(range(1, size.n + 1), rng.randint(lo, hi))
        quarters = [rng.randint(1, 20) for _ in elems]
        lines.append(" ".join(f"{e}:{q / 4}" for e, q in zip(elems, quarters)))
        sizes.append(sum(quarters) * SCALE // 4)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return sizes
