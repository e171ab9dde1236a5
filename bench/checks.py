"""Checks on the output of one ``gea`` command line.

:func:`output_errors` returns a list of problems, empty when the output is
right; the benchmark counts a pass with problems as failed instead of
stopping. Heights are compared to within ``HEIGHT_TOL`` rather than byte
for byte, because a change of summation order moves them by a few ulps.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from gea.entropy import subset_entropy

from workloads import DEFAULT_SEED, Input

HEIGHT_TOL = 1e-9  # absolute, on merge heights
ENTROPY_RTOL = 1e-9  # relative, on ``gea entropy``
IRIS_SCORE = "correct=140 total=150"
REFERENCE = Path(__file__).with_name("reference.json")  # taken at DEFAULT_SEED


def output_errors(inp: Input, stdout: str, g, smoke: bool = False) -> list[str]:
    """Everything wrong with ``stdout`` for workload input ``inp``.

    ``g`` is the allocation the command reads, for the height oracle. The
    reference outputs apply to the default seed at full size only.
    """
    ref = None
    if not smoke and (inp.seed == DEFAULT_SEED or inp.name == "iris"):
        ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(inp.name)
    lines = stdout.splitlines()
    if inp.mode == "entropy":
        return _entropy_errors(lines, inp.expected_entropy, ref)
    try:
        doc = json.loads(lines[0])
    except (IndexError, ValueError):
        return ["first line of output is not a JSON dendrogram"]
    errors = dendrogram_errors(doc, inp.n)
    if errors:
        return errors
    errors += height_errors(doc, g)
    if ref is not None:
        errors += reference_errors(doc, ref)
    rest = lines[1:]
    if "--format" in inp.argv and inp.argv[inp.argv.index("--format") + 1] == "both":
        raw = ",".join(repr(m["height"]) for m in doc["merges"]) or "none"
        if rest[:1] != [f"[raw heights: {raw}]"] or not rest[1:2] or not rest[1].endswith(";"):
            errors.append("Newick output missing or its raw heights differ from the JSON")
        rest = rest[2:]
    errors += _cluster_errors(rest, inp)
    return errors


def dendrogram_errors(doc: dict, n: int) -> list[str]:
    """n-1 merges, each node used once and only after it exists, and sizes
    that add up to n."""
    merges = doc.get("merges")
    if doc.get("n") != n or not isinstance(merges, list) or len(merges) != n - 1:
        return [f"expected n={n} and {n - 1} merges"]
    size = {i: 1 for i in range(n)}
    for i, m in enumerate(merges):
        a, b = m.get("left"), m.get("right")
        if a not in size or b not in size or a == b:
            return [f"merge {i} uses node {a} or {b}, which is missing or already merged"]
        expected = size.pop(a) + size.pop(b)
        if m.get("size") != expected:
            return [f"merge {i} has size {m.get('size')}, its children add up to {expected}"]
        size[n + i] = expected
    return []


def merge_members(doc: dict) -> list[list[int]]:
    """The elements under each merge of a valid dendrogram."""
    n = doc["n"]
    members = {i: [i] for i in range(n)}
    out = []
    for i, m in enumerate(doc["merges"]):
        members[n + i] = members.pop(m["left"]) + members.pop(m["right"])
        out.append(members[n + i])
    return out


def height_errors(doc: dict, g) -> list[str]:
    """Each merge height against ``subset_entropy`` of its members."""
    errors = []
    for i, (m, elems) in enumerate(zip(doc["merges"], merge_members(doc))):
        want = subset_entropy(g, elems)
        if not abs(m["height"] - want) <= HEIGHT_TOL:
            errors.append(f"merge {i}: height {m['height']!r}, subset entropy {want!r}")
    return errors[:5]


def reference_errors(doc: dict, ref: dict) -> list[str]:
    """Topology (left, right, size) equal to the recorded one, heights within
    ``HEIGHT_TOL``."""
    got = [[m["left"], m["right"], m["size"]] for m in doc["merges"]]
    if got != ref["topology"]:
        first = next((i for i, (a, b) in enumerate(zip(got, ref["topology"])) if a != b), None)
        return [f"merge topology differs from the reference (first at merge {first})"]
    worst = max((abs(m["height"] - h) for m, h in zip(doc["merges"], ref["heights"])), default=0.0)
    if not worst <= HEIGHT_TOL:
        return [f"heights differ from the reference by up to {worst!r}"]
    return []


def _cluster_errors(lines: list[str], inp: Input) -> list[str]:
    """``--cut k`` lines partition 1..n into k clusters; Iris scores 140."""
    k = int(inp.argv[inp.argv.index("--cut") + 1])
    seen = []
    for lab in range(k):
        prefix = f"cluster {lab}: "
        if lab >= len(lines) or not lines[lab].startswith(prefix):
            return [f"missing line for cluster {lab}"]
        try:
            seen += [int(e) for e in lines[lab][len(prefix):].split()]
        except ValueError:
            return [f"cluster {lab} lists something other than element ids"]
    if sorted(seen) != list(range(1, inp.n + 1)):
        return ["cluster lines do not partition the elements"]
    tail = lines[k:]
    if inp.name == "iris" and tail != [IRIS_SCORE]:
        return [f"expected {IRIS_SCORE!r}, got {tail!r}"]
    if inp.name != "iris" and tail:
        return [f"unexpected output lines {tail[:2]!r}"]
    return []


def _entropy_errors(lines: list[str], expected: float, ref: dict | None) -> list[str]:
    try:
        (value,) = (float(x) for x in lines)
    except ValueError:
        return [f"expected one number, got {lines[:2]!r}"]
    wants = [expected] + ([ref["entropy"]] if ref else [])
    errors = []
    for want in wants:
        if not math.isclose(value, want, rel_tol=ENTROPY_RTOL, abs_tol=0.0):
            errors.append(f"entropy {value!r}, expected {want!r}")
    return errors
