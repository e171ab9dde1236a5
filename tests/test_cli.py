"""Command-line surface: parsing, pipeline orchestration, exit codes."""
import io
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gea import fixedpoint as fp
from gea.agglomeration import DENDROGRAM_JSON_SCHEMA, gea, to_json
from gea.allocation import (
    FeatureAllocation, format_allocation_text, parse_allocation_text, parse_block_sizes,
)
from gea.categorize import CategorizationParams, NumericDataset, categorize
from gea.entropy import generalized_entropy
from gea.cli import main, parse_allocation, parse_csv

from helpers import weighted_lines

IRIS = str(resources.files("gea") / "data" / "iris.csv")

ALLOC_TEXT = """\
n=7 r=2.0
1:1.0 3:2.0 6:0.5
2:2.1
4:0.5 5:0.3
5:0.2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def cli(*args):
    """Run the installed console entry point in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "gea", *args], capture_output=True, text=True, encoding="utf-8"
    )


# --- parse_csv -------------------------------------------------------------------


def test_parse_csv_iris_fixture():
    ds = parse_csv(IRIS, label_col="species")
    assert ds.n == 150
    assert len(ds.dims) == 4
    assert ds.labels[0] == "Iris-setosa" and ds.labels[-1] == "Iris-virginica"
    assert ds.values[0] == (5.1, 3.5, 1.4, 0.2)


def test_parse_csv_without_label_column_rejects_text_cells():
    # with no label column declared, every column must be numeric
    with pytest.raises(ValueError, match="column 'species'"):
        parse_csv(IRIS)


def test_parse_csv_single_row(tmp_path):
    path = write(tmp_path, "one.csv", "x,y\n1.5,2.5\n")
    ds = parse_csv(path)
    assert ds.n == 1 and ds.values == ((1.5, 2.5),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x,y\n1.0,oops\n", "row 2, column 'y'"),
        ("x,x\n1.0,2.0\n", "duplicate header"),
        ("", "empty file"),
        ("x,y\n1.0\n", "expected 2 cells"),
        ("x,y\n1.0,inf\n", "non-finite"),
        ("x,y\n1.0,1_0\n", "cannot parse '1_0' as a number"),
        ("x,y\n", "no data rows"),
        ("a,b\n\n1,2\n3,x\n", "row 4, column 'b'"),  # rows are file lines
        ("a,b\n1,2\n1," + "1" * 200_000 + "\n", "row 3: field larger than field limit"),
    ],
    ids=lambda v: v if len(v) < 100 else "over-long cell",
)
def test_parse_csv_errors(tmp_path, text, fragment):
    path = write(tmp_path, "bad.csv", text)
    with pytest.raises(ValueError, match=fragment):
        parse_csv(path)


def test_parse_csv_missing_label_column(tmp_path):
    path = write(tmp_path, "d.csv", "x,y\n1.0,2.0\n")
    with pytest.raises(ValueError, match="no column named 'label'"):
        parse_csv(path, label_col="label")


def test_csv_of_only_the_label_column_exits_1(tmp_path, capsys):
    path = write(tmp_path, "labels.csv", "label\nx\ny\n")
    argv = ["cluster", "--input", path, "--mode", "numeric", "--label-col", "label",
            "--d", "2", "--m", "1", "--gamma", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: no numeric columns\n"
    assert captured.out == ""


def test_parse_csv_skips_byte_order_mark(tmp_path):
    path = write(tmp_path, "bom.csv", "\ufeffspecies,x\na,1.0\nb,2.0\n")
    ds = parse_csv(path, label_col="species")
    assert ds.dims == ("x",) and ds.labels == ("a", "b")


def test_parse_csv_missing_file():
    with pytest.raises(ValueError, match="cannot read"):
        parse_csv("/nonexistent/never.csv")


# --- parse_allocation ---------------------------------------------------------------


def test_parse_allocation_reads_header(tmp_path):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    g = parse_allocation(path)
    assert g.n == 7 and g.r_scaled == 2 * fp.SCALE and len(g.blocks) == 4


def test_parse_allocation_skips_byte_order_mark(tmp_path):
    path = write(tmp_path, "bom.txt", "\ufeff" + ALLOC_TEXT)
    assert parse_allocation(path) == parse_allocation(write(tmp_path, "a.txt", ALLOC_TEXT))


def test_parse_allocation_r_override_warns(tmp_path, capsys):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    g = parse_allocation(path, r_override="1.5")
    assert g.r_scaled == 1_500_000
    assert g == FeatureAllocation(7, g.indptr, g.elems, g.weights, 1_500_000)
    assert g.sizes.tolist() == parse_allocation(path).sizes.tolist()
    assert "overrides header" in capsys.readouterr().err
    # same value: no warning
    parse_allocation(path, r_override="2.0")
    assert "overrides" not in capsys.readouterr().err


def test_parse_allocation_rejects_bad_override(tmp_path):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    with pytest.raises(ValueError):
        parse_allocation(path, r_override="zero")
    with pytest.raises(ValueError):
        parse_allocation(path, r_override="0.0")


@pytest.mark.parametrize("command", [["cluster", "--mode", "allocation"], ["entropy"]])
def test_r_override_beyond_int64_is_an_error_without_a_warning(tmp_path, capsys, command):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    assert main([*command, "--input", path, "--r", "9223372036854.775808"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: recurrence base must be positive and at most 9223372036854.775807\n"
    )
    assert captured.out == ""


def test_parse_allocation_propagates_line_errors(tmp_path):
    path = write(tmp_path, "a.txt", "n=3 r=1.0\n9\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_allocation(path)


# --- run / main ------------------------------------------------------------------------


def test_cluster_allocation_mode_emits_schema_valid_json(tmp_path):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    out = cli("cluster", "--input", path, "--mode", "allocation")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    jsonschema.validate(doc, DENDROGRAM_JSON_SCHEMA)
    assert doc["n"] == 7 and doc["r"] == "2.0"
    assert "n=7 blocks=4 r=2.0" in out.stderr


def test_cli_builds_no_per_block_views(tmp_path, monkeypatch, capsys):
    # both modes and gea entropy read the arrays only; the stderr summary
    # counts blocks from indptr
    def refuse(self):
        raise AssertionError("a per-block view was built")

    monkeypatch.setattr(FeatureAllocation, "blocks", property(refuse))
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    for argv, summary in [
        (["cluster", "--input", path, "--mode", "allocation", "--r", "1.5"], "n=7 blocks=4 r=1.5"),
        (["cluster", "--input", IRIS, "--mode", "numeric", "--d", "10", "--m", "5",
          "--gamma", "3", "--label-col", "species", "--cut", "3"], "n=150 blocks=89 r=1.0"),
        (["entropy", "--input", path, "--r", "1.5"], None),
    ]:
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert summary is None or summary in err


def test_cluster_numeric_mode_scores_iris():
    out = cli(
        "cluster", "--input", IRIS, "--mode", "numeric", "--d", "10", "--m", "5",
        "--gamma", "3", "--r", "1", "--label-col", "species", "--cut", "3",
    )
    assert out.returncode == 0
    assert "correct=140 total=150" in out.stdout
    assert "cluster 0:" in out.stdout
    assert "accuracy=140/150" in out.stderr


def test_cluster_numeric_requires_grid_params(tmp_path):
    path = write(tmp_path, "t.csv", "x\n1.0\n2.0\n")
    out = cli("cluster", "--input", path, "--mode", "numeric")
    assert out.returncode == 1
    assert "requires --d, --m and --gamma" in out.stderr


def test_newick_and_both_formats(tmp_path):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    out = cli("cluster", "--input", path, "--mode", "allocation", "--format", "newick")
    assert out.returncode == 0
    assert out.stdout.startswith("[raw heights: ")
    assert out.stdout.rstrip().endswith(";")

    target = tmp_path / "tree"
    out = cli(
        "cluster", "--input", path, "--mode", "allocation", "--format", "both",
        "--output", str(target),
    )
    assert out.returncode == 0
    dend = json.loads((tmp_path / "tree.json").read_text(encoding="utf-8"))
    jsonschema.validate(dend, DENDROGRAM_JSON_SCHEMA)
    assert (tmp_path / "tree.nwk").read_text(encoding="utf-8").startswith("[raw heights: ")


def test_entropy_subcommand(tmp_path):
    path = write(tmp_path, "a.txt", "n=2 r=1.0\n1 2\n")
    out = cli("entropy", "--input", path)
    assert out.returncode == 0
    assert math.isclose(float(out.stdout), 0.0, abs_tol=1e-12)

    heavy = write(tmp_path, "h.txt", "n=1 r=1.0\n1:2.0\n")
    out = cli("entropy", "--input", heavy)
    assert math.isclose(float(out.stdout), -1.3862943611198906, rel_tol=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ("cluster", "--input", "x.csv"),  # missing --mode
        ("cluster", "--input", "x.csv", "--mode", "sideways"),
        ("nonsense",),
        (),
    ],
)
def test_usage_errors_exit_1(args):
    out = cli(*args)
    assert out.returncode == 1
    assert "error" in out.stderr.lower()


def test_cut_zero_is_usage_error(tmp_path):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    out = cli("cluster", "--input", path, "--mode", "allocation", "--cut", "0")
    assert out.returncode == 1
    assert "--cut must be in 1..7" in out.stderr


def test_missing_input_exits_1():
    out = cli("cluster", "--input", "/no/such/file", "--mode", "allocation")
    assert out.returncode == 1
    assert "cannot read" in out.stderr


def test_internal_failures_exit_2(tmp_path, monkeypatch, capsys):
    def boom(_):
        raise RuntimeError("injected")

    path = write(tmp_path, "a.txt", "n=2 r=1.0\n1 2\n")
    monkeypatch.setattr("gea.cli.gea", boom)
    monkeypatch.setattr("gea.cli.generalized_entropy", boom)
    for argv in (["cluster", "--input", path, "--mode", "allocation"], ["entropy", "--input", path]):
        assert main(argv) == 2
        assert "internal error: RuntimeError('injected')" in capsys.readouterr().err


def test_n_too_large_for_the_score_matrices_exits_1(tmp_path, monkeypatch, capsys):
    # heights' 8e14 bytes pass the 47-bit address space a process maps by default:
    # the request fails at once and nothing is allocated
    argv = ["cluster", "--mode", "allocation", "--input"]
    path = write(tmp_path, "big.txt", "n=10000000 r=1.0\n1 2\n")
    assert main([*argv, path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n=10000000 is too large: the score matrices need 900000000000000 bytes\n"
    assert captured.out == ""
    real = np.full

    def full(shape, *args, **kwargs):
        if shape == (3, 3):
            raise MemoryError
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", full)
    assert main([*argv, write(tmp_path, "a.txt", "n=3 r=1.0\n1 2\n")]) == 1
    assert capsys.readouterr().err == "error: n=3 is too large: the score matrices need 81 bytes\n"


@pytest.mark.parametrize("n, need", [
    ("100000000000", "90000000000000000000000"),
    ("123456789012345678", "137174208779149528751714697887517156"),
])
def test_n_past_numpy_largest_array_exits_1(tmp_path, capsys, n, need):
    # numpy refuses an array this large with a ValueError, not a MemoryError
    path = write(tmp_path, "huge.txt", f"n={n} r=1.0\n1 2\n")
    assert main(["cluster", "--mode", "allocation", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: n={n} is too large: the score matrices need {need} bytes\n"
    assert captured.out == ""


def test_m_too_large_for_the_categories_exits_1(tmp_path, capsys):
    # about 2*10**15 offsets a value, 114 PiB of ranks and weights for 2 rows of
    # 2 values: the request fails at once, before the offsets' weights are evaluated
    path = write(tmp_path, "a.csv", "a,b\n0.1,0.2\n0.3,0.5\n")
    argv = ["cluster", "--input", path, "--mode", "numeric", "--d", "10", "--gamma", "1"]
    assert main([*argv, "--m", str(10**15)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: m=1000000000000000 is too large: the categories need 127999936000000064 bytes\n"
    )
    assert captured.out == ""


def test_run_returns_0_quietly(tmp_path, capsys):
    path = write(tmp_path, "a.txt", "n=2 r=1.0\n1 2\n")
    code = main(["cluster", "--input", path, "--mode", "allocation"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["n"] == 2
    assert "error" not in captured.err


# one block whose size overflows int64 fixed-point units, with that exact
# size: summed over two entries (the merge engine once wrapped it to height
# 0.0), in one weight, over five weights of 2**62 units (an int64 sum wraps
# to 2**62, a valid size), over one element repeated five times (its folded
# weight wraps too), and in one weight beyond int64 itself
QUARTER = "4611686018427.387904"  # 2**62 units
FIVE_QUARTERS = "23058430092136.93952"  # 5 * 2**62 units
OVERFLOW_INPUTS = [
    ("n=2 r=1.0\n1:9223372036854 2:9223372036854\n", "18446744073708.0"),
    ("n=2 r=1.0\n1:9999999999999 2\n", "10000000000000.0"),
    ("n=5 r=1.0\n" + " ".join(f"{k}:{QUARTER}" for k in range(1, 6)) + "\n", FIVE_QUARTERS),
    ("n=5 r=1.0\n" + " ".join([f"3:{QUARTER}"] * 5) + "\n", FIVE_QUARTERS),
    ("n=2 r=1.0\n1:99999999999999999999999\n", "99999999999999999999999.0"),
]


@pytest.mark.parametrize(
    "text,size",
    OVERFLOW_INPUTS,
    ids=["summed", "one-weight", "summed-wraps", "folded-wraps", "beyond-int64"],
)
@pytest.mark.parametrize(
    "command", [("cluster", "--mode", "allocation"), ("entropy",)], ids=["cluster", "entropy"]
)
def test_block_size_overflow_exits_1(tmp_path, capsys, text, size, command):
    path = write(tmp_path, "big.txt", text)
    assert main([*command, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {path}: block 0: size {size} exceeds the largest supported block size "
        "9223372036854.775807\n"
    )
    assert captured.out == ""


LONG = "9" * 5000  # past the 4300 digits int() and str() accept


@pytest.mark.parametrize(
    "text, where",
    [
        (f"n=3 r=1.0\n{LONG}:1\n", f"line 2: element {'9' * 80}... outside 1..3"),
        (f"# c\nn={LONG} r=1.0\n1\n",
         f"line 2: element count must be an int in [0, 2**63), got {'9' * 80}..."),
        (f"n=3 r=1.0\n\n1:{LONG}\n",
         f"line 3: malformed token '1:{'9' * 78}...': {'9' * 80}... has more than 4000 digits"),
        (f"n=3 r={LONG}\n1\n", f"line 1: bad recurrence base: {'9' * 80}... has more than"),
        (f"n=3 r=1.0\n1:0.{'0' * 5000}1\n", "line 2: malformed token '1:0.0000"),
        (f"n=3 r=1.0\n1:{'x' * 5000}\n", f"line 2: malformed token '1:{'x' * 78}...': "
         f"not a decimal literal: '{'x' * 80}...'"),
    ],
    ids=["element", "n", "weight", "r", "rounds-to-0", "junk"],
)
@pytest.mark.parametrize(
    "command", [("cluster", "--mode", "allocation"), ("entropy",)], ids=["cluster", "entropy"]
)
def test_over_long_fields_name_file_and_line(tmp_path, capsys, text, where, command):
    # every message names the line, and quotes at most 80 characters of a field
    path = write(tmp_path, "long.txt", text)
    assert main([*command, "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {where}")
    assert len(captured.err) < len(path) + 400
    assert captured.out == ""


@pytest.mark.parametrize("r", ["1e3", "1/3", "0.0", "9223372036855"])
def test_r_option_is_a_positive_decimal_in_every_mode(tmp_path, capsys, r):
    # numeric mode reads --r like the allocation header does: no exponent,
    # no fraction, and within the int64 fixed-point range
    alloc = write(tmp_path, "a.txt", ALLOC_TEXT)
    csv_path = write(tmp_path, "t.csv", "x\n1.0\n2.0\n")
    numeric = ["cluster", "--input", csv_path, "--mode", "numeric", "--d", "2", "--m", "1",
               "--gamma", "1"]
    for argv in (numeric, ["cluster", "--input", alloc, "--mode", "allocation"],
                 ["entropy", "--input", alloc]):
        assert main([*argv, "--r", r]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
    assert main([*numeric, "--r", "2.5"]) == 0


@pytest.mark.parametrize(
    "text, r, where",
    [
        ("n=2 r=0.0000004\n1 2\n", None, "line 1: bad recurrence base: 0.0000004"),
        ("n=2 r=1.0\n1:0.0000004 2\n", None, "line 2: malformed token '1:0.0000004': 0.0000004"),
        ("n=2 r=1.0\n1 2\n", "0.0000004", "bad --r value: 0.0000004"),
    ],
    ids=["header", "weight", "option"],
)
def test_value_rounding_to_zero_says_so(tmp_path, capsys, text, r, where):
    # 4e-7 is positive but 0 at the 1e-6 fixed-point resolution
    path = write(tmp_path, "a.txt", text)
    for command in (["cluster", "--mode", "allocation"], ["entropy"]):
        argv = [*command, "--input", path] + (["--r", r] if r else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"{where} rounds to 0 at the 1e-6 resolution" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("text, d", [("a,b\n1e308,1\n2,3\n", "10"),
                                     ("x\n1.0\n2.0\n", str(10**400))],
                         ids=["value-times-d", "huge-d"])
def test_grid_overflow_exits_1(tmp_path, capsys, text, d):
    # a value times d beyond float range, or d beyond int64, is bad input
    path = write(tmp_path, "t.csv", text)
    argv = ["cluster", "--input", path, "--mode", "numeric", "--d", d, "--m", "1", "--gamma", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "internal error" not in captured.err
    assert captured.out == ""


def test_scale_handles_spans_beyond_float_range(tmp_path, capsys):
    # hi - lo overflows to inf here; both values are finite and scale to 0 and 1
    path = write(tmp_path, "t.csv", "a,b\n-1e308,1\n1e308,3\n")
    argv = ["cluster", "--input", path, "--mode", "numeric", "--d", "10", "--m", "1",
            "--gamma", "1", "--scale"]
    assert main(argv) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["n"] == 2


@pytest.mark.parametrize(
    "data, argv",
    [
        (b"n=2 r=1.0\n1 \xff\n", ["entropy"]),
        (b"n=2 r=1.0\r\n1 \xff\r\n", ["cluster", "--mode", "allocation"]),
        (b"\xef\xbb\xbfa,b\r\xff,1\r", ["cluster", "--mode", "numeric", "--d", "2", "--m", "1",
                                      "--gamma", "1"]),
    ],
    ids=["entropy", "allocation", "numeric"],
)
def test_invalid_utf8_names_file_and_line(tmp_path, capsys, data, argv):
    # lines end in \n, \r\n or \r and count from the start of the file,
    # byte-order mark included
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert main([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: line 2: not valid UTF-8 (byte 0xff)\n"
    assert captured.out == ""


NUMERIC = ["cluster", "--mode", "numeric", "--d", "2", "--m", "1", "--gamma", "1"]


@pytest.mark.parametrize(
    "layout, stand_in, argv, line",
    [
        (b"n=2 r=1.0\n1:1\x0c2:1\n%s\n", b"3:1", ["entropy"], 4),
        (b"n=2 r=1.0\xe2\x80\xa81\x1c\r\n2 %s\x85", b"3", ["cluster", "--mode", "allocation"], 4),
        (b"\xef\xbb\xbfn=2 r=1.0\r\n1 2\n\n%s\n", b"3", ["entropy"], 4),
        (b"a\n1\x0c\n%s\n", b"x", NUMERIC, 3),
        (b"a\r\n1\xe2\x80\xa8\r%s\n", b"x", NUMERIC, 3),
    ],
    ids=["entropy", "allocation", "entropy-bom", "numeric", "numeric-u2028"],
)
def test_invalid_utf8_line_is_the_line_a_parse_error_names(tmp_path, capsys, layout, stand_in,
                                                           argv, line):
    # allocation mode counts lines at every break str.splitlines knows, as
    # its parser does; numeric mode at \n, \r and \r\n only, as csv does.
    # Every allocation file, a byte-order mark skipped, goes to the parser
    # as bytes, so the parser counts the lines of the bad byte as well
    path = tmp_path / "in.txt"
    for filler in (stand_in, b"\xff"):
        path.write_bytes(layout % filler)
        assert main([*argv, "--input", str(path)]) == 1
        named = re.match(rf"error: {re.escape(str(path))}: (line|row) (\d+)", capsys.readouterr().err)
        assert int(named.group(2)) == line, filler


def entropy_pass_peak(path):
    """The traced peak memory of one `gea entropy` pass over ``path``."""
    with redirect_stdout(io.StringIO()):
        assert main(["entropy", "--input", path]) == 0  # warm-up: lazy imports
        tracemalloc.start()
        try:
            assert main(["entropy", "--input", path]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_entropy_pass_peak_memory_per_token(tmp_path):
    # gea entropy reads block sizes only. The ASCII file goes to the parser
    # as bytes, never decoded, and the walk sums each piece's weights per
    # block as the piece comes, so the walk sets the peak: the file's bytes
    # (9.3 bytes a token in this file), one piece's temporaries, about 6,
    # and the per-block sums so far, 16 bytes a block (2.3 a token); 19.1
    # in all. After the walk the bytes go, and joining the sums holds 32
    # bytes a block. 22 leaves room for fixed costs, not for a decoded copy
    # beside the bytes (9.3 more) or a weight array kept to the end of the
    # walk (8 more): the pass that held both took 24.8 bytes a token, and
    # the pass that folded the tokens into CSR arrays 33.4. The fold's own
    # peak is bounded by test_parse_peak_memory_stays_within_the_reference.
    text = "\n".join(["n=5000 r=1.0", *weighted_lines(random.Random(11), 14_300, n=5000)]) + "\n"
    tokens = len(text.split()) - 2
    assert tokens == 100_715
    path = write(tmp_path, "a.txt", text)
    del text
    peak = entropy_pass_peak(path)
    assert peak <= 22 * tokens, peak / tokens


def test_entropy_pass_peak_memory_on_one_byte_tokens(tmp_path):
    # the walk's worst case: one line of one-byte tokens, 2 bytes a token,
    # puts 16,384 tokens in each 32 KiB window. The peak is the file's bytes
    # plus one piece's temporaries, 2.7 MiB: 4.8 bytes a token at 10**6
    # tokens. 6 leaves 1.2 bytes a token (1.1 MiB) for fixed costs; a window
    # twice as wide took 7.6, and one piece of the whole line 138
    tokens = 10**6
    path = tmp_path / "a.txt"
    path.write_bytes(b"n=1 r=1.0\n" + b"1 " * tokens + b"\n")
    peak = entropy_pass_peak(str(path))
    assert peak <= 6 * tokens, peak / tokens


# --- exit codes on arbitrary allocation text ---------------------------------------

WEIGHTS = st.sampled_from([
    "1", "0.5", "2.000001", "0", "-1", "1e3", "abc", "",
    "4611686018427", "9223372036854", "9223372036854.775807", "9223372036854.775808",
    "9223372036855", "9999999999999", "99999999999999999999",
])
ELEMENTS = st.integers(1, 3) | st.integers(0, 9)
TOKENS = st.one_of(  # bare elements listed twice so more lines parse
    ELEMENTS.map(str),
    ELEMENTS.map(str),
    st.tuples(ELEMENTS, WEIGHTS).map(lambda t: f"{t[0]}:{t[1]}"),
    st.text(max_size=4),
)
LINES = st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=4)
R_VALUES = st.sampled_from(
    ["1.0", "0.5", "2", "3.25", "9223372036854.775807", "0", "1e3", "1" * 40]
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(["cluster", "entropy"]),
    r=R_VALUES,
    override=st.none() | R_VALUES,
    lines=LINES,
)
def test_allocation_text_exits_only_0_or_1(tmp_path_factory, data, command, r, override, lines):
    # a header n <= 8 keeps the O(n^2) engine tiny; entropy takes any n
    small = st.integers(0, 8)
    n = data.draw(small if command == "cluster" else small | st.integers(0, 2**64))
    path = tmp_path_factory.mktemp("fuzz") / "a.txt"
    path.write_text("\n".join([f"n={n} r={r}", *lines]) + "\n", encoding="utf-8")
    argv = [command, "--input", str(path)]
    if command == "cluster":
        argv += ["--mode", "allocation"]
    if override is not None:
        argv += ["--r", override]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue()


# --- gea entropy reads the block sizes that the allocation holds ---------------------

# repeats, comments, bare elements, elements far outside 1..n (or inside it
# for a header n near 2**64) and weights beyond int64, beside LINES
MORE_LINES = st.sampled_from([
    "1 1 1:2.5 1", "2:0.5 3 2:0.5 3 2", "# a comment", "  #1:2 x", "3", "",
    "1:99999999999999999999 2:9223372036854.775807",
    "9223372036854775807 18446744073709551615", "18446744073709551616:1",
])
ENTROPY_LINES = st.tuples(LINES, st.lists(MORE_LINES, max_size=3)).flatmap(
    lambda t: st.permutations(t[0] + t[1])
)


def entropy_through_the_allocation(path, override):
    """The exit code, stdout and stderr of gea entropy as it was computed
    from the whole allocation: generalized_entropy of parse_allocation_text
    on the decoded text's UTF-8, a byte-order mark skipped, rebuilt with the --r
    value when it differs, with the CLI's messages."""
    out, err = io.StringIO(), io.StringIO()
    try:
        try:
            text = path.read_bytes().decode("utf-8-sig")
        except UnicodeDecodeError as exc:  # the line of the first bad byte
            line = len((exc.object[: exc.start].decode("utf-8") + "?").splitlines())
            bad = exc.object[exc.start]
            raise ValueError(f"{path}: line {line}: not valid UTF-8 (byte 0x{bad:02x})") from None
        try:
            g = parse_allocation_text(text.encode())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if override is not None:
            try:
                r_s = fp.from_decimal(override)
            except ValueError as exc:
                raise ValueError(f"bad --r value: {exc}") from None
            if r_s <= 0:
                raise ValueError("--r must be positive")
            if r_s != g.r_scaled:
                header_r = g.r_scaled
                g = FeatureAllocation(g.n, g.indptr, g.elems, g.weights, r_s)
                print(f"warning: --r {fp.format_decimal(r_s)} overrides header "
                      f"r={fp.format_decimal(header_r)}", file=err)
        print(generalized_entropy(g), file=out)
        return 0, out.getvalue(), err.getvalue()
    except ValueError as exc:
        return 1, out.getvalue(), f"{err.getvalue()}error: {exc}\n"


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 8) | st.integers(0, 2**64),
    r=R_VALUES,
    override=st.none() | R_VALUES,
    lines=ENTROPY_LINES,
)
def test_entropy_matches_the_allocation_route(tmp_path_factory, n, r, override, lines):
    # the same exit code, output, warning and error message, line and all
    path = tmp_path_factory.mktemp("entropy") / "a.txt"
    path.write_text("\n".join([f"n={n} r={r}", *lines]) + "\n", encoding="utf-8")
    argv = ["entropy", "--input", str(path)] + ([] if override is None else ["--r", override])
    assert run_main(argv) == entropy_through_the_allocation(path, override)


@pytest.mark.parametrize(
    "data",
    [
        b"\xef\xbb\xbfn=3 r=1.0\n1:2 2\n# 1:x\n3 1\n",
        b"n=3 r=1.0\r\n1:2 2\r\n\r\n3:0.5 1\r\n",
        b"\xef\xbb\xbfn=3 r=1.0\r\n1:2 4\r\n",  # a parse error after a BOM
        "n=3 r=1.0\n1:2\u30002 3\n3\n".encode(),
        "\ufeffn=3 r=1.0\u2028 1\u30002:0.5\r\n".encode(),
        b"\xef\xbb\xbfn=3 r=1.0\n1 2\n\xff 3\n",  # bad UTF-8 after a BOM
    ],
    ids=["bom", "crlf", "bom-error", "u3000", "bom-u2028", "bom-bad-utf8"],
)
@pytest.mark.parametrize("override", [None, "0.5"])
def test_entropy_reads_bytes_and_text_alike(tmp_path, data, override):
    # every file goes to the parser as its bytes, a BOM skipped, non-ASCII
    # and bad UTF-8 ones too; each gives what the decoded text gives
    path = tmp_path / "a.txt"
    path.write_bytes(data)
    argv = ["entropy", "--input", str(path)] + ([] if override is None else ["--r", override])
    with mock.patch("gea.cli.parse_block_sizes", wraps=parse_block_sizes) as spy:
        assert run_main(argv) == entropy_through_the_allocation(path, override)
    assert [c.args[0] for c in spy.call_args_list] == [data.removeprefix(b"\xef\xbb\xbf")]


def test_entropy_of_a_large_file_is_bit_identical_on_both_routes(tmp_path):
    # bare elements and repeats beside weighted tokens, over many pieces
    rng = random.Random(20)
    lines = [
        " ".join([line, *(str(rng.randint(1, 40)) for _ in range(rng.randint(0, 3)))])
        for line in weighted_lines(rng, 20_000, n=40)
    ]
    path = write(tmp_path, "big.txt", "\n".join(["n=40 r=1.5", *lines]) + "\n")
    for override in (None, "1.5", "0.75"):
        want = entropy_through_the_allocation(tmp_path / "big.txt", override)
        assert want[0] == 0 and ("warning" in want[2]) == (override == "0.75")
        argv = ["entropy", "--input", path] + ([] if override is None else ["--r", override])
        assert run_main(argv) == want


# --- exit codes on arbitrary numeric CSVs ---------------------------------------


def mostly(good, bad):
    """Draws from ``good`` two times in three, so most examples get far."""
    return st.sampled_from(good) | st.sampled_from(good) | st.sampled_from(bad)


NUMBERS = st.sampled_from([
    "1", "0", "-2.5", "0.125", "7", "1e308", "-1e308", "5e-324", '"3"', " 4 ", "1_0",
    "\u0663", "\uff11.5",
])
JUNK = st.sampled_from(["", "1e400", "nan", "-inf", "abc", "1" * 200_000])


@st.composite
def tables(draw):
    """A CSV of at most 8 rows of numbers under one of a few headers, where
    one cell may be replaced by junk or dropped."""
    header = draw(st.sampled_from(["a", "a,b", "a,b", "label,a,b", "a,a"]))
    width = header.count(",") + 1
    rows = draw(st.lists(st.lists(NUMBERS, min_size=width, max_size=width), max_size=8))
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, width - 1))
        row[j : j + 1] = draw(st.lists(JUNK, max_size=1))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    table=tables(),
    d=mostly(["1", "3", "1000000"], ["0", "-1", "9223372036854775808", "x"]),
    m=mostly(["0", "1", "3"], ["-1"]),
    gamma=mostly(["0", "1", "2.5"], ["-1", "nan", "inf", "1e400"]),
    r=st.none() | mostly(["1.0", "0.5", "2"], ["0", "-1", "1e3"]),
    label=st.none() | st.sampled_from(["label", "a", "missing"]),
    scale=st.booleans(),
    cut=st.none() | st.integers(0, 9),
)
def test_numeric_csv_exits_only_0_or_1(tmp_path_factory, table, d, m, gamma, r, label, scale, cut):
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    path.write_text(table, encoding="utf-8")
    argv = ["cluster", "--input", str(path), "--mode", "numeric",
            "--d", d, "--m", m, "--gamma", gamma]
    for flag, value in (("--r", r), ("--label-col", label), ("--cut", cut)):
        if value is not None:
            argv += [flag, str(value)]
    if scale:
        argv.append("--scale")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    assert "internal error" not in err.getvalue()


def test_seed_env_var_changes_nothing(tmp_path, monkeypatch):
    path = write(tmp_path, "a.txt", ALLOC_TEXT)
    base = cli("cluster", "--input", path, "--mode", "allocation")
    monkeypatch.setenv("GEA_SEED", "12345")
    seeded = subprocess.run(
        [sys.executable, "-m", "gea", "cluster", "--input", path, "--mode", "allocation"],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert seeded.stdout == base.stdout


def test_text_format_round_trip_preserves_dendrogram(tmp_path):
    ds = parse_csv(IRIS, label_col="species")
    # a slice keeps the test quick
    small = NumericDataset(ds.dims, ds.values[::10], None)
    g = categorize(small, CategorizationParams(d=10, m=5, gamma=3, r=1))
    path = write(tmp_path, "round.txt", format_allocation_text(g))
    reparsed = parse_allocation(path)
    assert reparsed == g
    assert to_json(gea(reparsed)) == to_json(gea(g))
