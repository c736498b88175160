import dataclasses
import json
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cubepu.bench import ExperimentResult, f1, run_experiment, ExperimentSpec
from cubepu.cli import (
    DEFAULT_KERNEL,
    DEFAULT_SHAPE,
    RESULT_COLUMNS,
    main,
    parse_args,
    parse_point_source,
    parse_shape_range,
    read_points,
    render_results,
    render_sweep,
    render_values,
)
from cubepu.errors import PointFileError, UsageError
from cubepu.halton import HaltonConfig, generate


# ---------------------------------------------------------------- parsing

def test_parse_point_source():
    assert parse_point_source("halton:343") == ("halton", 343)
    assert parse_point_source("grid:5") == ("grid", 5)
    assert parse_point_source("file:data/pts.txt") == ("file", "data/pts.txt")
    for bad in ("halton:0", "halton:abc", "grid:1", "file:", "kdtree:5", "halton"):
        with pytest.raises(UsageError):
            parse_point_source(bad)


def test_parse_shape_range():
    assert parse_shape_range("1:10:19") == (1.0, 10.0, 19)
    assert parse_shape_range("0.5:0.5:1") == (0.5, 0.5, 1)
    for bad in ("1:10", "a:2:3", "0:5:3", "5:2:3", "1:2:0", "1:2:x"):
        with pytest.raises(UsageError):
            parse_shape_range(bad)


def test_parse_args_bench():
    args = parse_args(["bench", "--nodes", "halton:4913", "--subdomains", "512",
                       "--kernel", "g", "--shape", "2.7"])
    assert args.command == "bench" and args.shape == 2.7
    assert args.spec == ExperimentSpec(4913, 512, "g")
    assert not hasattr(args, "shapes")
    assert args.format == "csv" and args.out is None


def test_parse_args_options_flow_through(tmp_path):
    out = str(tmp_path / "r.json")
    args = parse_args(["bench", "--nodes", "halton:800", "--kernel", "m4",
                       "--shape", "3", "--function", "f2", "--eval", "grid:7",
                       "--mmax", "50", "--format", "json", "--out", out])
    # subdomain count defaults to n/8
    assert args.spec == ExperimentSpec(800, 100, "m4", function="f2",
                                       eval_grid_side=7, m_max=50)
    assert args.format == "json" and args.out == out


def test_parse_args_sweep_range():
    args = parse_args(["sweep", "--nodes", "halton:343", "--kernel", "w4",
                       "--range", "0.1:1.9:10", "--centers", "grid"])
    assert args.command == "sweep"
    assert args.spec == ExperimentSpec(343, 43, "w4", center_source="grid")
    assert np.array_equal(args.shapes, np.linspace(0.1, 1.9, 10))
    assert not hasattr(args, "shape")


def test_parse_args_fit_defaults():
    args = parse_args(["fit", "--nodes", "file:pts.txt"])
    assert args.command == "fit" and not hasattr(args, "spec")
    assert args.nodes == "file:pts.txt" and args.eval_src == "grid:11"
    assert (args.kernel, args.shape) == (DEFAULT_KERNEL, DEFAULT_SHAPE)
    assert args.centers == "halton" and args.subdomains is None
    assert args.function is None


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["bench", "--nodes", "halton:100", "--kernel", "g"],          # no shape
    ["bench", "--nodes", "halton:100", "--shape", "2"],           # no kernel
    ["bench", "--nodes", "grid:5", "--kernel", "g", "--shape", "2"],
    ["bench", "--nodes", "halton:100", "--kernel", "g", "--shape", "2",
     "--eval", "halton:7"],
    ["bench", "--nodes", "halton:100", "--kernel", "g", "--shape", "-1"],
    ["bench", "--nodes", "halton:100", "--kernel", "voronoi", "--shape", "2"],
    ["bench", "--nodes", "halton:100", "--kernel", "g", "--shape", "2",
     "--subdomains", "0"],
    ["bench", "--nodes", "halton:100", "--kernel", "g", "--shape", "2",
     "--mmax", "0"],
    ["sweep", "--nodes", "halton:100", "--kernel", "g", "--range", "5:1:3"],
    ["fit", "--nodes", "halton:100", "--shape", "0"],
])
def test_parse_args_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_args(argv)


def _readme_commands():
    """Every `cubepu ...` command line in the README's code blocks, with
    backslash-continued lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("cubepu "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {c[0] for c in commands} == {"fit", "bench", "sweep", "compare-search"}
    for argv in commands:
        parse_args(argv)


# ---------------------------------------------------------------- point files

def test_read_points_with_values(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text(
        "# header comment\n"
        "\n"
        "0.1 0.2 0.3 1.5\n"
        "0.4,0.5,0.6,-2.0\n"
        "  0.7\t0.8 0.9   0.25  \n"
    )
    pts, vals = read_points(str(p))
    assert pts.tolist() == [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    assert vals.tolist() == [1.5, -2.0, 0.25]


def test_read_points_bare(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("0 0 0\n1 1 1\n0.5 0.5 0.5\n")
    pts, vals = read_points(str(p))
    assert pts.tolist() == [[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5]]
    assert vals is None


@pytest.mark.parametrize("body,line_no,fragment", [
    ("0.1 0.2\n", 1, "expected 3 or 4 columns"),
    ("0.1 0.2 0.3\n0.1 0.2 0.3 0.4\n", 2, "started with 3"),
    ("0.1 0.2 0.3\n# fine\n0.1 oops 0.3\n", 3, "'oops'"),
    ("0.5 0.5 inf\n", 1, "non-finite"),
    ("0.5 0.5 nan\n", 1, "non-finite"),
    ("0.5 1.5 0.5\n", 1, "outside the unit cube"),
    ("0.5 0.5 -0.25\n", 1, "outside the unit cube"),
])
def test_read_points_errors(tmp_path, body, line_no, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(body)
    with pytest.raises(PointFileError) as exc:
        read_points(str(p))
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert str(p) in str(exc.value)


def test_read_points_empty_ok(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing but comments\n\n")
    pts, vals = read_points(str(p))
    assert pts.shape == (0, 3) and vals is None


# ---------------------------------------------------------------- rendering

def _result(rmse=1.234e-5):
    return ExperimentResult(
        n=343, d=43, q=3, kernel="w4", shape=0.54, function="f1",
        m_max=None, mode="cube", rmse=rmse, max_abs_error=3 * rmse,
        fit_seconds=0.01, eval_seconds=0.002, total_seconds=0.012,
        uncovered_points=5, illconditioned_solves=0,
    )


def test_render_results_csv_round_trips():
    ugly = 0.1 + 0.2  # not representable; 17 digits must survive
    text = render_results(_result(rmse=ugly), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RESULT_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "343" and fields[3] == "w4" and fields[7] == "cube"
    assert fields[6] == ""  # m_max None renders empty
    assert float(fields[8]) == ugly  # bitwise round trip through .17g
    assert fields[13] == "5"


# the ExperimentResult field each output column renders
COLUMN_FIELDS = {
    "n": "n", "d": "d", "q": "q", "kernel": "kernel", "shape": "shape",
    "function": "function", "mmax": "m_max", "mode": "mode", "rmse": "rmse",
    "max_err": "max_abs_error", "fit_s": "fit_seconds",
    "eval_s": "eval_seconds", "total_s": "total_seconds",
    "warn_uncovered": "uncovered_points",
    "warn_illcond": "illconditioned_solves", "warn_empty": "empty_subdomains",
}


def test_result_columns_name_each_field_in_order():
    # rows are zipped from the dataclass, so a field without its column, or a
    # column out of field order, would drop or mislabel a value in CSV and JSON
    assert tuple(COLUMN_FIELDS) == RESULT_COLUMNS
    fields = tuple(f.name for f in dataclasses.fields(ExperimentResult))
    assert tuple(COLUMN_FIELDS.values()) == fields
    res = _result()
    row = json.loads(render_results(res, "json"))
    assert row == {col: getattr(res, f) for col, f in COLUMN_FIELDS.items()}


def test_render_results_json():
    one = json.loads(render_results(_result(), "json"))
    assert isinstance(one, dict)
    assert set(one) == set(RESULT_COLUMNS)
    assert one["n"] == 343 and one["mmax"] is None and one["kernel"] == "w4"
    two = json.loads(render_results([_result(), _result()], "json"))
    assert isinstance(two, list) and len(two) == 2


def test_render_sweep():
    class S:
        points = ((1.0, 0.25), (2.0, float("inf")))
        best_shape, best_rmse = 1.0, 0.25

    csv = render_sweep(S, "csv").strip().split("\n")
    assert csv[0] == "shape,rmse"
    assert csv[1] == "1,0.25"
    assert csv[2] == "2,inf"
    js = json.loads(render_sweep(S, "json"))
    assert js["best_shape"] == 1.0
    assert js["curve"][1] == [2.0, float("inf")] or js["curve"][1][1] == float("inf")


def test_render_values_round_trips():
    pts = np.array([[0.1, 0.2, 0.3]])
    vals = np.array([1.0 / 3.0])
    lines = render_values(pts, vals, "csv").strip().split("\n")
    assert lines[0] == "x,y,z,value"
    got = [float(t) for t in lines[1].split(",")]
    assert got == [0.1, 0.2, 0.3, 1.0 / 3.0]


# ---------------------------------------------------------------- main()

BENCH_SMALL = ["bench", "--nodes", "halton:343", "--subdomains", "43",
               "--kernel", "w4", "--shape", "0.54", "--eval", "grid:5"]


def test_main_bench_csv(tmp_path, capsys):
    out = tmp_path / "res.csv"
    assert main(BENCH_SMALL + ["--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(RESULT_COLUMNS)
    fields = dict(zip(RESULT_COLUMNS, lines[1].split(",")))
    assert fields["n"] == "343" and fields["d"] == "43"
    assert fields["q"] == "3" and fields["kernel"] == "w4"
    assert fields["warn_uncovered"] == "5" and fields["warn_illcond"] == "0"
    # the library call computes the same rmse, bit for bit
    res = run_experiment(ExperimentSpec(343, 43, "w4", eval_grid_side=5), 0.54)
    assert float(fields["rmse"]) == res.rmse


def test_main_bench_json_stdout(capsys):
    assert main(BENCH_SMALL + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 343 and payload["mode"] == "cube"
    assert payload["rmse"] > 0


def test_main_bench_deterministic_text(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(BENCH_SMALL + ["--out", str(a)]) == 0
    assert main(BENCH_SMALL + ["--out", str(b)]) == 0
    row = lambda p: p.read_text().strip().split("\n")[1].split(",")
    ra, rb = row(a), row(b)
    for col, va, vb in zip(RESULT_COLUMNS, ra, rb):
        if not col.endswith("_s"):  # timings are the only nondeterministic columns
            assert va == vb, col


def test_main_fit_from_file(tmp_path, capsys):
    nodes = generate(HaltonConfig(200))
    vals = f1(nodes)
    body = "\n".join(
        f"{x:.17g} {y:.17g} {z:.17g} {v:.17g}"
        for (x, y, z), v in zip(nodes, vals)
    )
    src = tmp_path / "nodes.txt"
    src.write_text(body + "\n")
    assert main(["fit", "--nodes", f"file:{src}", "--eval", "grid:3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,y,z,value"
    assert len(lines) == 1 + 27
    first = [float(t) for t in lines[1].split(",")]
    assert first[:3] == [0.0, 0.0, 0.0]
    assert np.isfinite(first[3])


def test_main_fit_function_sampling(tmp_path):
    out = tmp_path / "vals.csv"
    assert main(["fit", "--nodes", "halton:200", "--function", "f2",
                 "--eval", "grid:3", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 28


def test_main_fit_explicit_centers(tmp_path, capsys):
    centers = tmp_path / "centers.txt"
    centers.write_text("0.3 0.3 0.3\n0.7 0.7 0.7\n")
    code = main(["fit", "--nodes", "halton:150", "--function", "f1",
                 "--centers", f"file:{centers}", "--eval", "grid:3"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 28
    # count mismatch is a usage error
    code = main(["fit", "--nodes", "halton:150", "--function", "f1",
                 "--centers", f"file:{centers}", "--subdomains", "3",
                 "--eval", "grid:3"])
    assert code == 1


def test_main_fit_missing_function_is_usage_error(tmp_path, capsys):
    src = tmp_path / "bare.txt"
    src.write_text("0.2 0.2 0.2\n0.8 0.8 0.8\n")
    assert main(["fit", "--nodes", f"file:{src}"]) == 1
    assert "carries no values" in capsys.readouterr().err


def test_main_fit_function_with_valued_file_is_usage_error(tmp_path, capsys):
    src = tmp_path / "p4.txt"
    src.write_text("0.2 0.2 0.2 1.0\n0.8 0.8 0.8 2.0\n")
    assert main(["fit", "--nodes", f"file:{src}", "--function", "f2",
                 "--subdomains", "1", "--eval", "grid:2"]) == 1
    assert "carries its own values" in capsys.readouterr().err


def test_main_bad_file_is_input_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("0.1 0.1 0.1 1.0\n0.2 0.2 0.2 2.0\n0.3 zig 0.3 3.0\n")
    assert main(["fit", "--nodes", f"file:{src}"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and ":3:" in err


def test_main_empty_file_is_input_error(tmp_path, capsys):
    src = tmp_path / "none.txt"
    src.write_text("# empty\n")
    assert main(["fit", "--nodes", f"file:{src}", "--function", "f1"]) == 2


def _corner_nodes(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.random((50, 3)) * 0.08
    src = tmp_path / "corner.txt"
    src.write_text("\n".join(f"{x:.17g} {y:.17g} {z:.17g} 1.0" for x, y, z in pts))
    return src


def test_main_numerical_failure_exit_code(tmp_path, capsys):
    # every ball empty: all centers sit in the corner opposite the nodes
    centers = tmp_path / "centers.txt"
    centers.write_text("\n".join(f"{0.9 + 0.01 * i} 0.95 0.95" for i in range(8)))
    code = main(["fit", "--nodes", f"file:{_corner_nodes(tmp_path)}",
                 "--centers", f"file:{centers}", "--eval", "grid:3"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "all 8 subdomains contain no nodes" in err


def test_main_fit_drops_empty_subdomains(tmp_path, capsys):
    # nodes in one corner leave most of 512 balls empty: the fit drops them
    # and warns
    code = main(["fit", "--nodes", f"file:{_corner_nodes(tmp_path)}",
                 "--subdomains", "512", "--eval", "grid:3"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().split("\n")) == 1 + 27
    assert re.search(r"warning: \d+ subdomains contain no nodes", captured.err)


def test_main_non_finite_shape_is_input_error(capsys):
    # an infinite shape passes the parser's positivity check; the kernel
    # rejects it before any solve can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["fit", "--nodes", "halton:343", "--function", "f1",
                     "--shape", "inf", "--eval", "grid:2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err and "finite" in err


def test_main_unwritable_out_is_io_error(capsys):
    assert main(BENCH_SMALL + ["--out", "/nonexistent-dir-xq/res.csv"]) == 2
    assert "io error" in capsys.readouterr().err


def test_main_usage_error_messages(capsys):
    assert main(["bench", "--nodes", "halton:100", "--kernel", "g"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_main_no_cube_is_usage_error(capsys):
    # the plain scan runs only inside compare-search; no option selects it
    for argv in (["fit", "--nodes", "halton:100", "--function", "f1"],
                 BENCH_SMALL,
                 ["sweep", "--nodes", "halton:100", "--kernel", "g",
                  "--range", "1:5:3"],
                 ["compare-search", "--nodes", "halton:100", "--kernel", "g",
                  "--shape", "2"]):
        parse_args(argv)  # valid without the flag
        assert main(argv + ["--no-cube"]) == 1
        assert "unrecognized arguments: --no-cube" in capsys.readouterr().err


def test_main_sweep(capsys):
    code = main(["sweep", "--nodes", "halton:343", "--subdomains", "43",
                 "--kernel", "m4", "--range", "2:4:3", "--eval", "grid:5"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "shape,rmse"
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [2.0, 3.0, 4.0]
    assert "best shape" in captured.err


def test_main_compare_search(capsys):
    code = main(["compare-search", "--nodes", "halton:343", "--subdomains", "43",
                 "--kernel", "w4", "--shape", "0.54", "--eval", "grid:5",
                 "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["results_match"] is True
    assert payload["cube"]["rmse"] == payload["no_cube"]["rmse"]
    assert "results identical: True" in captured.err


def test_main_compare_search_csv_two_rows(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["compare-search", "--nodes", "halton:343", "--subdomains", "43",
                 "--kernel", "w4", "--shape", "0.54", "--eval", "grid:5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[7] == "cube"
    assert lines[2].split(",")[7] == "no_cube"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cubepu", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "compare-search" in proc.stdout
