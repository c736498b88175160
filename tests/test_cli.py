import json
import subprocess
import sys

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
    req = parse_args(["bench", "--nodes", "halton:4913", "--subdomains", "512",
                      "--kernel", "g", "--shape", "2.7"])
    assert req.command == "bench" and req.fit is None
    spec = req.experiment
    assert (spec.node_count, spec.subdomain_count) == (4913, 512)
    assert (spec.kernel_family, spec.shape) == ("g", 2.7)
    assert spec.function == "f1" and spec.eval_grid_side == 11
    assert spec.search == "cube" and spec.center_source == "halton"
    assert req.fmt == "csv" and req.out is None


def test_parse_args_options_flow_through(tmp_path):
    out = str(tmp_path / "r.json")
    req = parse_args(["bench", "--nodes", "halton:800", "--kernel", "m4",
                      "--shape", "3", "--function", "f2", "--eval", "grid:7",
                      "--mmax", "50", "--no-cube", "--format", "json",
                      "--out", out])
    spec = req.experiment
    assert spec.subdomain_count == 100  # default n/8
    assert spec.function == "f2" and spec.eval_grid_side == 7
    assert spec.m_max == 50 and spec.search == "no_cube"
    assert req.fmt == "json" and req.out == out


def test_parse_args_sweep_range():
    req = parse_args(["sweep", "--nodes", "halton:343", "--kernel", "w4",
                      "--range", "0.1:1.9:10"])
    assert req.command == "sweep"
    assert req.experiment.shape_range == (0.1, 1.9, 10)
    assert req.experiment.shape is None


def test_parse_args_fit_defaults():
    req = parse_args(["fit", "--nodes", "file:pts.txt"])
    fr = req.fit
    assert req.command == "fit" and req.experiment is None
    assert fr.nodes == ("file", "pts.txt")
    assert fr.eval_points == ("grid", 11)
    assert (fr.kernel, fr.shape) == (DEFAULT_KERNEL, DEFAULT_SHAPE)
    assert fr.centers == "halton" and fr.subdomains is None
    assert fr.function is None and fr.search == "cube"


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
    res = run_experiment(ExperimentSpec(343, 43, "w4", shape=0.54, eval_grid_side=5))
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
                 "--centers", f"file:{centers}", "--eval", "grid:3",
                 "--no-cube"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 28
    # count mismatch is a usage error
    code = main(["fit", "--nodes", "halton:150", "--function", "f1",
                 "--centers", f"file:{centers}", "--subdomains", "3",
                 "--eval", "grid:3", "--no-cube"])
    assert code == 1


def test_main_fit_missing_function_is_usage_error(tmp_path, capsys):
    src = tmp_path / "bare.txt"
    src.write_text("0.2 0.2 0.2\n0.8 0.8 0.8\n")
    assert main(["fit", "--nodes", f"file:{src}"]) == 1
    assert "carries no values" in capsys.readouterr().err


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


def test_main_numerical_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(2)
    pts = rng.random((50, 3)) * 0.08
    src = tmp_path / "corner.txt"
    src.write_text("\n".join(f"{x:.17g} {y:.17g} {z:.17g} 1.0" for x, y, z in pts))
    code = main(["fit", "--nodes", f"file:{src}", "--subdomains", "512",
                 "--eval", "grid:3"])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_main_unwritable_out_is_io_error(capsys):
    assert main(BENCH_SMALL + ["--out", "/nonexistent-dir-xq/res.csv"]) == 2
    assert "io error" in capsys.readouterr().err


def test_main_usage_error_messages(capsys):
    assert main(["bench", "--nodes", "halton:100", "--kernel", "g"]) == 1
    assert "usage error" in capsys.readouterr().err


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
