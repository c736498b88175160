"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests

Each workload runs end to end at a tiny size, untraced and traced, and each
correctness check is shown to fail on a deliberately wrong value.
"""

import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(name, **changes):
    """The named workload shrunk to run in well under a second per pass."""
    wl = workloads.WORKLOADS[name]
    size = dict(nodes=729, centers=27, side=5, queries=12 if wl.queries else 0,
                rmse_tol=0.1, max_err_tol=1.0)
    if wl.kind == "sweep":
        size["shapes"] = (1.0, 5.0, 10.0)
    size.update(changes)
    return replace(wl, **size)


def quiet_run(wl, trace, tmp_path, seed=3):
    return run.run(wl, seed, 0.01, trace, log=io.StringIO(), trace_dir=tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end(name, tmp_path):
    res = quiet_run(tiny(name), 0, tmp_path)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    res = quiet_run(tiny(name), 1, tmp_path)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    got = {k: v["value"] for k, v in res["metrics"].items()}
    assert got["pu.capture_s"] > 0 and got["pu.solve_s"] > 0
    assert got["pu.search_s"] > 0 and got["pu.blend_s"] > 0
    assert 0 < got["cube_index.hits"] <= got["cube_index.candidates"]
    assert got["cube_index.query_calls"] == (got["cube_index.capture.query_calls"]
                                            + got["cube_index.search.query_calls"])
    assert got["pu.cover_pairs"] > 0 and got["halton.generate_s"] > 0
    assert got["rbf.solve_local_calls"] == 27 * len(tiny(name).shapes)
    trace_file = tmp_path / f"trace-{name}-seed3.json"
    saved = json.loads(trace_file.read_text())
    assert saved["spans"] and all(len(s) == 5 for s in saved["spans"])


def test_tracing_is_removed_after_the_run(tmp_path):
    quiet_run(tiny("dense-eval-41"), 1, tmp_path)
    lib = sys.modules
    assert not hasattr(lib["cubepu.pu"].fit, "__wrapped__")
    assert not hasattr(lib["cubepu.cube_index"].CubeIndex.query, "__wrapped__")


def test_missing_target_reports_zero_without_failing(tmp_path, monkeypatch):
    bogus = ("cubepu.rbf", "no_such_function", "rbf.kernel", False)
    kept = tuple(t for t in spans.TARGETS if t[2] != "rbf.kernel")
    monkeypatch.setattr(spans, "TARGETS", kept + (bogus,))
    res = quiet_run(tiny("dense-eval-41"), 1, tmp_path)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["rbf.kernel_calls"]["value"] == 0


def test_candidates_match_a_cell_by_cell_count():
    rng = np.random.default_rng(0)
    ci = run.import_cubepu().cube_index
    pts = rng.random((400, 3))
    index = ci.build(pts, ci.grid_from_radius(0.2))
    centers = rng.random((30, 3))
    q = index.params.q
    cells = np.minimum(np.floor(pts * q), q - 1)
    want = 0
    for c in centers:
        cc = np.minimum(np.floor(c * q), q - 1)
        want += int((np.abs(cells - cc) <= 1).all(axis=1).sum())
    assert spans._candidates([(index, centers)]) == want


# ------------------------------------------------- checks fail on wrong values

def test_accuracy_check_fails_above_tolerance():
    assert reference.check_accuracy(1e-5, 1e-4, 1e-4, 1e-3) == []
    assert reference.check_accuracy(2e-4, 1e-4, 1e-4, 1e-3)
    assert reference.check_accuracy(1e-5, 2e-3, 1e-4, 1e-3)
    assert reference.check_accuracy(float("nan"), 1e-4, 1e-4, 1e-3)


def test_f1_reference_matches_known_values():
    at_bump = reference.f1(np.array([[2 / 9, 2 / 9, 2 / 9]]))[0]
    assert abs(at_bump - 0.75 - 0.75 * np.exp(-9 / 49 - 0.6)) < 1e-4
    corner = 0.75 * np.exp(-3) + 0.75 * np.exp(-1 / 49 - 0.2) \
        + 0.5 * np.exp(-83 / 4) - 0.2 * np.exp(-90)
    assert reference.f1(np.zeros((1, 3)))[0] == pytest.approx(corner, rel=1e-15)


def test_cover_check_fails_on_a_missing_ball():
    centers = reference.halton(64, workloads.CENTER_BASES)
    radius = reference.subdomain_radius(64)
    pts = np.array([[0.5, 0.5, 0.5], [0.1, 0.9, 0.3]])
    found = [reference.covering_ids(centers, radius, p) for p in pts]
    assert reference.check_cover(found, centers, radius, pts) == []
    found[1] = found[1][1:]
    assert reference.check_cover(found, centers, radius, pts)


def test_geometry_check_fails_on_a_wrong_radius():
    centers = reference.halton(64, workloads.CENTER_BASES)
    r = reference.subdomain_radius(64)
    assert reference.check_geometry(centers, r, centers, r) == []
    assert reference.check_geometry(centers, r * (1 + 1e-9), centers, r)
    assert reference.check_geometry(centers[::-1], r, centers, r)


def test_pass_checks_catch_wrong_program_values(tmp_path):
    lib = run.import_cubepu()
    wl = tiny("point-queries")
    inp = workloads.make_inputs(lib, wl, 5)
    out = workloads.run_pass(lib, wl, inp)
    assert workloads.check_pass(lib, wl, inp, out) == []

    off_by_one_ulp = out.singles.copy()
    off_by_one_ulp[4] = np.nextafter(off_by_one_ulp[4], np.inf)
    fails = workloads.check_pass(lib, wl, inp, replace_ns(out, singles=off_by_one_ulp))
    assert any("differ from the batch" in f for f in fails)

    wrong_data = replace_ns(inp, values=inp.values + 1e-6)
    fails = workloads.check_pass(lib, wl, wrong_data, out)
    assert any("reproduction" in f for f in fails)


def test_failed_check_counts_as_failed_operation(tmp_path):
    res = quiet_run(tiny("dense-eval-41", rmse_tol=1e-12), 0, tmp_path)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_inputs_depend_on_the_seed_only():
    lib = run.import_cubepu()
    wl = tiny("point-queries")
    a, b, c = (workloads.make_inputs(lib, wl, s) for s in (7, 7, 8))
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.points, b.points)
    assert not np.array_equal(a.nodes, c.nodes)
    assert np.array_equal(np.sort(a.nodes, axis=0), np.sort(c.nodes, axis=0))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def replace_ns(ns, **changes):
    return type(ns)(**{**vars(ns), **changes})
