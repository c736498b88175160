import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cubepu import bench, pu
from cubepu.bench import (
    ExperimentResult,
    ExperimentSpec,
    TEST_FUNCTIONS,
    compare_search,
    eval_grid,
    f1,
    f2,
    rmse,
    run_experiment,
    sweep_shape,
)
from cubepu.cube_index import BruteForceIndex, grid_from_radius
from cubepu.errors import SingularSystemError


# ---------------------------------------------------------------- fields

def _f1_longhand(x, y, z):
    t1 = 0.75 * math.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2 + (9 * z - 2) ** 2) / 4)
    t2 = 0.75 * math.exp(-((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10)
    t3 = 0.5 * math.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2 + (9 * z - 5) ** 2) / 4)
    t4 = -0.2 * math.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    return t1 + t2 + t3 + t4


def test_f1_against_longhand_scalar():
    for p in [(2 / 9, 2 / 9, 2 / 9), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
              (0.31, 0.77, 0.13)]:
        assert f1(p) == pytest.approx(_f1_longhand(*p), rel=1e-14)


def test_f1_first_bump_dominates_at_its_peak():
    # at (2/9, 2/9, 2/9) the first exponential is exactly 0.75 and the rest are tiny
    v = f1((2 / 9, 2 / 9, 2 / 9))
    assert abs(v - 0.75 - 0.75 * math.exp(-9 / 49 - 0.6)) < 1e-4


def test_f2_known_values():
    # cos terms are both 1 at y = z = 0 and the denominator is 6 at x = 1/3
    assert f2((1 / 3, 0.0, 0.0)) == pytest.approx(0.375, abs=1e-15)
    # 6z = pi/2 kills the cos(6z) factor
    assert abs(f2((0.2, 0.9, math.pi / 12))) < 1e-15
    assert f2((0.0, 0.0, 0.0)) == pytest.approx(2.25 / 12, abs=1e-15)


def test_f2_bounded():
    rng = np.random.default_rng(11)
    vals = f2(rng.random((4000, 3)))
    assert np.abs(vals).max() <= 0.375 + 1e-15


def test_fields_vectorize_consistently():
    rng = np.random.default_rng(7)
    pts = rng.random((64, 3))
    for fn in TEST_FUNCTIONS.values():
        batch = fn(pts)
        assert batch.shape == (64,)
        scalars = np.array([fn(p) for p in pts])
        assert np.abs(batch - scalars).max() <= 1e-15


# ---------------------------------------------------------------- grid/rmse

def test_eval_grid_corners_and_order():
    g = eval_grid(2)
    want = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert np.array_equal(g, np.array(want, dtype=float))


def test_eval_grid_11():
    g = eval_grid(11)
    assert g.shape == (1331, 3)
    assert np.array_equal(g[1], [0.0, 0.0, 0.1])
    assert np.array_equal(g[11], [0.0, 0.1, 0.0])
    assert np.array_equal(g[121], [0.1, 0.0, 0.0])
    assert np.array_equal(g[-1], [1.0, 1.0, 1.0])
    assert np.unique(g[:, 0]).size == 11
    with pytest.raises(ValueError):
        eval_grid(1)


def test_rmse_values():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == math.sqrt(12.5)
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    with pytest.raises(ValueError, match="mismatch"):
        rmse([1.0], [1.0, 2.0])


def test_rmse_below_max_error():
    rng = np.random.default_rng(3)
    a, b = rng.random(100), rng.random(100)
    assert rmse(a, b) <= np.abs(a - b).max() + 1e-15


# ---------------------------------------------------------------- spec

def test_experiment_spec_validation():
    with pytest.raises(ValueError, match="function"):
        ExperimentSpec(100, 10, "g", function="f9")
    # the engine is not part of the setup: compare_search picks each one
    with pytest.raises(TypeError):
        ExperimentSpec(100, 10, "g", search="no_cube")
    with pytest.raises(ValueError, match="node_count"):
        ExperimentSpec(0, 10, "g")
    # counts that are not integers are refused up front: 343.5 would be
    # reported as n, and a 5.5 side would fail inside eval_grid
    for n in (343.5, True):
        with pytest.raises(ValueError, match="node_count"):
            ExperimentSpec(n, 43, "w4")
    for side in (5.5, 1, 5.0, True):
        with pytest.raises(ValueError, match="eval_grid_side"):
            ExperimentSpec(343, 43, "w4", eval_grid_side=side)
    spec = ExperimentSpec(np.int64(343), 43, "w4", eval_grid_side=np.int64(5))
    assert run_experiment(spec, 0.54).n == 343
    with pytest.raises(ValueError, match="at least one shape"):
        sweep_shape(ExperimentSpec(100, 10, "g"), [])
    # the kernel family and the PU settings are checked by their own types
    # when the spec is built, before any run generates nodes
    for kw, message in ((dict(centers="explicit"), "unknown center source"),
                        (dict(subdomain_count=0), "subdomain_count must be"),
                        (dict(kernel_family="x"), "unknown kernel family"),
                        (dict(m_max=0), "m_max must be")):
        with pytest.raises(ValueError, match=message):
            replace(SMALL, **kw)


# ---------------------------------------------------------------- runs

SMALL = ExperimentSpec(343, 43, "w4", eval_grid_side=5)
M4 = ExperimentSpec(343, 43, "m4", eval_grid_side=5)


def test_run_experiment_small():
    res = run_experiment(SMALL, 0.54)
    assert isinstance(res, ExperimentResult)
    assert (res.n, res.d, res.kernel, res.shape) == (343, 43, "w4", 0.54)
    assert res.function == "f1" and res.mode == "cube"
    # radius sqrt(2)/43^(1/3) = 0.404 lands between 1/3 and 1/2
    assert res.q == 3
    assert grid_from_radius(pu.subdomain_radius(43)).q == 2
    assert 0.0 < res.rmse <= res.max_abs_error < 1.0
    assert res.total_seconds == res.fit_seconds + res.eval_seconds
    # 43 centers at radius 0.404 miss a few lattice corners; the fallback
    # count is deterministic for Halton centers
    assert res.uncovered_points == 5
    assert res.empty_subdomains == 0


def test_run_experiment_reports_q_ceil():
    # q is the fit grid's rounded-up cell count, also where the radius spans
    # the whole cube (d <= 2)
    q = {}
    for d in (1, 2, 8, 43, 512, 4096, 32768):
        q[d] = run_experiment(ExperimentSpec(60, d, "w4", eval_grid_side=3), 0.54).q
        assert q[d] == grid_from_radius(pu.subdomain_radius(d)).q_ceil
    assert (q[1], q[512], q[32768]) == (1, 6, 23)


def test_run_experiment_counts_empty_subdomains(monkeypatch):
    # nodes in the half x < 0.5 leave the balls beyond it empty; the run
    # drops them and reports how many
    def half_cube(spec):
        nodes = np.random.default_rng(0).random((spec.node_count, 3))
        nodes[:, 0] *= 0.5
        return nodes, f1(nodes)

    monkeypatch.setattr(bench, "_nodes_and_values", half_cube)
    res = run_experiment(ExperimentSpec(4000, 500, "w4"), 0.54)
    assert res.empty_subdomains == 166
    assert res.uncovered_points > 0 and np.isfinite(res.rmse)


def test_run_experiment_reports_centers_placed():
    # a grid of d = 5 places the whole 2^3 lattice
    res = run_experiment(replace(SMALL, subdomain_count=5, centers="grid"), 0.54)
    assert res.d == 8 and res.uncovered_points == 0


def test_run_experiment_flat_gaussian():
    # g 1.0 at 4913/512 is far flatter than the best shape (about 2.5), and
    # its balls reach condition estimates of 8e21; a refinement step with
    # the same factor made the 11^3 RMSE 7.16
    assert run_experiment(ExperimentSpec(4913, 512, "g"), 1.0).rmse < 1e-2


def test_run_experiment_deterministic():
    a = run_experiment(SMALL, 0.54)
    b = run_experiment(SMALL, 0.54)
    assert a.rmse == b.rmse
    assert a.max_abs_error == b.max_abs_error


def test_sweep_single_point_matches_run():
    res = run_experiment(SMALL, 0.54)
    swp = sweep_shape(SMALL, [0.54])
    assert swp.points == ((0.54, res.rmse),)
    assert swp.best_shape == 0.54
    assert swp.best_rmse == res.rmse
    assert len(swp.results) == 1
    # every field but the timings is the same result
    timings = {"fit_seconds": 0.0, "eval_seconds": 0.0, "total_seconds": 0.0}
    assert replace(swp.results[0], **timings) == replace(res, **timings)


def test_sweep_curve_and_argmin():
    swp = sweep_shape(M4, [1.0, 2.0, 3.0, 4.0, 5.0])
    shapes = [s for s, _ in swp.points]
    assert shapes == [1.0, 2.0, 3.0, 4.0, 5.0]
    errs = [e for _, e in swp.points]
    assert all(np.isfinite(errs))
    best = int(np.argmin(errs))
    assert swp.best_shape == shapes[best]
    assert swp.best_rmse == errs[best]
    assert len(swp.results) == 5


def test_sweep_singular_shape_scores_inf(monkeypatch):
    real = pu.refit_kernel

    def fragile(geometry, kernel):
        if kernel.shape == 3.0:
            raise SingularSystemError(7, 12)
        return real(geometry, kernel)

    monkeypatch.setattr(pu, "refit_kernel", fragile)
    swp = sweep_shape(M4, [2.0, 3.0, 4.0])
    assert swp.points[1] == (3.0, float("inf"))
    assert len(swp.results) == 2
    assert swp.best_shape in (2.0, 4.0)
    assert np.isfinite(swp.best_rmse)


def test_sweep_capture_time_survives_singular_first_shape(monkeypatch):
    real_geometry, real_refit = pu.fit_geometry, pu.refit_kernel
    calls = []

    def slow_geometry(*args, **kwargs):
        time.sleep(0.2)
        return real_geometry(*args, **kwargs)

    def first_fails(geometry, kernel):
        calls.append(kernel.shape)
        if len(calls) == 1:
            raise SingularSystemError(0, 1)
        return real_refit(geometry, kernel)

    monkeypatch.setattr(pu, "fit_geometry", slow_geometry)
    monkeypatch.setattr(pu, "refit_kernel", first_fails)
    swp = sweep_shape(M4, [2.0, 3.0, 4.0])
    assert swp.points[0] == (2.0, float("inf"))
    assert len(swp.results) == 2
    # the first shape that solves carries the capture time
    assert swp.results[0].fit_seconds >= 0.2
    assert swp.results[1].fit_seconds < 0.2


def test_sweep_all_singular(monkeypatch):
    def broken(geometry, kernel):
        raise SingularSystemError(0, 1)

    monkeypatch.setattr(pu, "refit_kernel", broken)
    swp = sweep_shape(M4, [2.0, 4.0])
    assert swp.best_rmse == float("inf")
    assert swp.results == ()


def test_compare_search_agrees():
    res_cube, res_scan, identical = compare_search(SMALL, 0.54)
    assert identical is True
    assert res_cube.mode == "cube" and res_scan.mode == "no_cube"
    assert res_cube.rmse == res_scan.rmse
    assert res_cube.max_abs_error == res_scan.max_abs_error
    assert res_cube.uncovered_points == res_scan.uncovered_points


def test_compare_search_compares_values_bit_for_bit(monkeypatch):
    # one lattice value of the scan run moves by one ulp: the runs differ
    real = pu.evaluate_report

    def nudged(model, points):
        report = real(model, points)
        if isinstance(model.center_index, BruteForceIndex):
            report.values[7] = np.nextafter(report.values[7], np.inf)
        return report

    monkeypatch.setattr(pu, "evaluate_report", nudged)
    assert compare_search(SMALL, 0.54)[2] is False
