"""End-to-end acceptance checks for the interpolation engine.

Each test covers one numbered criterion and prints a single
``criterion NN PASS/FAIL`` line to the real stdout (visible with or without
pytest's capture), so a full run doubles as a checklist.  The heavyweight
models and benchmark results are built once per module and shared.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from cubepu import pu
from cubepu.bench import ExperimentSpec, eval_grid, f1, run_experiment, sweep_shape
from cubepu.cube_index import brute_force_index, build, grid_from_radius
from cubepu.halton import HaltonConfig, generate
from cubepu.pu import PUConfig, blend_weights, evaluate_batch, fit, subdomain_radius
from cubepu.rbf import ILL_CONDITION_LIMIT, KernelSpec, assemble, solve_local

OPTIMAL_SHAPES = {"g": 2.7, "m4": 2.6, "w4": 0.54}


@contextmanager
def criterion(num, label, capsys):
    """Print one PASS/FAIL line per criterion past pytest's capture."""
    ok = False
    try:
        yield
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num:2d} {verdict}: {label}", flush=True)


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def desk_data():
    nodes = generate(HaltonConfig(4913))
    return nodes, f1(nodes)


@pytest.fixture(scope="module")
def desk_models(desk_data):
    nodes, values = desk_data
    return {
        fam: fit(nodes, values,
                 PUConfig(KernelSpec(fam, OPTIMAL_SHAPES[fam]), 512))
        for fam in ("g", "m4", "w4")
    }


def _runs(function, n, d):
    return {
        fam: run_experiment(ExperimentSpec(n, d, fam, shape=OPTIMAL_SHAPES[fam],
                                           function=function))
        for fam in ("g", "m4", "w4")
    }


@pytest.fixture(scope="module")
def large_f1():
    return _runs("f1", 35937, 4096)


@pytest.fixture(scope="module")
def large_f2():
    return _runs("f2", 35937, 4096)


@pytest.fixture(scope="module")
def small_f1():
    return _runs("f1", 4913, 512)


@pytest.fixture(scope="module")
def small_f2():
    return _runs("f2", 4913, 512)


# ------------------------------------------------------------------ criteria

def test_criterion_01_grid_sizing(capsys):
    with criterion(1, "grid sizing: q = 6/12/23 ceiling, 5/11/22 floor", capsys):
        for d, q_ceil, q_floor in ((512, 6, 5), (4096, 12, 11), (32768, 23, 22)):
            params = grid_from_radius(subdomain_radius(d))
            assert params.q_ceil == q_ceil
            assert params.q == q_floor


def test_criterion_02_search_matches_brute_force(capsys):
    with criterion(2, "cube search identical to brute force on 1000+ queries", capsys):
        rng = np.random.default_rng(20260821)
        point_sets = [
            rng.random((2000, 3)),
            generate(HaltonConfig(1500)),
            np.clip(rng.normal(0.5, 0.22, (900, 3)), 0.0, 1.0),
            rng.random((150, 3)) * [1.0, 1.0, 0.05],  # flat slab
        ]
        corners = np.array([(x, y, z) for x in (0.0, 1.0)
                            for y in (0.0, 1.0) for z in (0.0, 1.0)])
        total = 0
        for pts in point_sets:
            for radius in (0.08, 0.21):
                params = grid_from_radius(radius)
                index = build(pts, params)
                brute = brute_force_index(pts)
                centers = np.vstack([
                    rng.random((30, 3)),
                    corners,
                    pts[rng.integers(0, pts.shape[0], 10)],
                ])
                for c in centers:
                    for r in (radius, radius * rng.random(), 0.0):
                        got = index.query(c, r)
                        want = brute.query(c, r)
                        assert np.array_equal(got, want)
                        total += 1
        assert total >= 1000


def test_criterion_03_partition_of_unity(request, capsys):
    with criterion(3, "covering weights sum to 1 within 1e-12 at 1331 points", capsys):
        model = request.getfixturevalue("desk_models")["w4"]
        worst = 0.0
        for p in eval_grid(11):
            ids, w, covered = blend_weights(model, p)
            assert covered and ids.size > 0
            w = w / w.sum()  # the normalization evaluate_report's num / den applies
            worst = max(worst, abs(float(w.sum()) - 1.0))
            assert (w >= 0.0).all()
        assert worst <= 1e-12


def test_criterion_04_interpolation_conditions(request, capsys):
    with criterion(4, "node values reproduced within 1e-6*(1+max|f|), M4 and W4", capsys):
        nodes, values = request.getfixturevalue("desk_data")
        models = request.getfixturevalue("desk_models")
        tol = 1e-6 * (1.0 + np.abs(values).max())
        for fam in ("m4", "w4"):
            got = evaluate_batch(models[fam], nodes)
            assert np.abs(got - values).max() <= tol


def test_criterion_05_rmse_bands(request, capsys):
    with criterion(5, "benchmark RMSE bands at n=35937, d=4096 on f1", capsys):
        res = request.getfixturevalue("large_f1")
        assert 1e-6 <= res["g"].rmse <= 1e-4
        assert 3e-6 <= res["m4"].rmse <= 3e-4
        assert 3e-6 <= res["w4"].rmse <= 3e-4


def test_criterion_06_convergence(request, capsys):
    with criterion(6, "RMSE strictly decreases from n=4913 to n=35937 (f1, f2)", capsys):
        pairs = [
            (request.getfixturevalue("small_f1"), request.getfixturevalue("large_f1")),
            (request.getfixturevalue("small_f2"), request.getfixturevalue("large_f2")),
        ]
        for small, large in pairs:
            for fam in ("g", "m4", "w4"):
                assert large[fam].rmse < small[fam].rmse


def test_criterion_07_sweep_shape(capsys):
    with criterion(7, "G sweep has interior minimum; M4/W4 curves are flatter", capsys):
        sweeps = {
            fam: sweep_shape(ExperimentSpec(4913, 512, fam, shape_range=rng_))
            for fam, rng_ in (("g", (1.0, 10.0, 19)),
                              ("m4", (1.0, 10.0, 19)),
                              ("w4", (0.1, 1.9, 19)))
        }
        errs_g = np.array([e for _, e in sweeps["g"].points])
        imin = int(np.argmin(errs_g))
        assert 0 < imin < errs_g.size - 1
        assert errs_g[0] > errs_g[imin] and errs_g[-1] > errs_g[imin]

        def flatness(fam):
            errs = np.array([e for _, e in sweeps[fam].points])
            return errs.max() / errs[np.isfinite(errs)].min()

        assert flatness("m4") < flatness("g")
        assert flatness("w4") < flatness("g")


def test_criterion_08_search_modes_agree_and_cube_is_faster(request, capsys):
    with criterion(8, "cube and scan RMSE bit-identical; cube fit faster", capsys):
        cube = request.getfixturevalue("large_f1")["w4"]
        scan = run_experiment(ExperimentSpec(35937, 4096, "w4", shape=0.54,
                                             search="no_cube"))
        assert cube.rmse == scan.rmse
        assert cube.max_abs_error == scan.max_abs_error
        assert cube.fit_seconds < scan.fit_seconds
        ratio = scan.fit_seconds / cube.fit_seconds
        with capsys.disabled():
            print(f"criterion  8 info: fit speedup x{ratio:.2f} "
                  f"(cube {cube.fit_seconds:.3f}s, scan {scan.fit_seconds:.3f}s)",
                  flush=True)


def test_criterion_09_m_max_cap(request, capsys):
    with criterion(9, "m_max=50 fits faster with < 100x RMSE loss", capsys):
        uncapped = request.getfixturevalue("large_f1")["w4"]
        capped = run_experiment(ExperimentSpec(35937, 4096, "w4", shape=0.54,
                                               m_max=50))
        assert capped.fit_seconds < uncapped.fit_seconds
        assert capped.rmse < 100.0 * uncapped.rmse


def _residual_checks(model):
    """Recompute ||phi c - f||_inf for every solved system in a model."""
    checked = illcond = 0
    for sd in model.subdomains:
        loc = sd.coefficients
        if loc.condition_estimate >= ILL_CONDITION_LIMIT:
            illcond += 1
            continue
        sites, values = model.points[sd.node_ids], model.values[sd.node_ids]
        phi = assemble(sites, model.config.kernel)
        resid = np.abs(phi @ loc.coefficients - values).max()
        assert resid <= 1e-8 * (1.0 + np.abs(values).max())
        checked += 1
    assert illcond == model.illconditioned_solves
    return checked


def test_criterion_10_local_residuals(request, capsys):
    with criterion(10, "well-conditioned local residuals below 1e-8*(1+|f|)", capsys):
        models = request.getfixturevalue("desk_models")
        checked = sum(_residual_checks(m) for m in models.values())

        # random subdomains: random patches of a Halton cloud, smooth values
        rng = np.random.default_rng(417)
        cloud = generate(HaltonConfig(3000))
        families = (("g", 1.0, 10.0), ("m4", 1.0, 10.0), ("w4", 0.1, 1.9))
        for _ in range(150):
            center = rng.random(3)
            radius = 0.1 + 0.3 * rng.random()
            d2 = ((cloud - center) ** 2).sum(axis=1)
            ids = np.flatnonzero(d2 <= radius * radius)
            if ids.size == 0:
                continue
            if ids.size > 120:
                ids = ids[np.argsort(d2[ids])[:120]]
            sites = cloud[ids]
            a, b, c = rng.normal(size=3)
            values = (a * np.cos(3 * sites[:, 0]) + b * np.exp(sites[:, 1])
                      + c * sites[:, 2] ** 2)
            fam, lo, hi = families[rng.integers(0, 3)]
            kernel = KernelSpec(fam, lo + (hi - lo) * rng.random())
            loc = solve_local(sites, values, kernel)
            if loc.condition_estimate >= ILL_CONDITION_LIMIT:
                continue
            phi = assemble(sites, kernel)
            resid = np.abs(phi @ loc.coefficients - values).max()
            assert resid <= 1e-8 * (1.0 + np.abs(values).max())
            checked += 1
        assert checked >= 500
