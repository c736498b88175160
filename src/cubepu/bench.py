"""Benchmark harness: test fields, error metrics, experiments, shape sweeps.

Experiments follow a fixed recipe so runs are reproducible: Halton nodes in
bases (2, 3, 5) starting at index 1, values sampled from one of two smooth
test fields, a PU fit, and errors measured on the (s x s x s) vertex lattice
i/(s-1) (s = 11 by default, 1331 points).
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import pu
from .cube_index import grid_from_radius
from .errors import SingularSystemError
from .halton import DEFAULT_BASES, HaltonConfig, generate
from .rbf import KernelSpec


def f1(p):
    """Four-bump exponential test field (the classic trivariate blend)."""
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    t1 = 0.75 * np.exp(
        -((9 * x - 2) ** 2 + (9 * y - 2) ** 2 + (9 * z - 2) ** 2) / 4
    )
    t2 = 0.75 * np.exp(
        -((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10
    )
    t3 = 0.5 * np.exp(
        -((9 * x - 7) ** 2 + (9 * y - 3) ** 2 + (9 * z - 5) ** 2) / 4
    )
    t4 = -0.2 * np.exp(
        -((9 * x - 4) ** 2) - (9 * y - 7) ** 2 - (9 * z - 5) ** 2
    )
    out = t1 + t2 + t3 + t4
    return float(out) if out.ndim == 0 else out


def f2(p):
    """Oscillatory rational test field."""
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    out = (1.25 + np.cos(5.4 * y)) * np.cos(6 * z) / (6 + 6 * (3 * x - 1) ** 2)
    return float(out) if out.ndim == 0 else out


TEST_FUNCTIONS = {"f1": f1, "f2": f2}


def eval_grid(side):
    """The side^3 vertex lattice {i/(side-1)}^3, x slowest / z fastest."""
    if side < 2:
        raise ValueError(f"grid side must be >= 2, got {side}")
    g = np.linspace(0.0, 1.0, side)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


def rmse(truth, approx):
    """Root-mean-square error between two equal-length value arrays."""
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    approx = np.asarray(approx, dtype=np.float64).reshape(-1)
    if truth.shape != approx.shape:
        raise ValueError(
            f"length mismatch: {truth.shape[0]} truth vs {approx.shape[0]} approx values"
        )
    diff = approx - truth
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass(frozen=True)
class ExperimentSpec:
    node_count: int
    subdomain_count: int
    kernel_family: str
    shape: float | None = None
    shape_range: tuple | None = None  # (lo, hi, count) for sweeps
    function: str = "f1"
    eval_grid_side: int = 11
    m_max: int | None = None
    search: str = "cube"  # "cube" | "no_cube"
    node_bases: tuple = DEFAULT_BASES
    node_start_index: int = 1
    center_source: str = "halton"

    def __post_init__(self):
        if self.function not in TEST_FUNCTIONS:
            raise ValueError(
                f"unknown test function {self.function!r}; expected one of "
                f"{tuple(TEST_FUNCTIONS)}"
            )
        if self.search not in pu.SEARCH_MODES:
            raise ValueError(
                f"search must be one of {pu.SEARCH_MODES}, got {self.search!r}"
            )
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if self.shape is None and self.shape_range is None:
            raise ValueError("need a shape value or a shape range")


@dataclass(frozen=True)
class ExperimentResult:
    n: int
    d: int
    q: int        # rounded-up cell count, as benchmark tables quote it
    kernel: str
    shape: float
    function: str
    m_max: int | None
    mode: str
    rmse: float
    max_abs_error: float
    fit_seconds: float
    eval_seconds: float
    total_seconds: float
    uncovered_points: int
    illconditioned_solves: int
    empty_subdomains: int = 0


def _nodes_and_values(spec):
    nodes = generate(
        HaltonConfig(spec.node_count, spec.node_bases, spec.node_start_index)
    )
    return nodes, TEST_FUNCTIONS[spec.function](nodes)


def _pu_config(spec, shape):
    return pu.PUConfig(
        kernel=KernelSpec(spec.kernel_family, shape),
        subdomain_count=spec.subdomain_count,
        m_max=spec.m_max,
        center_source=spec.center_source,
    )


def _result(spec, shape, model, report, truth, fit_s, eval_s):
    return ExperimentResult(
        n=spec.node_count,
        d=spec.subdomain_count,
        q=grid_from_radius(model.radius).q_ceil,
        kernel=spec.kernel_family,
        shape=float(shape),
        function=spec.function,
        m_max=spec.m_max,
        mode=spec.search,
        rmse=rmse(truth, report.values),
        max_abs_error=float(np.abs(report.values - truth).max()),
        fit_seconds=fit_s,
        eval_seconds=eval_s,
        total_seconds=fit_s + eval_s,
        uncovered_points=report.uncovered,
        illconditioned_solves=model.illconditioned_solves,
    )


def run_experiment(spec):
    """One fixed-shape experiment: generate, fit, evaluate on the grid, score."""
    if spec.shape is None:
        raise ValueError("run_experiment needs a fixed shape; use sweep_shape for ranges")
    nodes, values = _nodes_and_values(spec)
    t0 = time.perf_counter()
    model = pu.fit(nodes, values, _pu_config(spec, spec.shape), search=spec.search)
    fit_s = time.perf_counter() - t0
    grid = eval_grid(spec.eval_grid_side)
    t1 = time.perf_counter()
    report = pu.evaluate_report(model, grid)
    eval_s = time.perf_counter() - t1
    truth = TEST_FUNCTIONS[spec.function](grid)
    return _result(spec, spec.shape, model, report, truth, fit_s, eval_s)


@dataclass(frozen=True)
class SweepResult:
    points: tuple          # ((shape, rmse), ...) in sweep order
    best_shape: float
    best_rmse: float
    results: tuple         # ExperimentResult per shape that actually solved


def sweep_shape(spec):
    """Error curve over a shape range, reusing nodes, centers, and both cube
    structures across shape values; only the local solves and the evaluation
    rerun.  A shape whose solve collapses scores rmse = +inf rather than
    aborting the sweep."""
    if spec.shape_range is None:
        raise ValueError("sweep_shape needs spec.shape_range = (lo, hi, count)")
    lo, hi, count = spec.shape_range
    if count < 1:
        raise ValueError(f"shape_range count must be >= 1, got {count}")
    shapes = np.linspace(float(lo), float(hi), int(count))
    nodes, values = _nodes_and_values(spec)
    grid = eval_grid(spec.eval_grid_side)
    truth = TEST_FUNCTIONS[spec.function](grid)

    t0 = time.perf_counter()
    geometry = pu.fit_geometry(
        nodes, values, _pu_config(spec, shapes[0]), search=spec.search
    )
    capture_s = time.perf_counter() - t0

    curve = []
    results = []
    for s in shapes:
        t1 = time.perf_counter()
        try:
            model = pu.refit_kernel(geometry, KernelSpec(spec.kernel_family, float(s)))
        except SingularSystemError:
            curve.append((float(s), float("inf")))
            continue
        # the first shape that solves carries the shared capture time
        fit_s = (0.0 if results else capture_s) + time.perf_counter() - t1
        t2 = time.perf_counter()
        report = pu.evaluate_report(model, grid)
        eval_s = time.perf_counter() - t2
        res = _result(spec, s, model, report, truth, fit_s, eval_s)
        curve.append((float(s), res.rmse))
        results.append(res)

    errs = [r for _, r in curve]
    best = int(np.argmin(errs))  # ties resolve to the smallest shape
    return SweepResult(
        points=tuple(curve),
        best_shape=curve[best][0],
        best_rmse=curve[best][1],
        results=tuple(results),
    )


def compare_search(spec):
    """Run the same experiment under both search engines.

    Returns (cube_result, no_cube_result); the numeric columns must agree
    exactly, only the timings differ."""
    res_cube = run_experiment(replace(spec, search="cube"))
    res_scan = run_experiment(replace(spec, search="no_cube"))
    return res_cube, res_scan
