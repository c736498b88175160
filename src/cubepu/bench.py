"""Benchmark harness: test fields, error metrics, experiments, shape sweeps.

Experiments follow a fixed recipe so runs are reproducible: Halton nodes in
bases (2, 3, 5) starting at index 1, values sampled from one of two smooth
test fields, a PU fit, and errors measured on the (s x s x s) vertex lattice
i/(s-1) (s = 11 by default, 1331 points).

An `ExperimentSpec` describes that setup only.  The kernel shape, the one
thing the paper's experiments vary on a fixed setup, is passed to each run:
`run_experiment(spec, shape)`, `compare_search(spec, shape)` and
`sweep_shape(spec, shapes)`.  All three run one loop: capture once, then
solve, evaluate and score each shape; the first shape that solves carries the
capture time.  `compare_search` runs it once per search engine, the plain scan
being the reference that the cube search must match bit for bit.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import cube_index, pu
from .errors import SingularSystemError
from .geometry import require_int
from .halton import HaltonConfig, generate
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
    function: str = "f1"
    eval_grid_side: int = 11
    m_max: int | None = None
    centers: str = "halton"

    def __post_init__(self):
        if self.function not in TEST_FUNCTIONS:
            raise ValueError(
                f"unknown test function {self.function!r}; expected one of "
                f"{tuple(TEST_FUNCTIONS)}"
            )
        require_int("node_count", self.node_count, 1)
        require_int("eval_grid_side", self.eval_grid_side, 2)
        # PUConfig and KernelSpec check the rest; any positive shape will do
        _pu_config(self, 1.0)


@dataclass(frozen=True)
class ExperimentResult:
    n: int
    d: int        # centers placed; a grid rounds d up to a cube
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
    empty_subdomains: int


def _pu_config(spec, shape):
    return pu.PUConfig(KernelSpec(spec.kernel_family, shape), spec.subdomain_count,
                       spec.m_max, spec.centers)


def _nodes_and_values(spec):
    nodes = generate(HaltonConfig(spec.node_count))
    return nodes, TEST_FUNCTIONS[spec.function](nodes)


def _result(spec, shape, search, model, report, truth, fit_s, eval_s):
    return ExperimentResult(
        n=spec.node_count,
        d=model.centers.shape[0],
        q=cube_index.grid_from_radius(model.radius).q_ceil,
        kernel=spec.kernel_family,
        shape=float(shape),
        function=spec.function,
        m_max=spec.m_max,
        mode=search,
        rmse=rmse(truth, report.values),
        max_abs_error=float(np.abs(report.values - truth).max()),
        fit_seconds=fit_s,
        eval_seconds=eval_s,
        total_seconds=fit_s + eval_s,
        uncovered_points=report.uncovered,
        illconditioned_solves=model.illconditioned_solves,
        empty_subdomains=int(np.count_nonzero(model.empty)),
    )


def _runs(spec, shapes, search):
    """The one experiment loop: capture once under `search`, then solve,
    evaluate and score each shape.  Returns, per shape in order, its
    (ExperimentResult, EvalReport) or the SingularSystemError of its solve."""
    nodes, values = _nodes_and_values(spec)
    grid = eval_grid(spec.eval_grid_side)
    truth = TEST_FUNCTIONS[spec.function](grid)
    t0 = time.perf_counter()
    geometry = pu.fit_geometry(nodes, values, _pu_config(spec, shapes[0]), search)
    capture_s = time.perf_counter() - t0
    runs = []
    for s in shapes:
        t1 = time.perf_counter()
        try:
            model = pu.refit_kernel(geometry, KernelSpec(spec.kernel_family, float(s)))
        except SingularSystemError as e:
            runs.append(e)
            continue
        fit_s = capture_s + time.perf_counter() - t1
        capture_s = 0.0  # the first shape that solves carries the capture time
        t2 = time.perf_counter()
        report = pu.evaluate_report(model, grid)
        eval_s = time.perf_counter() - t2
        runs.append((_result(spec, s, search, model, report, truth, fit_s, eval_s), report))
    return runs


def _run_one(spec, shape, search):
    """The loop at one shape; a collapsed solve re-raises its error."""
    (run,) = _runs(spec, [shape], search)
    if isinstance(run, SingularSystemError):
        raise run
    return run


def run_experiment(spec, shape):
    """One experiment at one shape: generate, fit, evaluate on the grid, score."""
    return _run_one(spec, shape, "cube")[0]


@dataclass(frozen=True)
class SweepResult:
    points: tuple          # ((shape, rmse), ...) in sweep order
    best_shape: float
    best_rmse: float
    results: tuple         # ExperimentResult per shape that actually solved


def sweep_shape(spec, shapes):
    """Error curve over a nonempty sequence of shapes, reusing nodes, centers,
    and the cube index across shape values; only the local solves and
    the evaluation rerun.  A shape whose solve collapses scores rmse = +inf
    rather than aborting the sweep."""
    if len(shapes) == 0:
        raise ValueError("sweep_shape needs at least one shape")
    runs = _runs(spec, shapes, "cube")
    results = tuple(r[0] for r in runs if not isinstance(r, SingularSystemError))
    curve = tuple(
        (float(s), float("inf") if isinstance(r, SingularSystemError) else r[0].rmse)
        for s, r in zip(shapes, runs)
    )
    best = int(np.argmin([r for _, r in curve]))  # ties resolve to the smallest shape
    return SweepResult(
        points=curve,
        best_shape=curve[best][0],
        best_rmse=curve[best][1],
        results=results,
    )


def compare_search(spec, shape):
    """Run the same experiment under both search engines.

    Returns (cube_result, no_cube_result, identical).  `identical` says
    whether the two engines gave the same evaluated lattice values, bit for
    bit, and the same uncovered count; only the timings may differ."""
    (res_cube, rep_cube), (res_scan, rep_scan) = [
        _run_one(spec, shape, search) for search in pu.SEARCH_MODES]
    identical = (np.array_equal(rep_cube.values, rep_scan.values)
                 and rep_cube.uncovered == rep_scan.uncovered)
    return res_cube, res_scan, identical
