"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the correctness checks every pass runs.

A pass is one job a user runs and always starts with a fit.  The pass
functions call cubepu's public functions only, through the `lib` namespace
that run.py imports, so a traced run sees every call at the layer boundary.
"""

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import reference

# Nodes and centers follow the paper: Halton nodes in bases (2, 3, 5),
# Halton centers in (7, 11, 13), radius sqrt(2)/cbrt(d).
CENTER_BASES = (7, 11, 13)
QUERY_BASES = (17, 19, 23)
REPRODUCTION_TOL = 1e-9
CHECK_SAMPLE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "batch" | "points" | "sweep"
    nodes: int
    centers: int
    kernel: str
    shapes: tuple        # one shape, or the sweep's shapes in order
    side: int = 11       # evaluation lattice side (batch, sweep)
    queries: int = 0     # single-point queries per pass (points)
    rmse_tol: float = 0.0
    max_err_tol: float = 0.0


def _sweep_shapes(lo, hi, count):
    return tuple(float(s) for s in np.linspace(lo, hi, count))


WORKLOADS = {
    w.name: w for w in (
        Workload("dense-eval-41", "batch", 4913, 512, "w4", (0.54,), side=41,
                 rmse_tol=5e-4, max_err_tol=1e-2),
        Workload("point-queries", "points", 35937, 4096, "w4", (0.54,), queries=500,
                 rmse_tol=1e-4, max_err_tol=1e-3),
        Workload("shape-sweep", "sweep", 4913, 512, "g", _sweep_shapes(1.0, 10.0, 19),
                 side=11, rmse_tol=5e-4, max_err_tol=1e-2),
    )
}


def make_inputs(lib, wl, seed):
    """Everything a pass needs, truth values included.

    The node set is the Halton set the paper uses, handed to the program in
    a seeded order; the evaluation points are a fixed set (a lattice, or
    Halton points in bases 17, 19, 23 for single-point queries) in a seeded
    order.  The seed also draws the nodes and points the checks sample.
    Fixed point sets keep the error figures comparable between seeds; with
    fresh random points their spread between seeds would swamp any bound.
    """
    rng = np.random.default_rng(seed)
    nodes = lib.halton.generate(lib.halton.HaltonConfig(wl.nodes))[rng.permutation(wl.nodes)]
    if wl.kind == "points":
        points = reference.halton(wl.queries, QUERY_BASES)[rng.permutation(wl.queries)]
    else:
        points = reference.lattice(wl.side)
    centers = reference.halton(wl.centers, CENTER_BASES)
    radius = reference.subdomain_radius(wl.centers)
    # Only nodes inside some ball are reproduced; an uncovered node takes the
    # nearest ball's interpolant, which never saw it.
    ids = rng.choice(wl.nodes, size=min(3 * CHECK_SAMPLE, wl.nodes), replace=False)
    covered = ids[reference.inside_some_ball(nodes[ids], centers, radius)]
    return SimpleNamespace(
        nodes=nodes,
        values=reference.f1(nodes),
        points=points,
        truth=reference.f1(points),
        reproduce_ids=np.array(covered[:CHECK_SAMPLE], dtype=np.int64),
        cover_points=np.vstack([rng.random((CHECK_SAMPLE, 3)), reference.lattice(2)]),
        ref_centers=centers,
        ref_radius=radius,
    )


def _config(lib, wl, shape):
    return lib.pu.PUConfig(lib.rbf.KernelSpec(wl.kernel, shape), subdomain_count=wl.centers)


def run_pass(lib, wl, inp):
    """One timed pass.  Returns its timings, its scores and what the checks
    need (`models`, and for single-point queries the values returned)."""
    clock = time.perf_counter
    out = SimpleNamespace(fit_s=0.0, eval_s=[], models=[], singles=None)
    t0 = clock()
    if wl.kind == "sweep":
        geometry = lib.pu.fit_geometry(inp.nodes, inp.values, _config(lib, wl, wl.shapes[0]))
        out.fit_s += clock() - t0
        best = None
        for shape in wl.shapes:
            t1 = clock()
            model = lib.pu.refit_kernel(geometry, lib.rbf.KernelSpec(wl.kernel, shape))
            t2 = clock()
            report = lib.pu.evaluate_report(model, inp.points)
            t3 = clock()
            out.fit_s += t2 - t1
            out.eval_s.append(t3 - t2)
            out.models.append(model)
            score = reference.errors(report.values, inp.truth)
            if best is None or score[0] < best[0]:
                best = score
        out.rmse, out.max_err = best
    else:
        model = lib.pu.fit(inp.nodes, inp.values, _config(lib, wl, wl.shapes[0]))
        t1 = clock()
        out.fit_s = t1 - t0
        out.models.append(model)
        if wl.kind == "points":
            values = np.empty(len(inp.points))
            for i, p in enumerate(inp.points):
                ta = clock()
                values[i] = lib.pu.evaluate(model, p)
                out.eval_s.append(clock() - ta)
            out.singles = values
        else:
            values = lib.pu.evaluate_report(model, inp.points).values
            out.eval_s.append(clock() - t1)
        out.rmse, out.max_err = reference.errors(values, inp.truth)
    out.total_s = clock() - t0
    return out


def check_pass(lib, wl, inp, out):
    """Every check of one pass; returns the failure messages."""
    fails = reference.check_accuracy(out.rmse, out.max_err, wl.rmse_tol, wl.max_err_tol)
    model = out.models[-1]
    fails += reference.check_geometry(model.centers, model.radius,
                                      inp.ref_centers, inp.ref_radius)
    found = [model.center_index.query(p, model.radius) for p in inp.cover_points]
    fails += reference.check_cover(found, model.centers, model.radius, inp.cover_points)

    sample = inp.nodes[inp.reproduce_ids]
    # Reproduction is only expected of well-conditioned systems: at small
    # Gaussian shapes the local solves are ill-conditioned by design.
    checked = [m for m in out.models if m.illconditioned_solves == 0]
    if not checked:
        fails.append("no shape gave well-conditioned local systems")
    for m in checked:
        fails += reference.check_reproduction(
            lib.pu.evaluate_report(m, sample).values, inp.values[inp.reproduce_ids],
            REPRODUCTION_TOL, label=f"shape {m.config.kernel.shape:g}: ")
    if out.singles is not None:
        fails += reference.check_bitwise(
            out.singles, lib.pu.evaluate_report(model, inp.points).values)
    return fails
