"""Partition-of-unity interpolation over spherical subdomains.

d subdomain centers cover the unit cube with balls of radius
sqrt(2)/cbrt(d); each ball gets a local RBF interpolant over the nodes it
captures, and the global surface blends the local ones with inverse-distance
(Shepard) weights restricted to the covering balls:

    I(p) = sum_j W_j(p) R_j(p),   sum_j W_j(p) = 1 wherever p is covered.

The same cube-partition search answers both capture (nodes near a center)
and evaluation (centers near a point) with (row, id) pairs, one batched
`query_many` call per job: capture asks for every ball at once, and
evaluation asks once per block of points; a brute-force scan engine is kept
as the reference path.
A ball that captures no nodes stays in the model but never blends.
`blend_weights` gives a block of points its (point, ball, weight) triples,
including points on a center and points outside every ball, and
`evaluate_report` applies them in one loop that accumulates subdomain
contributions in ascending subdomain order, so results are reproducible bit
for bit across search engines and batch shapes.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import cube_index, halton
from .errors import EmptySubdomainError
from .geometry import as_point_array, ensure_in_unit_cube, squared_distances
from .rbf import ILL_CONDITION_LIMIT, KernelSpec, local_values, solve_local

# Primes for the center sequence, disjoint from the node bases (2, 3, 5) so
# centers never replicate the node layout.
CENTER_BASES = (7, 11, 13)

# Distances below this count as "evaluation point sits on a center"; such
# centers split the full blending weight equally and everything else gets 0.
COINCIDENT_TOL = 1e-14

SEARCH_MODES = ("cube", "no_cube")

# evaluate_report blends this many points at a time, which bounds the memory
# of their (point, subdomain, weight) triples.  Each point still sums in
# ascending subdomain order, so the block size changes no bit of any value.
BLEND_BLOCK = 8192


def subdomain_radius(subdomain_count):
    """Covering radius sqrt(2)/cbrt(d) for d subdomains."""
    if subdomain_count < 1:
        raise ValueError(f"need at least one subdomain, got {subdomain_count}")
    return math.sqrt(2.0) / float(np.cbrt(float(subdomain_count)))


@dataclass(frozen=True)
class PUConfig:
    kernel: KernelSpec
    subdomain_count: int
    m_max: int | None = None
    center_source: str = "halton"  # "halton" | "grid" | "explicit"
    centers: np.ndarray | None = None  # only read when center_source == "explicit"

    def __post_init__(self):
        for name in ("subdomain_count", "m_max"):
            value = getattr(self, name)
            if name == "m_max" and value is None:
                continue
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.center_source not in ("halton", "grid", "explicit"):
            raise ValueError(f"unknown center source {self.center_source!r}")
        if self.center_source == "explicit" and self.centers is None:
            raise ValueError("center_source='explicit' needs a centers array")


@dataclass
class Subdomain:
    node_ids: np.ndarray          # ascending original node ids; empty for a dropped ball
    coefficients: object = None   # LocalCoefficients once solved


@dataclass
class PUModel:
    config: PUConfig
    radius: float
    points: np.ndarray   # (n, 3) node positions
    values: np.ndarray   # (n,)
    centers: np.ndarray  # (d, 3)
    subdomains: list
    node_index: object    # CubeIndex or BruteForceIndex over the nodes
    center_index: object  # same engine over the centers
    empty: np.ndarray     # (d,) bool, the balls that captured no nodes
    illconditioned_solves: int = 0


@dataclass
class EvalReport:
    values: np.ndarray
    uncovered: int  # points no ball covered (handled by nearest-center fallback)


def make_centers(config):
    """Center layout for a config: d Halton points in bases (7, 11, 13), the
    whole cell-centered m^3 lattice with m = ceil(cbrt d), or the explicit
    array given.  The grid never cuts its lattice short, since a partial
    lattice leaves holes its radius cannot cover; a d that is not a cube
    places more than d centers."""
    d = config.subdomain_count
    if config.center_source == "halton":
        return halton.generate(halton.HaltonConfig(d, CENTER_BASES))
    if config.center_source == "grid":
        m = int(math.ceil(np.cbrt(float(d)) - 1e-9))
        g = (np.arange(m) + 0.5) / m
        ww, vv, uu = np.meshgrid(g, g, g, indexing="ij")
        return np.column_stack([uu.ravel(), vv.ravel(), ww.ravel()])
    return as_point_array(config.centers)


def _check_nodes(points, values):
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "node")
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.shape[0] != pts.shape[0]:
        raise ValueError(
            f"{pts.shape[0]} nodes but {vals.shape[0]} values"
        )
    if pts.shape[0] == 0:
        raise ValueError("cannot fit with zero nodes")
    if not np.isfinite(vals).all():
        raise ValueError("node values must be finite")
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    dup = (np.diff(pts[order], axis=0) == 0.0).all(axis=1)
    if dup.any():
        i = int(np.argmax(dup))
        raise ValueError(
            f"node positions must be pairwise distinct; rows {order[i]} and "
            f"{order[i + 1]} coincide"
        )
    return pts, vals


def _build_index(points, radius, search):
    if search == "cube":
        return cube_index.build(points, cube_index.grid_from_radius(radius))
    return cube_index.brute_force_index(points)


def fit_geometry(points, values, config, search="cube"):
    """Capture stage only: validate nodes, place centers, bucket both point
    sets, and record which nodes each ball owns.  The ball count and radius
    come from the centers placed.  A ball that captures no nodes is kept,
    marked in `empty`, and left out of every blend; only a fit whose balls
    are all empty fails.  Coefficients stay unsolved so one geometry can be
    re-solved under many kernels."""
    if search not in SEARCH_MODES:
        raise ValueError(f"search must be one of {SEARCH_MODES}, got {search!r}")
    pts, vals = _check_nodes(points, values)
    centers = make_centers(config)
    ensure_in_unit_cube(centers, "subdomain center")
    d = centers.shape[0]
    if config.center_source == "explicit" and d != config.subdomain_count:
        raise ValueError(f"{d} centers for {config.subdomain_count} subdomains")
    radius = subdomain_radius(d)
    node_index = _build_index(pts, radius, search)
    center_index = _build_index(centers, radius, search)

    rows, node_ids = node_index.query_many(centers, radius)
    bounds = np.searchsorted(rows, np.arange(d + 1))
    empty = bounds[1:] == bounds[:-1]
    if empty.all():
        raise EmptySubdomainError(d)
    subdomains = []
    for j in range(d):
        ids = node_ids[bounds[j]:bounds[j + 1]]
        if config.m_max is not None and ids.size > config.m_max:
            d2 = squared_distances(pts[ids], centers[j])
            keep = np.lexsort((ids, d2))[: config.m_max]  # nearest first, ties to lower id
            ids = np.sort(ids[keep])
        subdomains.append(Subdomain(node_ids=ids))

    return PUModel(
        config=config,
        radius=radius,
        points=pts,
        values=vals,
        centers=centers,
        subdomains=subdomains,
        node_index=node_index,
        center_index=center_index,
        empty=empty,
    )


def refit_kernel(model, kernel):
    """Solve (or re-solve) every local system under `kernel`, reusing the
    captured geometry.  Returns a new model; the input is left untouched."""
    solved = []
    illcond = 0
    for j, sd in enumerate(model.subdomains):
        if model.empty[j]:
            solved.append(sd)
            continue
        local = solve_local(model.points[sd.node_ids], model.values[sd.node_ids],
                            kernel, subdomain_id=j)
        if local.condition_estimate >= ILL_CONDITION_LIMIT:
            illcond += 1
        solved.append(replace(sd, coefficients=local))
    return replace(model, config=replace(model.config, kernel=kernel),
                   subdomains=solved, illconditioned_solves=illcond)


def fit(points, values, config, search="cube"):
    """Capture and solve in one step."""
    return refit_kernel(fit_geometry(points, values, config, search), config.kernel)


def blend_weights(model, points):
    """Unnormalized Shepard weights of the balls that blend at each point.

    Returns (owner, ids, weights, covered): ball ids[t] blends at row
    owner[t] of `points` with weight weights[t], and covered[i] says whether
    a ball that holds nodes covers row i.  The covering balls come from one
    `query_many` call, as runs of ascending ids per row, and empty balls drop
    out.  Every remaining ball weighs 1/distance.  Centers closer than
    COINCIDENT_TOL weigh 1 each and the other covering balls drop out.  An
    uncovered point takes its nearest nonempty center, ties to the lower id,
    with weight 1, in a pair appended after all the covered ones.
    """
    pts = as_point_array(points)
    k = pts.shape[0]
    owner, ids = model.center_index.query_many(pts, model.radius)
    if model.empty.any():
        keep = ~model.empty[ids]
        ids, owner = ids[keep], owner[keep]
    dist = squared_distances(model.centers[ids], pts[owner])
    np.sqrt(dist, out=dist)
    hit = dist < COINCIDENT_TOL
    if hit.any():
        on_center = np.zeros(k, dtype=bool)
        on_center[owner[hit]] = True
        keep = hit | ~on_center[owner]
        ids, owner, dist = ids[keep], owner[keep], np.where(hit, 1.0, dist)[keep]
    weights = 1.0 / dist
    covered = np.bincount(owner, minlength=k) > 0
    if not covered.all():
        lost = np.flatnonzero(~covered)
        nearest = np.empty(lost.size, dtype=np.int64)
        for n, i in enumerate(lost):
            d2 = squared_distances(model.centers, pts[i])
            d2[model.empty] = np.inf
            nearest[n] = np.argmin(d2)
        owner = np.concatenate([owner, lost])
        ids = np.concatenate([ids, nearest])
        weights = np.concatenate([weights, np.ones(lost.size)])
    return owner, ids, weights, covered


def evaluate_report(model, points):
    """Blend the local interpolants at each row of `points`.

    Each block of BLEND_BLOCK points takes its weights from one
    `blend_weights` call.  The (point, subdomain, weight) triples are grouped
    by subdomain with a stable sort, so each local interpolant is evaluated
    once over all the points of the block it serves; num and den accumulate
    in ascending subdomain order and each value is num / den.  The report
    counts the points that no ball holding nodes covered.
    """
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "evaluation point")
    k = pts.shape[0]
    num = np.zeros(k)
    den = np.zeros(k)
    uncovered = 0
    for first in range(0, k, BLEND_BLOCK):
        owner, ids, weights, covered = blend_weights(model, pts[first:first + BLEND_BLOCK])
        uncovered += covered.size - int(np.count_nonzero(covered))
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        weights = weights[order]
        owner = first + owner[order]
        bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), ids.size]
        for s, e in zip(bounds[:-1], bounds[1:]):
            sd = model.subdomains[ids[s]]
            if sd.coefficients is None:
                raise RuntimeError("model geometry has no solved coefficients yet")
            ii, w = owner[s:e], weights[s:e]
            local = local_values(model.config.kernel, model.points[sd.node_ids],
                                 sd.coefficients.coefficients, pts[ii])
            num[ii] += w * local
            den[ii] += w
        # drop this block's pairs before the next block's search and
        # distances allocate theirs, which bounds the peak at one block
        del owner, ids, weights, order
    return EvalReport(values=num / den, uncovered=uncovered)


def evaluate_batch(model, points):
    """Interpolant values at each row of `points`."""
    return evaluate_report(model, points).values


def evaluate(model, p):
    """Interpolant value at a single point."""
    return float(evaluate_batch(model, np.asarray(p, dtype=np.float64).reshape(1, 3))[0])
