"""Partition-of-unity interpolation over spherical subdomains.

d subdomain centers cover the unit cube with balls of radius
sqrt(2)/cbrt(d); each ball gets a local RBF interpolant over the nodes it
captures, and the global surface blends the local ones with inverse-distance
(Shepard) weights restricted to the covering balls:

    I(p) = sum_j W_j(p) R_j(p),   sum_j W_j(p) = 1 wherever p is covered.

The same cube-partition search answers both capture (nodes near a center)
and evaluation (centers near a point); a brute-force scan engine is kept as
the reference path.  `blend_weights` gives every evaluation point its
weights, including a point on a center and a point outside every ball, and
`evaluate_report` applies them in one loop that accumulates subdomain
contributions in ascending subdomain order, so results are reproducible bit
for bit across search engines and batch shapes.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cube_index, halton
from .errors import EmptySubdomainError
from .geometry import as_point_array, ensure_in_unit_cube
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
        if self.subdomain_count < 1:
            raise ValueError(
                f"subdomain_count must be >= 1, got {self.subdomain_count}"
            )
        if self.m_max is not None and self.m_max < 1:
            raise ValueError(f"m_max must be >= 1 when given, got {self.m_max}")
        if self.center_source not in ("halton", "grid", "explicit"):
            raise ValueError(f"unknown center source {self.center_source!r}")
        if self.center_source == "explicit" and self.centers is None:
            raise ValueError("center_source='explicit' needs a centers array")


@dataclass
class Subdomain:
    center: np.ndarray            # (3,)
    radius: float
    node_ids: np.ndarray          # ascending original node ids, nonempty
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
    illconditioned_solves: int = 0


@dataclass
class EvalReport:
    values: np.ndarray
    uncovered: int  # points no ball covered (handled by nearest-center fallback)


def make_centers(config):
    """Center layout for a config: Halton points in bases (7, 11, 13), a
    cell-centered lattice truncated to d, or the explicit array given."""
    d = config.subdomain_count
    if config.center_source == "halton":
        return halton.generate(halton.HaltonConfig(d, CENTER_BASES))
    if config.center_source == "grid":
        m = int(math.ceil(np.cbrt(float(d)) - 1e-9))
        g = (np.arange(m) + 0.5) / m
        ww, vv, uu = np.meshgrid(g, g, g, indexing="ij")
        lattice = np.column_stack([uu.ravel(), vv.ravel(), ww.ravel()])
        return lattice[:d]
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
    sets, and record which nodes each ball owns.  Coefficients stay unsolved
    so one geometry can be re-solved under many kernels."""
    if search not in SEARCH_MODES:
        raise ValueError(f"search must be one of {SEARCH_MODES}, got {search!r}")
    pts, vals = _check_nodes(points, values)
    centers = make_centers(config)
    ensure_in_unit_cube(centers, "subdomain center")
    if centers.shape[0] != config.subdomain_count:
        raise ValueError(
            f"{centers.shape[0]} centers for {config.subdomain_count} subdomains"
        )
    radius = subdomain_radius(config.subdomain_count)
    node_index = _build_index(pts, radius, search)
    center_index = _build_index(centers, radius, search)

    subdomains = []
    for j in range(config.subdomain_count):
        ids = node_index.query(centers[j], radius)
        if ids.size == 0:
            raise EmptySubdomainError(j, centers[j])
        if config.m_max is not None and ids.size > config.m_max:
            diff = pts[ids] - centers[j]
            d2 = (diff * diff).sum(axis=1)
            keep = np.lexsort((ids, d2))[: config.m_max]  # nearest first, ties to lower id
            ids = np.sort(ids[keep])
        subdomains.append(Subdomain(center=centers[j], radius=radius, node_ids=ids))

    return PUModel(
        config=config,
        radius=radius,
        points=pts,
        values=vals,
        centers=centers,
        subdomains=subdomains,
        node_index=node_index,
        center_index=center_index,
    )


def refit_kernel(model, kernel):
    """Solve (or re-solve) every local system under `kernel`, reusing the
    captured geometry.  Returns a new model; the input is left untouched."""
    solved = []
    illcond = 0
    for j, sd in enumerate(model.subdomains):
        local = solve_local(model.points[sd.node_ids], model.values[sd.node_ids],
                            kernel, subdomain_id=j)
        if local.condition_estimate >= ILL_CONDITION_LIMIT:
            illcond += 1
        solved.append(replace(sd, coefficients=local))
    return PUModel(
        config=replace(model.config, kernel=kernel),
        radius=model.radius,
        points=model.points,
        values=model.values,
        centers=model.centers,
        subdomains=solved,
        node_index=model.node_index,
        center_index=model.center_index,
        illconditioned_solves=illcond,
    )


def fit(points, values, config, search="cube"):
    """Capture and solve in one step."""
    return refit_kernel(fit_geometry(points, values, config, search), config.kernel)


def blend_weights(model, p):
    """Unnormalized Shepard weights of the balls that blend at the point p.

    Returns (ids, weights, covered) with ids ascending.  Every ball covering
    p weighs 1/distance.  Centers closer than COINCIDENT_TOL weigh 1 each and
    the other covering balls drop out.  An uncovered point (covered False)
    takes its nearest center, ties to the lower id, with weight 1.
    """
    ids = model.center_index.query(p, model.radius)
    if ids.size == 0:
        diff = model.centers - p
        return np.array([np.argmin((diff * diff).sum(axis=1))]), np.ones(1), False
    diff = model.centers[ids] - p
    dist = np.sqrt((diff * diff).sum(axis=1))
    hit = dist < COINCIDENT_TOL
    if hit.any():
        return ids[hit], np.ones(int(hit.sum())), True
    return ids, 1.0 / dist, True


def evaluate_report(model, points):
    """Blend the local interpolants at each row of `points`.

    In each block of BLEND_BLOCK points, the (point, subdomain, weight)
    triples of `blend_weights` are grouped by subdomain with a stable sort,
    so each local interpolant is evaluated once over all the points of the
    block it serves; num and den accumulate in ascending subdomain order and
    each value is num / den.  The report counts the points no ball covered.
    """
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "evaluation point")
    k = pts.shape[0]
    num = np.zeros(k)
    den = np.zeros(k)
    uncovered = 0
    for first in range(0, k, BLEND_BLOCK):
        blends = [blend_weights(model, p) for p in pts[first:first + BLEND_BLOCK]]
        uncovered += sum(not b[2] for b in blends)
        ids = np.concatenate([b[0] for b in blends])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        weights = np.concatenate([b[1] for b in blends])[order]
        owner = first + np.repeat(np.arange(len(blends)), [b[0].size for b in blends])[order]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        for s, e in zip(starts, np.append(starts[1:], ids.size)):
            sd = model.subdomains[ids[s]]
            if sd.coefficients is None:
                raise RuntimeError("model geometry has no solved coefficients yet")
            ii, w = owner[s:e], weights[s:e]
            local = local_values(model.config.kernel, model.points[sd.node_ids],
                                 sd.coefficients.coefficients, pts[ii])
            num[ii] += w * local
            den[ii] += w
    return EvalReport(values=num / den, uncovered=uncovered)


def evaluate_batch(model, points):
    """Interpolant values at each row of `points`."""
    return evaluate_report(model, points).values


def evaluate(model, p):
    """Interpolant value at a single point."""
    return float(evaluate_batch(model, np.asarray(p, dtype=np.float64).reshape(1, 3))[0])
