"""Partition-of-unity interpolation over spherical subdomains.

d subdomain centers cover the unit cube with balls of radius
sqrt(2)/cbrt(d).  `PUConfig.centers` places them: "halton" (d Halton
points), "grid" (the whole cell-centered m^3 lattice, m = ceil(cbrt d)), or
an array of exactly d centers, checked when the config is built.  Each ball
gets a local RBF interpolant over the nodes it captures, and the global
surface blends the local ones with inverse-distance (Shepard) weights
restricted to the covering balls:

    I(p) = sum_j W_j(p) R_j(p),   sum_j W_j(p) = 1 wherever p is covered.

One cube-partition index over the centers tells both stages which balls
cover each query point, as (row, id) pairs sorted by ball, then row: capture
asks it for every node in one `query_many` call, and evaluation once per
block of points.  A brute-force scan engine is kept as the reference path.
A ball that captures no nodes stays in the model but never blends.
`blend_weights` gives a block of points its (point, ball, weight) triples,
including points on a center and points outside every ball.
`evaluate_report` evaluates each ball's local interpolant at the points of
the block it serves, one such (ball, points) group at a time when the group
is large and all small groups together in one flat pass, and accumulates
the contributions in ascending subdomain order, so results are reproducible
bit for bit across search engines, batch shapes and the two group paths.
The model keeps every ball's node ids and coefficients back to back in two
flat arrays, and ball j owns the slice offsets[j]:offsets[j + 1] of both:
the per-ball calls read those slices and the flat pass gathers from them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cube_index, halton
from .errors import EmptySubdomainError
from .geometry import as_point_array, ensure_in_unit_cube, require_int, squared_distances
from .rbf import (
    ILL_CONDITION_LIMIT,
    KernelSpec,
    kernel_value,
    local_values,
    solve_local,
)

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

# A group (one ball and the points of a block it serves) whose work, points
# times ball nodes, reaches this count gets its own `local_values` call; all
# smaller groups share one flat pass.  A call carries about 20 us of fixed
# numpy overhead, and the flat pass's gathers cost about 20 ns more per
# element than a call's block (2-vCPU measurements), so the two break even
# near 1000 elements.  A single-point evaluate (about eleven groups of one
# point and ~100 nodes at 35937/4096) runs flat; the groups of a large batch
# (a median of ~2300 at the 11^3 lattice and ~33000 at the 41^3 lattice,
# 4913/512) keep their own calls.
FLAT_GROUP_WORK = 1024

# The flat pass and the uncovered fallback take at most this many distances
# at a time, which bounds their temporaries; a pair whose ball has more sites
# than this makes a chunk of its own.  The chunking changes no bit.
DISTANCE_CHUNK = 1 << 12


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
    # "halton", "grid", or the subdomain_count centers, kept as a tuple of
    # (x, y, z) rows so that configs compare and hash
    centers: str | tuple = "halton"

    def __post_init__(self):
        require_int("subdomain_count", self.subdomain_count, 1)
        if self.m_max is not None:
            require_int("m_max", self.m_max, 1)
        if isinstance(self.centers, str):
            if self.centers not in ("halton", "grid"):
                raise ValueError(f"unknown center source {self.centers!r}")
        else:
            centers = as_point_array(self.centers)
            if centers.shape[0] != self.subdomain_count:
                raise ValueError(
                    f"{centers.shape[0]} centers for {self.subdomain_count} subdomains")
            object.__setattr__(self, "centers", tuple(map(tuple, centers.tolist())))


@dataclass
class PUModel:
    config: PUConfig
    radius: float
    points: np.ndarray   # (n, 3) node positions
    values: np.ndarray   # (n,)
    centers: np.ndarray  # (d, 3)
    center_index: object  # CubeIndex or BruteForceIndex over the centers
    # Every ball's ascending node ids end to end: ball j owns
    # node_ids[offsets[j]:offsets[j + 1]], an empty slice for a ball that
    # captured no nodes, and its coefficients are the same slice of
    # `coefficients`.  `coefficients` and `condition` (each ball's condition
    # estimate, NaN for an empty ball) stay None until the balls are solved.
    node_ids: np.ndarray
    offsets: np.ndarray   # (d + 1,)
    empty: np.ndarray     # (d,) bool, the balls that captured no nodes
    coefficients: np.ndarray | None = None
    condition: np.ndarray | None = None
    illconditioned_solves: int = 0


@dataclass
class EvalReport:
    values: np.ndarray
    uncovered: int  # points no ball covered (handled by nearest-center fallback)


def make_centers(config):
    """Center layout for a config: for "halton", d Halton points in bases
    (7, 11, 13); for "grid", the whole cell-centered m^3 lattice with
    m = ceil(cbrt d); for given centers, their (d, 3) array.  The grid never
    cuts its lattice short, since a partial lattice leaves holes its radius
    cannot cover; a d that is not a cube places more than d centers."""
    d = config.subdomain_count
    if not isinstance(config.centers, str):
        return np.array(config.centers)
    if config.centers == "halton":
        return halton.generate(halton.HaltonConfig(d, CENTER_BASES))
    m = int(math.ceil(np.cbrt(float(d)) - 1e-9))
    g = (np.arange(m) + 0.5) / m
    ww, vv, uu = np.meshgrid(g, g, g, indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel(), ww.ravel()])


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


def fit_geometry(points, values, config, search="cube"):
    """Capture stage only: validate nodes, place and bucket the centers, and
    query every node for the balls that own it.  The ball count and radius
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
    radius = subdomain_radius(d)
    if search == "cube":
        center_index = cube_index.build(centers, cube_index.grid_from_radius(radius))
    else:
        center_index = cube_index.brute_force_index(centers)

    # the pairs come sorted by ball, then node: each ball's ascending node ids
    node_ids, balls = center_index.query_many(pts, radius)
    offsets = np.searchsorted(balls, np.arange(d + 1))
    del balls
    sizes = np.diff(offsets)
    empty = sizes == 0
    if empty.all():
        raise EmptySubdomainError(d)
    m_max = config.m_max
    if m_max is not None and sizes.max() > m_max:
        parts = np.split(node_ids, offsets[1:-1])
        for j in np.flatnonzero(sizes > m_max).tolist():
            ids = parts[j]
            d2 = squared_distances(pts[ids], centers[j])
            keep = np.lexsort((ids, d2))[:m_max]  # nearest first, ties to lower id
            parts[j] = np.sort(ids[keep])
        node_ids = np.concatenate(parts)
        offsets = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.minimum(sizes, m_max), out=offsets[1:])

    return PUModel(
        config=config,
        radius=radius,
        points=pts,
        values=vals,
        centers=centers,
        center_index=center_index,
        node_ids=node_ids,
        offsets=offsets,
        empty=empty,
    )


def refit_kernel(model, kernel):
    """Solve (or re-solve) every nonempty ball's local system under `kernel`,
    reusing the captured geometry.  Returns a new model that shares the
    input's geometry arrays; the input is left untouched."""
    coefficients = np.empty(model.node_ids.size)
    condition = np.full(model.empty.size, np.nan)
    bounds = model.offsets.tolist()
    for j in np.flatnonzero(~model.empty).tolist():
        at = slice(bounds[j], bounds[j + 1])
        ids = model.node_ids[at]
        local = solve_local(model.points[ids], model.values[ids], kernel, subdomain_id=j)
        coefficients[at] = local.coefficients
        condition[j] = local.condition_estimate
    illcond = int(np.count_nonzero(condition >= ILL_CONDITION_LIMIT))
    return replace(model, config=replace(model.config, kernel=kernel),
                   coefficients=coefficients, condition=condition,
                   illconditioned_solves=illcond)


def fit(points, values, config, search="cube"):
    """Capture and solve in one step."""
    return refit_kernel(fit_geometry(points, values, config, search), config.kernel)


def blend_weights(model, points):
    """Unnormalized Shepard weights of the balls that blend at each point.

    Returns (owner, ids, weights, covered): ball ids[t] blends at row
    owner[t] of `points` with weight weights[t], the pairs sorted by ball and
    then by row, and covered[i] says whether a ball that holds nodes covers
    row i.  The covering balls come from one `query_many` call, and empty
    balls drop out.  Every remaining ball weighs 1/distance.  Centers closer
    than COINCIDENT_TOL weigh 1 each and the other covering balls drop out.
    An uncovered point takes its nearest nonempty center, ties to the lower
    id, with weight 1, in a pair merged into the ball order; the distances to
    every center are taken for DISTANCE_CHUNK of them at a time.
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
        step = max(1, DISTANCE_CHUNK // model.centers.shape[0])
        for s in range(0, lost.size, step):
            d2 = squared_distances(model.centers, pts[lost[s:s + step], None, :])
            d2[:, model.empty] = np.inf
            nearest[s:s + step] = d2.argmin(axis=1)  # the first minimum: ties to the lower id
        owner = np.concatenate([owner, lost])
        ids = np.concatenate([ids, nearest])
        weights = np.concatenate([weights, np.ones(lost.size)])
        order = np.argsort(ids * k + owner)  # merge the new pairs into ball order
        owner, ids, weights = owner[order], ids[order], weights[order]
    return owner, ids, weights, covered


def evaluate_report(model, points):
    """Blend the local interpolants at each row of `points`.

    Each block of BLEND_BLOCK points takes its weights from one
    `blend_weights` call, whose (point, subdomain, weight) triples come
    sorted by subdomain, and `_pair_values` evaluates each local interpolant
    at the points of the block it serves; num and den are then summed per
    point in that order, ascending subdomain, and each value is num / den.
    The report counts the points that no ball holding nodes covered.
    """
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "evaluation point")
    if model.coefficients is None:
        raise RuntimeError("model geometry has no solved coefficients yet")
    k = pts.shape[0]
    values = np.empty(k)
    uncovered = 0
    for first in range(0, k, BLEND_BLOCK):
        block = pts[first:first + BLEND_BLOCK]
        owner, ids, weights, covered = blend_weights(model, block)
        uncovered += covered.size - int(np.count_nonzero(covered))
        local = _pair_values(model, block, owner, ids)
        local *= weights
        # bincount adds in pair order, so each point sums ascending subdomain
        num = np.bincount(owner, local, minlength=block.shape[0])
        den = np.bincount(owner, weights, minlength=block.shape[0])
        np.divide(num, den, out=values[first:first + BLEND_BLOCK])
        # drop this block's pairs before the next block's search and
        # distances allocate theirs, which bounds the peak at one block
        del owner, ids, weights, local
    return EvalReport(values=values, uncovered=uncovered)


def _pair_values(model, pts, owner, ids):
    """R_ids[t](pts[owner[t]]) for every pair t, the pairs sorted by ball.

    A group whose work (points times ball nodes) reaches FLAT_GROUP_WORK gets
    one `local_values` call.  The pairs of all smaller groups go through one
    flat pass over their (pair, site) elements, DISTANCE_CHUNK at a time:
    gather sites and coefficients, distances as sqrt(squared_distances),
    which equals `cdist` bit for bit, one `kernel_value` call, the
    coefficient products, and a row sum.  The pairs are ordered by site count
    first, so each run of equal-length rows sums as one (rows, m) block, with
    numpy's pairwise sum per row as in `local_values`; both paths give every
    pair the same bits.
    """
    kernel, offsets = model.config.kernel, model.offsets
    local = np.empty(ids.size)
    first = offsets[ids]
    m = offsets[ids + 1] - first  # sites of each pair's ball
    served = np.bincount(ids)  # points each ball serves
    big = served[ids] * m >= FLAT_GROUP_WORK
    if big.any():
        starts = np.flatnonzero(big & np.concatenate([[True], ids[1:] != ids[:-1]]))
        for s, e, lo, n in zip(starts.tolist(), (starts + served[ids[starts]]).tolist(),
                               first[starts].tolist(), m[starts].tolist()):
            local[s:e] = local_values(kernel, model.points[model.node_ids[lo:lo + n]],
                                      model.coefficients[lo:lo + n], pts[owner[s:e]])
        if big.all():
            return local

    small = np.flatnonzero(~big)
    small = small[np.argsort(m[small], kind="stable")]  # equal lengths side by side
    step = max(1, DISTANCE_CHUNK // int(m[small[-1]]))
    for a in range(0, small.size, step):
        t = small[a:a + step]
        mt = m[t]
        stops = np.cumsum(mt)  # where each row ends in the chunk
        # each element's slot in the flat layout: its ball's first slot plus
        # its place in the row
        slot = np.repeat(first[t] - stops + mt, mt)
        slot += np.arange(slot.size)
        r = squared_distances(model.points.take(model.node_ids[slot], axis=0),
                              pts.take(np.repeat(owner[t], mt), axis=0))
        np.sqrt(r, out=r)
        phi = kernel_value(kernel, r)
        phi *= model.coefficients[slot]
        sums = np.empty(t.size)
        runs = [0, *(np.flatnonzero(mt[1:] != mt[:-1]) + 1).tolist(), t.size]
        stops, mt = stops.tolist(), mt.tolist()
        for s, e in zip(runs[:-1], runs[1:]):
            rows = phi[stops[s] - mt[s]:stops[e - 1]].reshape(e - s, mt[s])
            np.add.reduce(rows, axis=1, out=sums[s:e])
        local[t] = sums
    return local


def evaluate_batch(model, points):
    """Interpolant values at each row of `points`."""
    return evaluate_report(model, points).values


def evaluate(model, p):
    """Interpolant value at a single point."""
    return float(evaluate_batch(model, np.asarray(p, dtype=np.float64).reshape(1, 3))[0])
