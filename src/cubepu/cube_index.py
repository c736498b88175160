"""Uniform cube partition of [0, 1]^3 with fixed-radius neighbor queries.

The unit cube is split into q^3 cells of side 1/q.  Points are bucketed by
cell and stored as one permutation array ordered by (cell_w, cell_v, cell_u),
with begin/end offsets per cell, so a query inspects at most the 3^3 = 27
cells around its own and reads each (w, v)-run of cells as a single
contiguous slice.  A fit builds one index, over its subdomain centers.

The search is batched: `query_many(queries, radius)` answers a whole array
of queries as (row, id) pairs sorted by id, then row.  It groups the queries
by cell, because every query in a cell shares one halo, so the work per
occupied cell is one halo read and one distance block rather than one Python
call per query.  `query(center, radius)` is its one-row form.

A hit is a stored point whose squared distance, summed one coordinate at a
time as ((dx^2 + dy^2) + dz^2) by `geometry.squared_distances`, is at most
radius^2.  The scan engine compares with the same routine, so the two
engines agree on every pair, ties on the sphere included.

Choosing q = floor(1/radius) (never rounding up) keeps cube_side >= radius,
which is what makes the one-cell halo sufficient: every point within `radius`
of a query center lies in the center's cell or one of its 26 face/edge/corner
neighbors.  The rounded-up count is kept alongside for benchmark reporting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RadiusTooLargeError
from .geometry import as_point_array, ensure_in_unit_cube, require_int, squared_distances


@dataclass(frozen=True)
class GridParams:
    q: int
    q_ceil: int | None = None  # rounded-up cell count, for table reporting only

    def __post_init__(self):
        require_int("q", self.q, 1)

    @property
    def cube_side(self):
        return 1.0 / self.q


def grid_from_radius(radius):
    """Pick grid parameters so that a radius-`radius` query is answered by the
    one-cell halo exactly.

    q = floor(1/radius), clamped to >= 1 and nudged down if floating-point
    rounding ever left 1/q below the radius.  Every radius above 1/2 gives
    q = 1, a single cell that every query scans whole: at the paper's radius
    sqrt(2)/cbrt(d) that is every d <= 22.  The search stays exact there.
    """
    radius = float(radius)
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    inv = 1.0 / radius
    q = max(1, int(math.floor(inv + 1e-12)))
    while q > 1 and 1.0 / q < radius:
        q -= 1
    return GridParams(q=q, q_ceil=math.ceil(inv))  # q_ceil is never below q


def _cells0(params, pts):
    """0-based integer cell coordinates for each row of pts (coordinate 1.0
    clamps into the last cell)."""
    scaled = np.floor(pts * params.q).astype(np.int64)
    return np.minimum(scaled, params.q - 1)


def _halo(params, cell):
    """Inclusive 0-based (first, last) corners of the one-cell halo around
    `cell`, clamped to the grid."""
    return np.maximum(cell - 1, 0), np.minimum(cell + 1, params.q - 1)


# A distance block compares at most about this many (query, point) pairs,
# which bounds its memory when few cells hold many queries and points.
_BLOCK_PAIRS = 1 << 16
_NO_IDS = np.zeros(0, dtype=np.int64)


@dataclass
class CubeIndex:
    """Cube-bucketed point set.  Treat all arrays as read-only after build."""

    params: GridParams
    points: np.ndarray        # (n, 3) float64
    permutation: np.ndarray   # (n,) original ids, grouped by cell in (w, v, u) order
    cell_offsets: np.ndarray  # (q^3 + 1,) begin/end positions per flattened cell

    def query(self, center, radius):
        """Ids of all stored points within `radius` (inclusive) of `center`,
        ascending: the one-row form of `query_many`."""
        return self._search(_one_row(center), radius)[1]

    def query_many(self, centers, radius):
        """Fixed-radius hits of every row of `centers`, as (row, id) pairs.

        Returns (rows, ids): ids[t] is a stored point within `radius`
        (inclusive) of row rows[t].  The pairs are sorted by id and then by
        row, so the rows one stored point serves form one run.  The batch is
        validated once, and the queries are grouped by cell, so each occupied
        cell reads its 27-cell halo once and compares all of its queries with
        the halo's points in one distance block.

        Exactness requires the halo to reach the whole ball: either
        radius <= cube_side, or the clamped halo already spans every cell
        (the degenerate small-q case).  A batch with any other row raises.
        """
        return self._search(as_point_array(centers), radius)

    def _search(self, c, radius):
        # query and query_many share this body rather than calling each
        # other, so a tracer wrapping both records one span per call.
        params = self.params
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        ensure_in_unit_cube(c, "query center")
        q, k = params.q, c.shape[0]
        cells = _cells0(params, c)
        flat = cells @ np.array([1, q, q * q])  # (w, v, u) cell rank
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        # each occupied cell's queries are order[bounds[i]:bounds[i + 1]]
        bounds = [0, *(np.flatnonzero(flat[1:] != flat[:-1]) + 1).tolist(), k] if k else [0]
        lo, hi = _halo(params, cells[order[bounds[:-1]]])  # one halo per occupied cell
        del cells, flat  # freed before the pairs accumulate, which lowers the peak
        if radius > params.cube_side and not ((lo == 0) & (hi == q - 1)).all():
            raise RadiusTooLargeError(
                f"radius {radius} exceeds cube_side = {params.cube_side}; "
                f"halo would miss points"
            )

        keys = [_NO_IDS]  # id * k + row of each pair, one array per distance block
        r2 = radius * radius
        for s, e, first, last in zip(bounds[:-1], bounds[1:], lo.tolist(), hi.tolist()):
            cand = self._halo_points(first, last)
            if cand.size == 0:
                continue
            sites = self.points[cand]
            step = max(1, _BLOCK_PAIRS // cand.size)
            for b in range(s, e, step):
                block = order[b:min(b + step, e)]
                d2 = squared_distances(sites, c[block, None, :])
                row, hit = np.nonzero(d2 <= r2)
                keys.append(cand[hit] * k + block[row])
        keys = np.concatenate(keys)  # frees the blocks before the sort
        return _pairs(keys, k)

    def _halo_points(self, lo, hi):
        """Ids stored in the cells from corner `lo` to corner `hi`
        (inclusive, (u, v, w) lists), in cell order."""
        q, offs = self.params.q, self.cell_offsets
        runs = []
        for w in range(lo[2], hi[2] + 1):
            for v in range(lo[1], hi[1] + 1):
                base = (w * q + v) * q
                runs.append(self.permutation[offs[base + lo[0]]: offs[base + hi[0] + 1]])
        return np.concatenate(runs)


def _pairs(keys, k):
    """(rows, ids) of the pairs keyed id * k + row.  Sorting the keys in place
    sorts the pairs by id, then row, with no second copy of them."""
    keys.sort()
    ids = keys // k
    return np.remainder(keys, k, out=keys), ids


def _one_row(center):
    c = as_point_array(center)
    if c.shape[0] != 1:
        raise ValueError(f"query takes one center, got {c.shape[0]}; use query_many")
    return c


def build(points, params):
    """Bucket `points` (validated to lie in the closed unit cube) by cell.

    The permutation is a stable sort on the flattened (w, v, u) cell rank, so
    ids inside a cell keep their original relative order and rebuilding from
    the same input reproduces the structure exactly.
    """
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "point")
    q = params.q
    cells = _cells0(params, pts)
    flat = (cells[:, 2] * q + cells[:, 1]) * q + cells[:, 0]
    perm = np.argsort(flat, kind="stable").astype(np.int64)
    counts = np.bincount(flat, minlength=q ** 3)
    offsets = np.zeros(q ** 3 + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CubeIndex(params=params, points=pts, permutation=perm, cell_offsets=offsets)


@dataclass
class BruteForceIndex:
    """Same query contract as CubeIndex, by scanning every stored point.

    Kept as the reference path for benchmarking the cube structure against,
    and as the plain-scan engine that compare-search runs: `query_many` is a
    plain loop of per-row scans.
    """

    points: np.ndarray

    def query(self, center, radius):
        return self.query_many(_one_row(center), radius)[1]

    def query_many(self, centers, radius):
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        c = ensure_in_unit_cube(as_point_array(centers), "query center")
        hits = [self._scan(p, radius) for p in c]
        keys = np.concatenate([_NO_IDS, *hits]) * len(hits)
        keys += np.repeat(np.arange(len(hits)), [h.size for h in hits])
        return _pairs(keys, len(hits))

    def _scan(self, p, radius):
        inside = squared_distances(self.points, p) <= radius * radius
        return np.flatnonzero(inside).astype(np.int64)


def brute_force_index(points):
    """Validate points and wrap them in a BruteForceIndex."""
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "point")
    return BruteForceIndex(points=pts)
