"""Uniform cube partition of [0, 1]^3 with fixed-radius neighbor queries.

The unit cube is split into q^3 cells of side 1/q.  Points are bucketed by
cell and stored as one permutation array ordered by (cell_w, cell_v, cell_u),
with begin/end offsets per cell, so a query inspects at most the 3^3 = 27
cells around its own and reads each (w, v)-run of cells as a single
contiguous slice.

Choosing q = floor(1/radius) (never rounding up) keeps cube_side >= radius,
which is what makes the one-cell halo sufficient: every point within `radius`
of a query center lies in the center's cell or one of its 26 face/edge/corner
neighbors.  The rounded-up count is kept alongside for benchmark reporting.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGridWarning, RadiusTooLargeError
from .geometry import as_point_array, ensure_in_unit_cube


@dataclass(frozen=True)
class GridParams:
    cube_side: float
    q: int
    q_ceil: int | None = None  # rounded-up cell count, for table reporting only

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not self.cube_side > 0.0:
            raise ValueError(f"cube_side must be positive, got {self.cube_side}")


def grid_from_radius(radius):
    """Pick grid parameters so that a radius-`radius` query is answered by the
    one-cell halo exactly.

    q = floor(1/radius), clamped to >= 1 and nudged down if floating-point
    rounding ever left 1/q below the radius.  A radius above 1 degenerates to
    a single cell (every query scans everything); that is legal but worth a
    warning.
    """
    radius = float(radius)
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    inv = 1.0 / radius
    q = max(1, int(math.floor(inv + 1e-12)))
    while q > 1 and 1.0 / q < radius:
        q -= 1
    q_ceil = max(q, int(math.ceil(inv)))
    if radius > 1.0:
        warnings.warn(
            f"radius {radius} spans the whole unit cube; grid degenerates to one cell",
            DegenerateGridWarning,
            stacklevel=2,
        )
    return GridParams(cube_side=1.0 / q, q=q, q_ceil=q_ceil)


def _cells0(params, pts):
    """0-based integer cell coordinates for each row of pts (coordinate 1.0
    clamps into the last cell)."""
    scaled = np.floor(pts * params.q).astype(np.int64)
    return np.minimum(scaled, params.q - 1)


def _halo(params, cell):
    """Inclusive 0-based (first, last) corners of the one-cell halo around
    `cell`, clamped to the grid."""
    return np.maximum(cell - 1, 0), np.minimum(cell + 1, params.q - 1)


@dataclass
class CubeIndex:
    """Cube-bucketed point set.  Treat all arrays as read-only after build."""

    params: GridParams
    points: np.ndarray        # (n, 3) float64
    permutation: np.ndarray   # (n,) original ids, grouped by cell in (w, v, u) order
    cell_offsets: np.ndarray  # (q^3 + 1,) begin/end positions per flattened cell

    def query(self, center, radius):
        """Ids of all stored points within `radius` (inclusive) of `center`,
        ascending.

        Exactness requires the halo to reach the whole ball: either
        radius <= cube_side, or the clamped halo already spans every cell
        (the degenerate small-q case).  Anything else raises.
        """
        params = self.params
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        c = as_point_array(center)
        ensure_in_unit_cube(c, "query center")
        q = params.q
        lo, hi = _halo(params, _cells0(params, c)[0])
        if radius > params.cube_side:
            spans_all = (lo == 0).all() and (hi == q - 1).all()
            if not spans_all:
                raise RadiusTooLargeError(
                    f"radius {radius} exceeds cube_side = {params.cube_side}; "
                    f"halo would miss points"
                )

        offs = self.cell_offsets
        perm = self.permutation
        runs = []
        for w in range(lo[2], hi[2] + 1):
            for v in range(lo[1], hi[1] + 1):
                base = (w * q + v) * q
                runs.append(perm[offs[base + lo[0]]: offs[base + hi[0] + 1]])
        cand = np.concatenate(runs)
        if cand.size == 0:
            return cand
        diff = self.points[cand] - c[0]
        inside = (diff * diff).sum(axis=1) <= radius * radius
        out = cand[inside]
        out.sort()
        return out


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
    and as the plain-scan engine behind --no-cube.
    """

    points: np.ndarray

    def query(self, center, radius):
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        c = as_point_array(center)
        ensure_in_unit_cube(c, "query center")
        diff = self.points - c[0]
        inside = (diff * diff).sum(axis=1) <= radius * radius
        return np.flatnonzero(inside).astype(np.int64)


def brute_force_index(points):
    """Validate points and wrap them in a BruteForceIndex."""
    pts = as_point_array(points)
    ensure_in_unit_cube(pts, "point")
    return BruteForceIndex(points=pts)
