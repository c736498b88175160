"""Validation and coercion for points in the closed unit cube.

Everything downstream works on float64 arrays of shape (n, 3).
"""

import numpy as np

from .errors import OutOfDomainError


def as_point_array(points):
    """Coerce point-like input (lists, tuples, arrays) to a (k, 3) float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim == 1:
        if pts.shape != (3,):
            raise ValueError(f"expected a 3-vector, got shape {pts.shape}")
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array of points, got shape {pts.shape}")
    return pts


def ensure_in_unit_cube(pts, what="point"):
    """Validate that every row of pts is finite and inside [0, 1]^3.

    Raises OutOfDomainError naming the first offending row; returns pts
    unchanged so calls can be chained.
    """
    ok = np.isfinite(pts).all(axis=1) & (pts >= 0.0).all(axis=1) & (pts <= 1.0).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise OutOfDomainError(
            f"{what} {i} = {tuple(pts[i])} is outside the closed unit cube"
        )
    return pts
