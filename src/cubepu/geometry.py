"""Validation and coercion for points in the closed unit cube, the one
integer-argument check the config types share, and the one squared-distance
routine that search and blend share.

Everything downstream works on float64 arrays of shape (n, 3).
"""

import numbers

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
    # NaN fails both comparisons, and infinities fail one
    ok = ((pts >= 0.0) & (pts <= 1.0)).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise OutOfDomainError(
            f"{what} {i} = {tuple(pts[i])} is outside the closed unit cube"
        )
    return pts


def require_int(name, value, least):
    """Raise ValueError naming `name` unless `value` is an integer (Python or
    numpy, but not a bool) of at least `least`."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def squared_distances(a, b):
    """Squared Euclidean distances between the 3-vectors of `a` and `b`,
    broadcast against each other over every axis but the last.

    The sum runs one coordinate at a time, ((dx^2 + dy^2) + dz^2), with
    in-place operations: the order numpy's sum over a length-3 axis uses, so
    the result equals `(diff * diff).sum(axis=-1)` bit for bit, without a
    reduction over a strided axis or a (..., 3) temporary.
    """
    diff = np.subtract(a[..., 0], b[..., 0])
    out = diff * diff
    for i in (1, 2):
        np.subtract(a[..., i], b[..., i], out=diff)
        diff *= diff
        out += diff
    return out
