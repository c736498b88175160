"""Reference values and correctness checks computed apart from cubepu.

Nothing here imports cubepu: the test field, the lattices, the Halton
sequence used for reference centers and query points, and the brute-force
covering-ball search are written out again so that a fault in the program
cannot also hide in the check that is meant to catch it.
"""

import math

import numpy as np


def f1(points):
    """The test field f1 (four exponential bumps) at each row of an (n, 3) array."""
    p = np.asarray(points, dtype=np.float64)
    x, y, z = 9.0 * p[:, 0], 9.0 * p[:, 1], 9.0 * p[:, 2]
    return (0.75 * np.exp(-((x - 2) ** 2 + (y - 2) ** 2 + (z - 2) ** 2) / 4)
            + 0.75 * np.exp(-((x + 1) ** 2) / 49 - (y + 1) / 10 - (z + 1) / 10)
            + 0.5 * np.exp(-((x - 7) ** 2 + (y - 3) ** 2 + (z - 5) ** 2) / 4)
            - 0.2 * np.exp(-((x - 4) ** 2) - (y - 7) ** 2 - (z - 5) ** 2))


def lattice(side):
    """The side^3 vertex lattice {i / (side - 1)}^3 as an (side^3, 3) array."""
    g = np.arange(side, dtype=np.float64) / (side - 1)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


def halton(count, bases):
    """Halton points 1..count in the given prime bases, by digit reversal."""
    idx = np.arange(1, count + 1, dtype=np.int64)
    cols = []
    for b in bases:
        rem = idx.copy()
        col = np.zeros(count)
        scale = 1.0 / b
        while rem.any():
            rem, digit = np.divmod(rem, b)
            col += digit * scale
            scale /= b
        cols.append(col)
    return np.column_stack(cols)


def subdomain_radius(count):
    """The paper's covering radius sqrt(2) / cbrt(d)."""
    return math.sqrt(2.0) / count ** (1.0 / 3.0)


def covering_ids(centers, radius, point):
    """Ascending ids of the centers within `radius` of `point`, by scanning all."""
    diff = centers - point
    return np.flatnonzero((diff * diff).sum(axis=1) <= radius * radius)


def inside_some_ball(points, centers, radius):
    """Which points lie inside at least one ball, with a relative margin of
    1e-9 so that rounding cannot make a point on a sphere count as inside."""
    d2 = ((points * points).sum(axis=1)[:, None] + (centers * centers).sum(axis=1)[None, :]
          - 2.0 * points @ centers.T)
    return (d2 <= radius * radius * (1.0 - 1e-9)).any(axis=1)


def errors(values, truth):
    """(rmse, max abs error) of values against truth."""
    err = np.asarray(values, dtype=np.float64) - truth
    return math.sqrt(float(np.mean(err * err))), float(np.max(np.abs(err)))


# ----------------------------------------------------------------- checks
# Each check returns a list of failure messages; an empty list is a pass.

def check_accuracy(rmse, max_err, rmse_tol, max_err_tol):
    out = []
    if not rmse <= rmse_tol:
        out.append(f"rmse {rmse:.3e} exceeds {rmse_tol:.1e}")
    if not max_err <= max_err_tol:
        out.append(f"max error {max_err:.3e} exceeds {max_err_tol:.1e}")
    return out


def check_reproduction(interpolated, data, tol, label=""):
    """The interpolant must return the data at the nodes."""
    worst = float(np.max(np.abs(np.asarray(interpolated) - data)))
    if not worst <= tol:
        return [f"{label}node reproduction error {worst:.3e} exceeds {tol:.1e}"]
    return []


def check_cover(found, centers, radius, points):
    """`found[i]` are the ball ids the program reports for points[i]."""
    out = []
    for i, p in enumerate(points):
        want = covering_ids(centers, radius, p)
        got = np.asarray(found[i], dtype=np.int64)
        if not np.array_equal(np.sort(got), want):
            out.append(f"covering balls of {tuple(p)}: got {got.tolist()}, "
                       f"brute force {want.tolist()}")
    return out


def check_geometry(centers, radius, ref_centers, ref_radius):
    """Centers and radius must follow the paper's layout."""
    out = []
    if centers.shape != ref_centers.shape or not np.allclose(
            centers, ref_centers, rtol=0.0, atol=1e-12):
        out.append("subdomain centers differ from Halton points in bases 7, 11, 13")
    if not abs(radius - ref_radius) <= 1e-12:
        out.append(f"radius {radius!r} differs from sqrt(2)/cbrt(d) = {ref_radius!r}")
    return out


def check_bitwise(singles, batch):
    """Single-point values must equal batch values bit for bit."""
    a = np.asarray(singles, dtype=np.float64)
    b = np.asarray(batch, dtype=np.float64)
    if a.shape != b.shape:
        return [f"{a.size} single-point values against {b.size} batch values"]
    bad = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} single-point values differ from the batch; "
                f"first at query {i}: {a[i]!r} != {b[i]!r}"]
    return []
