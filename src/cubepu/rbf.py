"""Radial kernels and the dense local interpolation solves.

Three strictly positive definite radial families, each parametrized by a
single shape value a > 0 acting on r = ||x - y||_2:

    g   gaussian             exp(-(a r)^2)
    m4  matern, C^4 flavor   exp(-a r) ((a r)^2 + 3 a r + 3)        phi(0) = 3
    w4  wendland, C^4 flavor (1 - a r)_+^6 (35 (a r)^2 + 18 a r + 3) phi(0) = 3

The matern kernel is used unnormalized (phi(0) = 3 rather than 1); scaling a
kernel by a constant rescales the coefficients and leaves the interpolant
unchanged, so nothing downstream cares.  The wendland kernel has compact
support of radius 1/a.  It is evaluated without pow: t = (1 - a r)_+ is
raised to the sixth power as (t^2 t)^2, and the polynomial runs in Horner
form ((35 a r + 18) a r + 3).  Its values can differ by a few ulps from the
textbook expression, since pow rounds once where the products round several
times; g and m4 are written as above.

Local systems solve phi(||x_i - x_k||) c = f with a Cholesky factorization
first (every family is positive definite, so symmetry is worth exploiting)
and a pivoted LU as the fallback when rounding has pushed a nearly singular
matrix off the cone.  One step of iterative refinement with the saved factor
tightens the residual at O(m^2) extra cost.  The condition estimate reuses
the factorization for a LAPACK 1-norm reciprocal-condition estimate: a cheap
diagnostic for flagging bad systems, not a guarantee.

Sites, values and coefficients travel as plain arrays; `local_values` is the
one evaluator of a solved local interpolant.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import LinAlgWarning, cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon, dpocon
from scipy.spatial.distance import cdist

from .errors import SingularSystemError

KERNEL_FAMILIES = ("g", "m4", "w4")

# Factor-diagonal condition estimates at or above this count as ill-conditioned.
ILL_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class KernelSpec:
    family: str
    shape: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        if not isinstance(self.shape, numbers.Real) or isinstance(self.shape, bool):
            raise ValueError(f"shape parameter must be a real number, got {self.shape!r}")
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise ValueError(
                f"shape parameter must be positive and finite, got {self.shape}"
            )


def kernel_value(spec, r):
    """phi(r) for scalar or array r >= 0; shape of r is preserved."""
    r = np.asarray(r, dtype=np.float64)
    ar = spec.shape * (r if r.ndim else r.reshape(1))  # an array, for out=
    if spec.family == "g":
        out = np.exp(-(ar * ar))
    elif spec.family == "m4":
        out = np.exp(-ar) * (ar * ar + 3.0 * ar + 3.0)
    else:
        # numpy sends ** 6 through libm pow, which costs more than the three
        # products; everything runs in place on two temporaries
        t = np.subtract(1.0, ar)
        np.maximum(t, 0.0, out=t)
        out = t * t
        out *= t
        out *= out
        t = ar * 35.0
        t += 18.0
        t *= ar
        t += 3.0
        out *= t
    return out if r.ndim else float(out[0])


@dataclass(frozen=True)
class LocalCoefficients:
    coefficients: np.ndarray
    condition_estimate: float


def assemble(points, kernel):
    """The m x m collocation matrix phi(||x_i - x_k||) over the rows of points."""
    return kernel_value(kernel, cdist(points, points))


def solve_local(points, values, kernel, subdomain_id=None):
    """Solve the collocation system at sites `points` for `values`, Cholesky
    first, pivoted LU on failure.

    Raises SingularSystemError when even the LU route yields a zero pivot or
    non-finite coefficients.  Ill-conditioned-but-solvable systems pass
    through; callers decide what to do with the condition estimate.
    """
    phi = assemble(points, kernel)
    m = phi.shape[0]
    anorm = np.abs(phi).sum(axis=0).max()
    try:
        fac = cho_factor(phi, lower=False, check_finite=False)
        rcond, _ = dpocon(fac[0], anorm)  # uplo defaults to the upper factor
        solve = lambda rhs: cho_solve(fac, rhs, check_finite=False)
    except LinAlgError:
        with warnings.catch_warnings():
            # a zero pivot becomes our typed error below; the warning is noise
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(phi, check_finite=False)
        if np.abs(np.diag(lu)).min() == 0.0:
            raise SingularSystemError(subdomain_id, m) from None
        rcond, _ = dgecon(lu, anorm)  # 1-norm
        solve = lambda rhs: lu_solve((lu, piv), rhs, check_finite=False)
    cond = float(1.0 / rcond) if rcond > 0.0 else float("inf")
    coeffs = solve(values)
    coeffs = coeffs + solve(values - phi @ coeffs)  # one refinement step
    if not np.isfinite(coeffs).all():
        raise SingularSystemError(subdomain_id, m)
    return LocalCoefficients(coefficients=coeffs, condition_estimate=cond)


def local_values(kernel, sites, coefficients, pts):
    """The local interpolant sum_k c_k phi(||p - x_k||) at each row of pts.

    The kernel block is weighted by the coefficients in place and reduced
    row by row (not by a BLAS matvec), which keeps each row's result
    independent of how many other rows share the batch, so scalar and batch
    evaluation agree bit for bit.  `pu.evaluate_report` calls this for each
    large (ball, points) group and reproduces it bit for bit for the small
    ones in a flat pass: the same distances as sqrt(squared_distances), the
    same kernel and products, and the same pairwise sum of each row.
    """
    k = kernel_value(kernel, cdist(pts, sites))
    k *= coefficients
    return k.sum(axis=1)
