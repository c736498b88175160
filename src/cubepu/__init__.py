"""Trivariate partition-of-unity RBF interpolation with cube-partition search."""

from .errors import (
    EmptySubdomainError,
    InterpolationError,
    OutOfDomainError,
    PointFileError,
    RadiusTooLargeError,
    SingularSystemError,
    UsageError,
)
from .pu import (
    PUConfig,
    evaluate,
    evaluate_batch,
    evaluate_report,
    fit,
    fit_geometry,
    refit_kernel,
)
from .rbf import KernelSpec

__version__ = "0.1.0"
