"""Halton low-discrepancy sequences on the unit cube.

The d-th point uses the radical inverse of its index in a fixed prime base
per coordinate.  Starting the sequence at index 1 (the default) keeps the
origin out of the point set.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_BASES = (2, 3, 5)


@dataclass(frozen=True)
class HaltonConfig:
    count: int
    bases: tuple = DEFAULT_BASES
    start_index: int = 1

    def __post_init__(self):
        for name in ("count", "start_index"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if len(self.bases) != 3:
            raise ValueError(f"need one base per coordinate, got {self.bases}")
        if any(b < 2 for b in self.bases):
            raise ValueError(f"bases must be >= 2, got {self.bases}")
        for i in range(3):
            for j in range(i + 1, 3):
                if math.gcd(self.bases[i], self.bases[j]) != 1:
                    raise ValueError(
                        f"bases must be pairwise coprime, got {self.bases}"
                    )


def radical_inverse(index, base):
    """Reflect the base-b digits of a nonnegative integer about the radix point."""
    inv = 0.0
    denom = 1.0
    while index > 0:
        denom *= base
        index, digit = divmod(index, base)
        inv += digit / denom
    return inv


def _radical_inverse_many(indices, base):
    """Vectorized radical inverse; digit-by-digit, same accumulation order as
    the scalar loop so the results agree bit for bit."""
    rem = np.asarray(indices, dtype=np.int64).copy()
    inv = np.zeros(rem.shape, dtype=np.float64)
    denom = 1.0
    while rem.any():
        denom *= base
        rem, digit = np.divmod(rem, base)
        inv += digit / denom
    return inv


def generate(config):
    """The Halton point set for config, as a (count, 3) array in [0, 1)^3."""
    idx = np.arange(
        config.start_index, config.start_index + config.count, dtype=np.int64
    )
    cols = [_radical_inverse_many(idx, b) for b in config.bases]
    return np.column_stack(cols) if config.count else np.empty((0, 3))
