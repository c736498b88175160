"""Halton low-discrepancy sequences on the unit cube.

The i-th point (i = 1, 2, ...) takes, in each coordinate, the radical inverse
of i in that coordinate's prime base.  The sequence starts at index 1, which
keeps the origin out of the point set.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import require_int

DEFAULT_BASES = (2, 3, 5)


@dataclass(frozen=True)
class HaltonConfig:
    count: int
    bases: tuple = DEFAULT_BASES

    def __post_init__(self):
        require_int("count", self.count, 0)
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


def _radical_inverse_many(indices, base):
    """Reflect the base-b digits of each nonnegative integer about the radix
    point, adding the digits lowest first."""
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
    idx = np.arange(1, config.count + 1, dtype=np.int64)
    cols = [_radical_inverse_many(idx, b) for b in config.bases]
    return np.column_stack(cols) if config.count else np.empty((0, 3))
