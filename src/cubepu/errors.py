"""Exception types shared across the interpolation engine.

The CLI maps these onto exit codes: usage problems -> 1, input data problems
-> 2, numerical/geometry failures -> 3.  Library code raises them directly.
"""


class InterpolationError(Exception):
    """Base class for everything raised intentionally by this package."""


class UsageError(InterpolationError):
    """Malformed command line (unknown flag, bad source string, missing value)."""


class PointFileError(InterpolationError):
    """Unreadable point file row; carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class OutOfDomainError(InterpolationError):
    """A coordinate fell outside the closed unit cube (or was not finite)."""


class RadiusTooLargeError(InterpolationError):
    """Query radius exceeds what the fixed cell halo can answer exactly."""


class EmptySubdomainError(InterpolationError):
    """Every subdomain ball captured zero nodes, so no local system exists.
    (A fit drops single empty balls from the blend.)"""

    def __init__(self, subdomain_count):
        super().__init__(f"all {subdomain_count} subdomains contain no nodes")
        self.subdomain_count = subdomain_count


class SingularSystemError(InterpolationError):
    """A local collocation matrix was numerically singular."""

    def __init__(self, subdomain_id, size):
        where = "local system" if subdomain_id is None else f"subdomain {subdomain_id}"
        super().__init__(f"{where}: singular {size}x{size} collocation matrix")
        self.subdomain_id = subdomain_id
        self.size = size
