"""Exception types shared across the package."""


class SposchurError(Exception):
    """Base class for all package-specific errors."""


class DivergentNormalization(SposchurError):
    """The partition-function series of a measure fails its summability condition."""


class CutoffTooSmall(SposchurError):
    """Adaptive brute-force enumeration did not stabilize within its partition budget."""


class ContourViolation(SposchurError):
    """Requested contour radii conflict with the pole/zero structure of the symbol."""


class QuadratureNotConverged(SposchurError):
    """Doubling the quadrature node count failed to stabilize the result."""


class TruncationInsufficient(SposchurError):
    """A Fredholm truncation window's tail bound exceeds the requested tolerance,
    or its kernel entries are too large for a finite section to resolve."""


class DomainTooLarge(SposchurError):
    """Argument outside the validated evaluation domain of a special function."""
