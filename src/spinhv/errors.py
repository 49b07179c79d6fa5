"""Exception types shared across the package."""


class SpinHvError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleSpin(SpinHvError):
    """A computation needs magnitude-conserving assignments but none exist."""


class NonFiniteMatrix(SpinHvError):
    """A coefficient matrix contains NaN or infinite entries."""


class UnsupportedSpin(SpinHvError):
    """A spin magnitude lies outside the supported operator range."""


class EigensolverFailure(SpinHvError):
    """An eigenvalue or unitarity residual exceeded its tolerance."""


class DimensionMismatch(SpinHvError):
    """Operator and state dimensions disagree."""


class NotARotation(SpinHvError):
    """A coefficient matrix was required to be a proper rotation but is not."""


class LpNumericalFailure(SpinHvError):
    """The simplex could not certify feasibility or infeasibility at tolerance."""


class BoundCheckFailure(SpinHvError):
    """A classical bound failed its witness or ordering check, or its scan overflowed."""
