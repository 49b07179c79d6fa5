"""Exception types in two families: the CLI exits 2 on InvalidInput, 4 on NumericalFailure."""


class SpinHvError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(SpinHvError, ValueError):
    """An input the computation does not accept; the CLI exits 2."""


class InfeasibleSpin(InvalidInput):
    """A computation needs magnitude-conserving assignments but none exist."""


class NonFiniteMatrix(InvalidInput):
    """A coefficient matrix, correlation point or state contains NaN or infinite entries."""


class UnsupportedSpin(InvalidInput):
    """A spin magnitude is not positive, or lies outside the supported operator range."""


class DimensionMismatch(InvalidInput):
    """A state not square, C not 3x3, a point not nine entries, or LP A and b unequal."""


class NotARotation(InvalidInput):
    """A coefficient matrix was required to be a proper rotation but is not."""


class NumericalFailure(SpinHvError):
    """A self-check failed on accepted input; the CLI exits 4."""


class EigensolverFailure(NumericalFailure):
    """An eigenvalue or unitarity residual exceeded its tolerance."""


class LpNumericalFailure(NumericalFailure):
    """The simplex could not certify feasibility or infeasibility at tolerance."""


class BoundCheckFailure(NumericalFailure):
    """A classical bound failed its witness or ordering check, or its scan overflowed."""
