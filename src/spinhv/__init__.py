"""Hidden-variable models of spin with magnitude conservation.

Feasibility of conserving assignments for arbitrary spin, classical and
quantum bounds of bilinear correlation inequalities, singlet and rotation
constructions, and LP membership in the correlation polytopes.
"""

from .assignments import (
    enumerate_constrained,
    enumerate_unconstrained,
    feasible_by_enumeration,
    squared_magnitude_classes,
)
from .bounds import (
    BoundsReport,
    CoefficientMatrix,
    bounds_report,
    classical_bound,
    classical_bound_bruteforce,
)
from .errors import (
    BoundCheckFailure,
    DimensionMismatch,
    EigensolverFailure,
    InfeasibleSpin,
    InvalidInput,
    LpNumericalFailure,
    NonFiniteMatrix,
    NotARotation,
    NumericalFailure,
    SpinHvError,
    UnsupportedSpin,
)
from .number_theory import (
    SpinValue,
    is_sum_of_three_squares,
    magnitude_feasible,
)
from .polytope import (
    MembershipResult,
    membership,
)
from .quantum import (
    bell_action,
    bell_operator,
    expectation,
    quantum_bound,
    quantum_value,
    rotated_singlet,
    rotation_unitary,
    schmidt_coefficients,
    singlet_state,
    spin_operators,
)

__version__ = "0.2.0"

__all__ = [
    "BoundCheckFailure",
    "BoundsReport",
    "CoefficientMatrix",
    "DimensionMismatch",
    "EigensolverFailure",
    "InfeasibleSpin",
    "InvalidInput",
    "LpNumericalFailure",
    "MembershipResult",
    "NonFiniteMatrix",
    "NotARotation",
    "NumericalFailure",
    "SpinHvError",
    "SpinValue",
    "UnsupportedSpin",
    "bell_action",
    "bell_operator",
    "bounds_report",
    "classical_bound",
    "classical_bound_bruteforce",
    "enumerate_constrained",
    "enumerate_unconstrained",
    "expectation",
    "feasible_by_enumeration",
    "is_sum_of_three_squares",
    "magnitude_feasible",
    "membership",
    "quantum_bound",
    "quantum_value",
    "rotated_singlet",
    "rotation_unitary",
    "schmidt_coefficients",
    "singlet_state",
    "spin_operators",
    "squared_magnitude_classes",
]
