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
    LpNumericalFailure,
    NonFiniteMatrix,
    NotARotation,
    SpinHvError,
    UnsupportedSpin,
    ValueNotInSpectrum,
)
from .number_theory import (
    SpinValue,
    infeasible_spins_up_to,
    is_sum_of_three_squares,
    magnitude_feasible,
)
from .polytope import (
    CorrelationPoint,
    InclusionReport,
    MembershipResult,
    inclusion_check,
    membership,
    vertex_correlations,
)
from .quantum import (
    EulerAngles,
    HermitianOperator,
    StateVector,
    basis_state,
    bell_action,
    bell_operator,
    euler_from_rotation,
    expectation,
    projection_probability,
    quantum_bound,
    quantum_value,
    rotated_singlet,
    rotation_unitary,
    schmidt_coefficients,
    singlet_state,
    spin_operators,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheckFailure",
    "BoundsReport",
    "CoefficientMatrix",
    "CorrelationPoint",
    "DimensionMismatch",
    "EigensolverFailure",
    "EulerAngles",
    "HermitianOperator",
    "InclusionReport",
    "InfeasibleSpin",
    "LpNumericalFailure",
    "MembershipResult",
    "NonFiniteMatrix",
    "NotARotation",
    "SpinHvError",
    "SpinValue",
    "StateVector",
    "UnsupportedSpin",
    "ValueNotInSpectrum",
    "basis_state",
    "bell_action",
    "bell_operator",
    "bounds_report",
    "classical_bound",
    "classical_bound_bruteforce",
    "enumerate_constrained",
    "enumerate_unconstrained",
    "euler_from_rotation",
    "expectation",
    "feasible_by_enumeration",
    "inclusion_check",
    "infeasible_spins_up_to",
    "is_sum_of_three_squares",
    "magnitude_feasible",
    "membership",
    "projection_probability",
    "quantum_bound",
    "quantum_value",
    "rotated_singlet",
    "rotation_unitary",
    "schmidt_coefficients",
    "singlet_state",
    "spin_operators",
    "squared_magnitude_classes",
    "vertex_correlations",
]
