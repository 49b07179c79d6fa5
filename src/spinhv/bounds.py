"""Classical hidden-variable bounds for bilinear spin correlation inequalities.

The inequality sum_kl c_kl <S_k S_l> >= beta is bounded from below, over
deterministic assignments, by the discrete minimum of a . C . b.  For the
conserving bound beta both parties range over the magnitude-conserving
triples and the whole pair table is scanned.  For the standard bound
beta_bar each component of a and of b ranges independently over the
spectrum [-s, s]; the form is affine in every component, so its minimum
over the box is attained at a corner, and only the 8 corners {-s, s}^3
are scanned.  The tie-broken witness is a corner too: the first minimizing
pair of the full spectrum grid (smallest b, then smallest a) cannot have a
component inside (-s, s), since an affine function minimal inside a
segment is constant on it, so setting that component to -s would give an
earlier minimizing pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignments import conserving_target_doubled, enumerate_unconstrained, extreme_assignments
from .errors import BoundCheckFailure, DimensionMismatch, InfeasibleSpin, NonFiniteMatrix
from .number_theory import SpinValue

# resolution at which minima are considered tied, relative to the largest |entry| of the pair table
TIE_TOL = 1e-12
# witness and undercut checks allow WITNESS_TOL * max(|beta|, min(1, 9 s^2 max|c_kl|))
WITNESS_TOL = 1e-9


def as_coefficient_matrix(C) -> np.ndarray:
    """C as a float array, not copied, checked to be finite and 3x3; rows/columns in x, y, z order."""
    m = np.asarray(C, dtype=float)
    if m.shape != (3, 3):
        raise DimensionMismatch(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteMatrix("coefficient matrix has non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Both classical bounds with their minimizing assignment pairs.

    Each witness is a (2, 3) int64 array, the doubled rows [2a, 2b].
    beta_constrained is None when no magnitude-conserving assignment
    exists for the spin, in which case the inequality refutes the
    conserving model state-independently.
    """

    beta_constrained: float | None
    beta_unconstrained: float
    witness_constrained: np.ndarray | None
    witness_unconstrained: np.ndarray


def _select_pair(values: np.ndarray) -> tuple[float, int, int]:
    """Minimum of a (na, nb) value table with the tie-broken argmin.

    Ties within TIE_TOL times the table's largest |value| of the minimum
    are resolved to the smallest b index, then the smallest a index,
    matching the scan order of the evaluation.  The window scales with the
    table, so a scaled matrix keeps its witness; it is 0 for a zero table.
    """
    best = float(values.min())
    peak = max(float(values.max()), -best)
    # the first entry within the window in column-major order: smallest b, then smallest a
    j, i = divmod(int(np.argmax((values <= best + TIE_TOL * peak).T.ravel())), len(values))
    return best, i, j


def _minimize(c: np.ndarray, doubled: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum of a . C . b with a and b both ranging over the doubled rows."""
    values = doubled / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        table = values @ (c @ values.T)
    if not np.all(np.isfinite(table)):
        raise BoundCheckFailure("pair table overflows to non-finite values")
    best, i, j = _select_pair(table)
    return best, doubled[[i, j]]


def classical_bound(C, s: SpinValue, constrained: bool) -> tuple[float, np.ndarray]:
    """Discrete minimum of a . C . b over one party's assignment set squared.

    Returns the bound and a minimizing pair as a (2, 3) array of doubled
    rows [2a, 2b]; among ties the pair with the smallest b, then smallest
    a, in component order.  The unconstrained minimum is taken over the 8
    spectrum corners only.
    Raises InfeasibleSpin when constrained and the conserving set is empty.
    """
    return _minimize(as_coefficient_matrix(C), extreme_assignments(s, constrained))


def classical_bound_bruteforce(C, s: SpinValue, constrained: bool) -> tuple[float, np.ndarray]:
    """Reference scan over the explicit pair set of the full (2s+1)^3 grid.

    Constrained, the grid rows of squared sum 2s (2s + 2), filtered here so
    the reference shares no set with classical_bound.  Quadratic in the
    assignment count, so only for moderate s.  Raises InfeasibleSpin when
    constrained and no row is left.
    """
    rows = enumerate_unconstrained(s)
    if constrained:
        rows = rows[np.sum(rows * rows, axis=1) == conserving_target_doubled(s)]
        if not len(rows):
            raise InfeasibleSpin(f"no magnitude-conserving assignments exist for s = {s}")
    return _minimize(as_coefficient_matrix(C), rows)


def _check_tol(c: np.ndarray, s: SpinValue, beta: float) -> float:
    """The allowance of the witness, undercut and violation checks for a bound beta.

    9 s^2 max|c_kl| bounds every |a . C . b| over the spectrum box, so the
    floor min(1, 9 s^2 max|c_kl|) shrinks with the matrix, as the tie
    window does, and a wrong witness of a tiny matrix still fails.  The
    allowance is never above WITNESS_TOL * max(1, |beta|).
    """
    magnitude = 9.0 * s.value**2 * float(np.max(np.abs(c)))
    return WITNESS_TOL * max(abs(beta), min(1.0, magnitude))


def violates(C, s: SpinValue, beta_q: float, beta: float) -> bool:
    """Whether beta_q lies below the classical bound beta by more than _check_tol.

    So a value equal to beta in exact arithmetic is no violation, whichever
    way the last bit rounds, and a tiny matrix still shows its violation.
    """
    return bool(beta_q < beta - _check_tol(as_coefficient_matrix(C), s, beta))


def _witness_reproduces(c: np.ndarray, s: SpinValue, pair: np.ndarray, beta: float) -> bool:
    a, b = pair / 2.0
    return abs(float(a @ c @ b) - beta) <= _check_tol(c, s, beta)


def bounds_report(C, s: SpinValue) -> BoundsReport:
    """Both classical bounds for one matrix and spin.

    Raises BoundCheckFailure when a witness does not reproduce its bound
    or the conserving bound falls below the standard one, both relative
    to the scale of the bound and of the matrix (_check_tol).
    """
    c = as_coefficient_matrix(C)
    beta_bar, w_bar = classical_bound(c, s, constrained=False)
    if not _witness_reproduces(c, s, w_bar, beta_bar):
        raise BoundCheckFailure("witness does not reproduce its bound")
    try:
        beta, w = classical_bound(c, s, constrained=True)
    except InfeasibleSpin:
        return BoundsReport(None, beta_bar, None, w_bar)
    if not _witness_reproduces(c, s, w, beta):
        raise BoundCheckFailure("witness does not reproduce its bound")
    if beta < beta_bar - _check_tol(c, s, beta_bar):
        raise BoundCheckFailure("constrained bound undercuts the unconstrained one")
    return BoundsReport(beta, beta_bar, w, w_bar)
