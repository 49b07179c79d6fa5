"""Dense phase-1 simplex deciding feasibility of small equality-form systems,
and the pivot and ratio test that polytope.membership's gauge LP shares.

solve_equality_lp finds x >= 0 with A x = b by minimizing the total of
one artificial variable per row.  Bland's rule keeps the pivoting
cycle-free.  When the system is infeasible the phase-1 dual vector is
returned as a Farkas certificate: y.A <= 0 columnwise while y.b > 0.
membership does not call it: over every vertex column of a polytope
(56 448 at 2s = 29) it is the tests' reference oracle for membership's
verdicts.  Its tolerances are the gauge LP's too: PIVOT_TOL the
reduced-cost threshold, RATIO_TIE_TOL the tie window of the ratio test,
FEAS_TOL the threshold of the verdict, NEGATIVE_BASIC_FLOOR the clamp of
the weights and MAX_ITER the cap on pivots, or on the gauge LP's rounds.

A pivot is one rank-1 update of the whole tableau: the pivot column,
with the pivot row's entry set to 0, times the normalised pivot row.
Bland's entering column is the first improving one, found by argmax.
The ratio test runs on Python floats over the handful of rows, which
divide and compare exactly as numpy does.  A basic value that rounding
has pushed below 0 counts as 0, so no pivot steps backwards: Bland's rule
is cycle-free only on a nonnegative right-hand side.  Ties within
RATIO_TIE_TOL go to the smallest basis index.  The pivots must follow
Bland's sequence bit for bit: the verdicts, the certificates, the
iteration-limit stalls and the pivot and degenerate-pivot counts that
tests/test_simplex.py::TestReferenceKernel pins all hang on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LpNumericalFailure

PIVOT_TOL = 1e-9
# phase-1 artificial residue below which the system counts as feasible
FEAS_TOL = 1e-8
RATIO_TIE_TOL = 1e-12
NEGATIVE_BASIC_FLOOR = -1e-7  # a basic value below it fails, one above it is clipped to 0
MAX_ITER = 20000


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Verdict, certificate and effort of one phase-1 run.

    degenerate_pivots counts the pivots whose chosen ratio is exactly 0,
    which move no basic value.
    """

    feasible: bool
    x: np.ndarray | None = None
    farkas: np.ndarray | None = None
    pivots: int = 0
    degenerate_pivots: int = 0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _leaving_row(rhs: np.ndarray, column: np.ndarray, basis: np.ndarray) -> tuple[int, float]:
    """Bland's ratio test: the leaving row and its ratio, the step of the pivot.

    Runs on Python floats over the handful of rows.  A basic value below 0
    counts as 0; ties within RATIO_TIE_TOL go to the smallest basis index.
    """
    ratios = {
        i: max(value, 0.0) / entry
        for i, (value, entry) in enumerate(zip(rhs.tolist(), column.tolist()))
        if entry > PIVOT_TOL
    }
    if not ratios:
        raise LpNumericalFailure("simplex pivot column is unbounded")
    cutoff = min(ratios.values()) + RATIO_TIE_TOL
    row = min((i for i, ratio in ratios.items() if ratio <= cutoff), key=basis.item)
    return row, ratios[row]


def _iterate(tableau: np.ndarray, basis: np.ndarray) -> tuple[int, int]:
    """Run simplex pivots in place until the objective row is optimal.

    The objective row is the last row, the right-hand side the last column.
    Returns the number of pivots and of degenerate pivots.
    """
    m = tableau.shape[0] - 1
    # views: _pivot updates the tableau in place
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    degenerate = 0
    for pivots in range(MAX_ITER):
        improving = obj < -PIVOT_TOL
        col = int(improving.argmax())  # Bland: smallest eligible index
        if not improving[col]:
            return pivots, degenerate
        row, step = _leaving_row(rhs, tableau[:m, col], basis)
        degenerate += step == 0.0
        _pivot(tableau, basis, row, col)
    raise LpNumericalFailure(
        f"simplex iteration limit reached after {MAX_ITER} pivots ({degenerate} degenerate)"
    )


def solve_equality_lp(A, b) -> LpOutcome:
    """Feasibility of A x = b, x >= 0, with a nonnegative x or a Farkas vector."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if b.shape != (m,):
        raise DimensionMismatch("A and b have incompatible shapes")

    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    # phase 1: artificial basis, cost 1 on each artificial
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    pivots, degenerate = _iterate(tableau, basis)

    residue = -float(tableau[m, -1])
    if residue > FEAS_TOL:
        # dual of phase 1, read off the artificial reduced costs
        y = 1.0 - tableau[m, n : n + m]
        y = np.where(flip, -y, y)
        return LpOutcome(
            feasible=False, farkas=y, pivots=pivots, degenerate_pivots=degenerate
        )

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[:m, -1][structural]
    if x.min(initial=0.0) < NEGATIVE_BASIC_FLOOR:
        raise LpNumericalFailure("simplex produced a negative basic value")
    np.clip(x, 0.0, None, out=x)
    return LpOutcome(feasible=True, x=x, pivots=pivots, degenerate_pivots=degenerate)
