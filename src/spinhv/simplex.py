"""Dense phase-1 simplex deciding feasibility of small equality-form systems.

Finds x >= 0 with A x = b on problems with a handful of rows and up to
56 448 columns (the conserving polytope at 2s = 29, the most for 2s <= 40)
by minimizing the total of one artificial variable per row.  Bland's rule
keeps the pivoting cycle-free.  When the system is infeasible the phase-1
dual vector is returned as a Farkas certificate: y.A <= 0 columnwise while
y.b > 0.

A pivot is one rank-1 update of the whole tableau: the pivot column,
with the pivot row's entry set to 0, times the normalised pivot row.
Bland's choice is read from arrays: the first improving column by
argmax, the ratios in an inf-filled buffer, and ties broken by argmin
over the basis indices.  Each entry gets the same product and the same
difference as in a row-by-row elimination (a row whose factor is 0
takes x - 0, which leaves its value as it was), so the pivot sequence,
the verdicts, the certificates and the iteration-limit stalls are the
same, bit for bit, as those of the row loop; only the per-pivot
overhead goes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LpNumericalFailure

PIVOT_TOL = 1e-9
# phase-1 artificial residue below which the system counts as feasible
FEAS_TOL = 1e-8
RATIO_TIE_TOL = 1e-12
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
    tableau -= np.outer(factors, pivot_row)
    tableau[row] = pivot_row
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray) -> tuple[int, int]:
    """Run simplex pivots in place until the objective row is optimal.

    The objective row is the last row, the right-hand side the last column.
    Returns the number of pivots and of degenerate pivots.
    """
    m = tableau.shape[0] - 1
    # views: _pivot updates the tableau in place
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    ratios = np.empty(m)
    not_tied = np.iinfo(basis.dtype).max
    degenerate = 0
    for pivots in range(MAX_ITER):
        improving = obj < -PIVOT_TOL
        col = int(improving.argmax())  # Bland: smallest eligible index
        if not improving[col]:
            return pivots, degenerate
        column = tableau[:m, col]
        eligible = column > PIVOT_TOL
        if not eligible.any():
            raise LpNumericalFailure("simplex pivot column is unbounded")
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=eligible)
        tied = ratios <= ratios.min() + RATIO_TIE_TOL
        row = int(np.where(tied, basis, not_tied).argmin())
        degenerate += int(ratios[row] == 0.0)
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

    x = _extract(tableau, basis, n)
    return LpOutcome(feasible=True, x=x, pivots=pivots, degenerate_pivots=degenerate)


def _extract(tableau: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[:-1, -1][structural]
    if x.min(initial=0.0) < -1e-7:
        raise LpNumericalFailure("simplex produced a negative basic value")
    np.clip(x, 0.0, None, out=x)
    return x
