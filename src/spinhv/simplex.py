"""Dense phase-1 simplex deciding feasibility of small equality-form systems.

Finds x >= 0 with A x = b on problems with a handful of rows and up to
56 448 columns (the conserving polytope at 2s = 29, the most for 2s <= 40)
by minimizing the total of one artificial variable per row.  Bland's rule
keeps the pivoting cycle-free.  When the system is infeasible the phase-1
dual vector is returned as a Farkas certificate: y.A <= 0 columnwise while
y.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpNumericalFailure

PIVOT_TOL = 1e-9
# phase-1 artificial residue below which the system counts as feasible
FEAS_TOL = 1e-8
RATIO_TIE_TOL = 1e-12
MAX_ITER = 20000


@dataclass(frozen=True, eq=False)
class LpOutcome:
    feasible: bool
    x: np.ndarray | None = None
    farkas: np.ndarray | None = None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: list[int]) -> None:
    """Run simplex pivots in place until the objective row is optimal.

    The objective row is the last row, the right-hand side the last column.
    """
    m = tableau.shape[0] - 1
    for _ in range(MAX_ITER):
        obj = tableau[m, :-1]
        entering = np.flatnonzero(obj < -PIVOT_TOL)
        if entering.size == 0:
            return
        col = int(entering[0])  # Bland: smallest eligible index
        column = tableau[:m, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if rows.size == 0:
            raise LpNumericalFailure("simplex pivot column is unbounded")
        ratios = tableau[rows, -1] / column[rows]
        tied = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
        row = int(tied[np.argmin([basis[i] for i in tied])])
        _pivot(tableau, basis, row, col)
    raise LpNumericalFailure("simplex iteration limit reached")


def solve_equality_lp(A, b) -> LpOutcome:
    """Feasibility of A x = b, x >= 0, with a nonnegative x or a Farkas vector."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError("A and b have incompatible shapes")

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
    basis = list(range(n, n + m))
    _iterate(tableau, basis)

    residue = -float(tableau[m, -1])
    if residue > FEAS_TOL:
        # dual of phase 1, read off the artificial reduced costs
        y = 1.0 - tableau[m, n : n + m]
        y = np.where(flip, -y, y)
        return LpOutcome(feasible=False, farkas=y)

    return LpOutcome(feasible=True, x=_extract(tableau, basis, n))


def _extract(tableau: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    x = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            x[col] = tableau[row, -1]
    if x.min(initial=0.0) < -1e-7:
        raise LpNumericalFailure("simplex produced a negative basic value")
    np.clip(x, 0.0, None, out=x)
    return x
