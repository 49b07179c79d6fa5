"""Correlation polytopes of deterministic assignments and gauge membership.

The nine two-party correlators of a deterministic assignment pair (a, b)
form the outer product a (x) b.  Their convex hull is the correlation
polytope; the magnitude-constrained hull is a subset of the standard one,
strictly at every feasible s >= 1: a corner product (all entries +-s^2)
needs |a_k| = |b_l| = s on every vertex, so 3 s^2 = s(s+1) and s = 1/2.
The standard polytope is the hull of the 32 distinct products of the
spectrum corners {-s, s}^3, for every spin: a (x) b is affine in each
component of a and of b, so every other product is a convex combination
of corner products.

Both vertex sets are closed under negation, so each polytope is the unit
ball of its gauge gamma(Q) = min { sum w : sum w_v v = Q, w >= 0 }, and Q
is inside exactly when gamma(Q) <= 1.  membership solves that LP by
column generation on a master of 9 rows, with no vertex list: the
products of three independent assignments make a first basis (a column
of negative weight is swapped for its negative, which is a vertex too),
and each round the duals y, with y . v = 1 on the basis, price every
column at once through the pair table a . Y . b, the expression
bounds._minimize tabulates.  The column of largest price enters, or,
after a degenerate pivot, the first improving one, so that a run of
degenerate pivots follows Bland's rule, which cannot cycle in exact
arithmetic.  When no price
exceeds 1, y is a Bell inequality with classical maximum 1 and
y . Q = gamma.  Inside, the weights re-solved from the final basis sum to
gamma, and the slack 1 - gamma goes half on a vertex v and half on -v.
Outside, -y, scaled and rounded onto a grid on which every vertex value
is exact, is the separating functional.  Two points need no LP.  The
origin is the midpoint of a vertex and its negative.  Every vertex has
the same norm, |2a| |2b| / 4, so each lies on a sphere and is an extreme
point whose only decomposition is itself; by Cauchy-Schwarz a
quarter-integer point of that norm is a vertex exactly when the integer
pair table reaches the norm squared, and it gets weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignments import extreme_assignments
from .bounds import _minimize
from .errors import DimensionMismatch, InvalidInput, LpNumericalFailure, NonFiniteMatrix
from .number_theory import SpinValue
from .simplex import (
    FEAS_TOL,
    MAX_ITER,
    NEGATIVE_BASIC_FLOOR,
    PIVOT_TOL,
    RATIO_TIE_TOL,
    _leaving_row,
    _pivot,
)

RECONSTRUCTION_TOL = 1e-7
CORRELATOR_SLACK = 1e-9  # absolute slack of the input check max|correlator| <= s^2
ENTERING = 10  # tableau column of the entering vertex: B^-1 in 0-8, the weights in 9


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Verdict plus certificate for one polytope membership query.

    gauge is gamma of the point; rounds counts the pair tables priced,
    pivots and degenerate_pivots the basis changes and those whose ratio
    is within RATIO_TIE_TOL of 0.
    At the origin and at an exact vertex no LP runs: 0 rounds, 0 pivots.
    Inside: pairs holds the doubled rows [2a, 2b] of each weighted vertex,
    shape (k, 2, 3), and the weights over their correlators reconstruct
    the point to within reconstruction_residual (max-norm).
    Outside: functional f and bound satisfy f(v) >= bound on every vertex
    while f(point) = value < bound.
    """

    inside: bool
    gauge: float
    rounds: int = 0
    pivots: int = 0
    degenerate_pivots: int = 0
    pairs: np.ndarray | None = None
    weights: np.ndarray | None = None
    reconstruction_residual: float | None = None
    functional: np.ndarray | None = None
    functional_bound: float | None = None
    functional_value: float | None = None

    @property
    def correlators(self) -> np.ndarray:
        """The (k, 9) correlator rows a (x) b of the weighted pairs."""
        return _products(self.pairs[:, 0], self.pairs[:, 1])


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Correlator rows a (x) b, row-major k, l, of doubled rows 2a and 2b."""
    return np.einsum("ik,il->ikl", a, b).reshape(-1, 9) / 4.0


def vertex_array_quadrupled(s: SpinValue, constrained: bool) -> np.ndarray:
    """Distinct outer products as exact integers, four times the correlators.

    Rows are the nine products (2 a_k)(2 b_l) in row-major k, l order,
    sorted lexicographically.  The assignments are nonzero and of one
    length, so a (x) b = c (x) d only for (c, d) = +-(a, b); their sorted
    rows are closed under negation, so row n-1-i is -(row i), and the
    first half of the rows times all rows gives each vertex exactly once,
    n^2 / 2 of them.  Unconstrained, they are the 32 corner products.
    The reference vertex list of the tests; membership builds none.
    """
    D = extreme_assignments(s, constrained)
    products = np.einsum("ik,jl->ijkl", D[: len(D) // 2], D).reshape(-1, 9)
    return products[np.lexsort(products.T[::-1])]


def _independent_rows(D: np.ndarray) -> np.ndarray:
    """Indices of the first three linearly independent rows, tested in integers."""
    crosses = np.cross(D[0], D)
    second = int(np.flatnonzero(crosses.any(axis=1))[0])
    third = int(np.flatnonzero(D @ crosses[second])[0])
    return np.array([0, second, third])


def _gauge_lp(target: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Column generation for gamma(target) over the products of rows of D.

    Returns the final basis as pair indices i n + j, the rounds and the
    degenerate pivots.
    """
    n = len(D)
    halves = D / 2.0
    rows = _independent_rows(D)
    a, b = np.repeat(rows, 3), np.tile(rows, 3)
    inverse = np.linalg.inv(_products(D[a], D[b]).T)
    weights = inverse @ target
    flip = weights < 0.0  # -v = (-a) (x) b, and row n-1-i of D is -(row i)
    inverse[flip] *= -1.0
    a[flip] = n - 1 - a[flip]
    basis = a * n + b

    # [B^-1 | w | entering column] over [y | gamma | y . v - 1]: one _pivot updates all
    tableau = np.zeros((10, 11))
    tableau[:9, :9] = inverse
    tableau[:9, 9] = np.abs(weights)
    tableau[9, :10] = tableau[:9, :10].sum(axis=0)
    duals = tableau[9, :9]  # views: _pivot updates the tableau in place
    degenerate, stalled = 0, False
    for rounds in range(1, MAX_ITER + 1):
        table = halves @ (duals.reshape(3, 3) @ halves.T)
        improving = table > 1.0 + PIVOT_TOL
        # the largest price enters, or after a degenerate pivot Bland's first improving column
        column = int(improving.argmax() if stalled else table.argmax())
        if not improving.flat[column]:
            return basis, rounds, degenerate
        i, j = divmod(column, n)
        tableau[:9, ENTERING] = tableau[:9, :9] @ np.outer(halves[i], halves[j]).reshape(9)
        tableau[9, ENTERING] = table.flat[column] - 1.0
        row, step = _leaving_row(tableau[:9, 9], tableau[:9, ENTERING], basis)
        # a step within the tie window moves nothing but rounding: degenerate
        stalled = step <= RATIO_TIE_TOL
        degenerate += stalled
        _pivot(tableau, basis, row, ENTERING)
        basis[row] = column
    raise LpNumericalFailure(
        f"gauge iteration limit reached after {MAX_ITER} rounds ({degenerate} degenerate pivots)"
    )


def membership(point, s: SpinValue, constrained: bool) -> MembershipResult:
    """Whether the point is a convex combination of the polytope's vertices.

    The point holds the nine correlators <S_k S_l>, 3x3 or flat.  Raises
    DimensionMismatch when it has another number of entries, NonFiniteMatrix
    on a non-finite one, InvalidInput when one exceeds s^2 or no conserving
    assignment exists, and LpNumericalFailure when the rounds reach
    MAX_ITER or neither the weights nor the separating functional can be
    certified at tolerance.
    """
    target = np.asarray(point, dtype=float)
    if target.size != 9:
        raise DimensionMismatch(f"expected nine correlators, got shape {target.shape}")
    target = target.reshape(9)
    if not np.all(np.isfinite(target)):
        raise NonFiniteMatrix("correlation point has non-finite entries")
    if float(np.max(np.abs(target))) > s.value**2 + CORRELATOR_SLACK:
        raise InvalidInput(f"correlators exceed s^2 = {s.value**2} for s = {s}")
    D = extreme_assignments(s, constrained)
    n = len(D)

    if not target.any():  # row n-1 of D is -(row 0)
        return MembershipResult(
            inside=True,
            gauge=0.0,
            pairs=D[[[0, 0], [n - 1, 0]]],
            weights=np.array([0.5, 0.5]),
            reconstruction_residual=0.0,
        )
    quadrupled = 4.0 * target  # exact: only a quarter-integer point can be a vertex
    norm = float(D[0] @ D[0])  # |2a|^2, so every vertex has |4v|^2 = norm^2
    if np.array_equal(quadrupled, np.rint(quadrupled)) and quadrupled @ quadrupled == norm * norm:
        table = D @ quadrupled.reshape(3, 3) @ D.T  # integers below 2^53
        column = int(table.argmax())
        if table.flat[column] == norm * norm:
            return MembershipResult(
                inside=True,
                gauge=1.0,
                pairs=D[[divmod(column, n)]],
                weights=np.array([1.0]),
                reconstruction_residual=0.0,
            )

    basis, rounds, degenerate = _gauge_lp(target, D)
    effort = {"rounds": rounds, "pivots": rounds - 1, "degenerate_pivots": degenerate}
    pairs = D[np.stack(np.divmod(basis, n), axis=1)]
    # re-solved from the final basis, not read off the tableau, which drifts over the pivots
    columns = _products(pairs[:, 0], pairs[:, 1])
    weights = np.linalg.solve(columns.T, target)
    if weights.min() < NEGATIVE_BASIC_FLOOR:
        raise LpNumericalFailure("gauge LP produced a negative weight")
    np.clip(weights, 0.0, None, out=weights)
    gauge = float(weights.sum())

    if gauge <= 1.0 + FEAS_TOL:
        # the slack, half on the heaviest basis vertex v and half on -v; above 1, within
        # FEAS_TOL, the weights keep their sum gamma, which reconstructs the point
        if gauge < 1.0:
            v = int(weights.argmax())
            pairs = np.append(pairs, [[-pairs[v, 0], pairs[v, 1]]], axis=0)
            weights = np.append(weights, 0.0)
            weights[[v, -1]] += (1.0 - gauge) / 2.0
        residual = float(np.max(np.abs(weights @ _products(pairs[:, 0], pairs[:, 1]) - target)))
        if residual > RECONSTRUCTION_TOL:
            raise LpNumericalFailure(f"inside verdict but reconstruction residual {residual:.3e}")
        return MembershipResult(
            inside=True,
            gauge=gauge,
            pairs=pairs,
            weights=weights,
            reconstruction_residual=residual,
            **effort,
        )

    # y . v <= 1 on every vertex and y . point = gauge: in min-form, scaled to max|f| = 1 and
    # rounded to multiples of 2^-k, where 2^(51-k) >= 9 s^2 >= |f . v|, so that every f . v
    # is a multiple of 2^-(k+2) below 2^53 of them, exact however it is summed; the bound is
    # then the exact minimum of f over the vertices, its classical bound
    duals = np.linalg.solve(columns, np.ones(9))
    grid = 2.0 ** (math.ceil(math.log2(9 * s.value**2)) - 51)
    functional = np.round(-duals / float(np.max(np.abs(duals))) / grid) * grid
    bound, _ = _minimize(functional.reshape(3, 3), D)
    value = float(functional @ target)
    if not value < bound:
        raise LpNumericalFailure("separating functional fails to separate")
    return MembershipResult(
        inside=False,
        gauge=gauge,
        functional=functional,
        functional_bound=bound,
        functional_value=value,
        **effort,
    )
