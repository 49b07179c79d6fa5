"""Correlation polytopes of deterministic assignments and LP membership.

The nine two-party correlators of a deterministic assignment pair (a, b)
form the outer product a (x) b.  Their convex hull is the correlation
polytope; the magnitude-constrained hull is a subset of the standard one,
strictly at every feasible s >= 1: a corner product (all entries +-s^2)
needs |a_k| = |b_l| = s on every vertex, so 3 s^2 = s(s+1) and s = 1/2.
The standard polytope is the hull of the 32 distinct products of the
spectrum corners {-s, s}^3, for every spin: a (x) b is affine in each
component of a and of b, so every other product is a convex combination
of corner products.
Membership of a correlation point is decided by a simplex feasibility run
over the vertex columns, which also yields a certificate either way: the
convex weights, or a separating functional valid on every vertex.  Two
points need no LP.  Both vertex sets are closed under negation, so the
origin is the midpoint of a vertex and its negative.  Every vertex has the
same norm, |2a| |2b| / 4, so each lies on a sphere and is an extreme point
whose only decomposition is itself; a point equal to one exactly gets
weight 1 on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignments import extreme_assignments
from .errors import DimensionMismatch, InvalidInput, LpNumericalFailure, NonFiniteMatrix
from .number_theory import SpinValue
from .simplex import LpOutcome, solve_equality_lp

RECONSTRUCTION_TOL = 1e-7
CORRELATOR_SLACK = 1e-9  # absolute slack of the input check max|correlator| <= s^2


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Verdict plus certificate for one polytope membership query.

    vertices holds the (n, 9) correlator rows in canonical order.
    Inside: weights over those rows reconstruct the point to within
    reconstruction_residual (max-norm).
    Outside: functional f and bound satisfy f(v) >= bound on every vertex
    while f(point) = value < bound.
    lp is the simplex run that decided it, with its pivot counts; at the
    origin and at an exact vertex no LP runs, and lp holds the closed-form
    weights with 0 pivots.
    """

    inside: bool
    vertices: np.ndarray
    lp: LpOutcome
    weights: np.ndarray | None = None
    reconstruction_residual: float | None = None
    functional: np.ndarray | None = None
    functional_bound: float | None = None
    functional_value: float | None = None


def vertex_array_quadrupled(s: SpinValue, constrained: bool) -> np.ndarray:
    """Distinct outer products as exact integers, four times the correlators.

    Rows are the nine products (2 a_k)(2 b_l) in row-major k, l order,
    sorted lexicographically.  The assignments are nonzero and of one
    length, so a (x) b = c (x) d only for (c, d) = +-(a, b); their sorted
    rows are closed under negation, so row n-1-i is -(row i), and the
    first half of the rows times all rows gives each vertex exactly once,
    n^2 / 2 of them.  Unconstrained, they are the 32 corner products.
    """
    D = extreme_assignments(s, constrained)
    products = np.einsum("ik,jl->ijkl", D[: len(D) // 2], D).reshape(-1, 9)
    return products[np.lexsort(products.T[::-1])]


def membership(point, s: SpinValue, constrained: bool) -> MembershipResult:
    """Whether the point is a convex combination of the polytope's vertices.

    The point holds the nine correlators <S_k S_l>, 3x3 or flat.  Raises
    DimensionMismatch when it has another number of entries, NonFiniteMatrix
    on a non-finite one, InvalidInput when one exceeds s^2 or no conserving
    assignment exists, and LpNumericalFailure when neither the weights nor
    the separating functional can be certified at tolerance.
    """
    target = np.asarray(point, dtype=float)
    if target.size != 9:
        raise DimensionMismatch(f"expected nine correlators, got shape {target.shape}")
    target = target.reshape(9)
    if not np.all(np.isfinite(target)):
        raise NonFiniteMatrix("correlation point has non-finite entries")
    if float(np.max(np.abs(target))) > s.value**2 + CORRELATOR_SLACK:
        raise InvalidInput(f"correlators exceed s^2 = {s.value**2} for s = {s}")
    quadrupled = vertex_array_quadrupled(s, constrained)
    vertices = quadrupled / 4.0  # (n, 9)
    n = len(vertices)
    weights = np.zeros(n)
    if not target.any():
        weights[[0, n - 1]] = 0.5  # row n-1 is -(row 0)
    else:
        # 4 * point is exact, so only a quarter-integer point can match a row
        weights[(quadrupled == 4.0 * target).all(axis=1)] = 1.0
    if weights.any():
        outcome = LpOutcome(feasible=True, x=weights)
    else:
        A = np.vstack([vertices.T, np.ones((1, n))])
        rhs = np.append(target, 1.0)
        outcome = solve_equality_lp(A, rhs)

    if outcome.feasible:
        weights = outcome.x
        residual = float(np.max(np.abs(vertices.T @ weights - target)))
        if residual > RECONSTRUCTION_TOL:
            raise LpNumericalFailure(
                f"inside verdict but reconstruction residual {residual:.3e}"
            )
        return MembershipResult(
            inside=True,
            vertices=vertices,
            lp=outcome,
            weights=weights,
            reconstruction_residual=residual,
        )

    y = outcome.farkas
    functional = -y[:9]
    scale = float(np.max(np.abs(functional)))
    if scale <= 0.0:
        raise LpNumericalFailure("degenerate separating functional")
    functional /= scale
    vertex_values = vertices @ functional
    bound = float(vertex_values.min())
    value = float(functional @ target)
    if not value < bound:
        raise LpNumericalFailure("separating functional fails to separate")
    return MembershipResult(
        inside=False,
        vertices=vertices,
        lp=outcome,
        functional=functional,
        functional_bound=bound,
        functional_value=value,
    )
