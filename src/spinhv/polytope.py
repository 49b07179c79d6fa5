"""Correlation polytopes of deterministic assignments and LP membership.

The nine two-party correlators of a deterministic assignment pair (a, b)
form the outer product a (x) b.  Their convex hull is the correlation
polytope; the magnitude-constrained hull is a subset of the standard one.
Membership of a correlation point is decided by a simplex feasibility run
over the vertex columns, which also yields a certificate either way: the
convex weights, or a separating functional valid on every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignments import enumerate_constrained, enumerate_unconstrained
from .errors import InfeasibleSpin, LpNumericalFailure
from .number_theory import SpinValue
from .simplex import solve_equality_lp

MEMBERSHIP_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-7

# chunk size for the pairwise outer-product sweep, keeps memory flat
_PAIR_CHUNK = 2_000_000


@dataclass(frozen=True, eq=False)
class CorrelationPoint:
    """The nine two-party correlators <S_k S_l>, a real 3x3 array."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(m)):
            raise ValueError("correlation point has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def flat(self) -> np.ndarray:
        return self.entries.reshape(9)


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Verdict plus certificate for one polytope membership query.

    vertices holds the (n, 9) correlator rows in canonical order.
    Inside: weights over those rows reconstruct the point to within
    reconstruction_residual (max-norm).
    Outside: functional f and bound satisfy f(v) >= bound on every vertex
    while f(point) = value < bound.
    """

    inside: bool
    vertices: np.ndarray
    weights: np.ndarray | None = None
    reconstruction_residual: float | None = None
    functional: np.ndarray | None = None
    functional_bound: float | None = None
    functional_value: float | None = None


@dataclass(frozen=True, eq=False)
class InclusionReport:
    """Outcome of comparing the constrained and unconstrained polytopes."""

    vertices_subset: bool
    equal: bool
    strict: bool
    witness: CorrelationPoint | None = None
    witness_certificate: MembershipResult | None = None


def _assignment_doubled(s: SpinValue, constrained: bool) -> np.ndarray:
    assignments = enumerate_constrained(s) if constrained else enumerate_unconstrained(s)
    if constrained and not assignments:
        raise InfeasibleSpin(f"no magnitude-conserving assignments exist for s = {s}")
    return np.array([a.doubled for a in assignments], dtype=np.int64)


def vertex_array_quadrupled(s: SpinValue, constrained: bool) -> np.ndarray:
    """Deduplicated outer products as exact integers, four times the correlators.

    Rows are the nine products (2 a_k)(2 b_l) in row-major k, l order,
    sorted lexicographically; exact integer keys make the dedup exact.
    """
    D = _assignment_doubled(s, constrained)
    n = len(D)
    rows_per_a = n
    chunk_a = max(1, _PAIR_CHUNK // max(rows_per_a, 1))
    unique: np.ndarray | None = None
    for start in range(0, n, chunk_a):
        block = np.einsum("ik,jl->ijkl", D[start : start + chunk_a], D).reshape(-1, 9)
        block = np.unique(block, axis=0)
        unique = block if unique is None else np.unique(np.vstack([unique, block]), axis=0)
    assert unique is not None
    return unique


def vertex_correlations(s: SpinValue, constrained: bool) -> list[CorrelationPoint]:
    """The polytope's generating points in canonical (sorted) order."""
    quadrupled = vertex_array_quadrupled(s, constrained)
    return [CorrelationPoint(row.reshape(3, 3) / 4.0) for row in quadrupled]


def membership(
    point: CorrelationPoint, s: SpinValue, constrained: bool, tol: float = MEMBERSHIP_TOL
) -> MembershipResult:
    """Whether the point is a convex combination of the polytope's vertices.

    Raises LpNumericalFailure when neither the weights nor the separating
    functional can be certified at tolerance.
    """
    s_val = s.doubled / 2.0
    target = point.flat()
    if float(np.max(np.abs(target))) > s_val * s_val + 1e-9:
        raise ValueError(f"correlators exceed s^2 = {s_val * s_val} for s = {s}")
    vertices = vertex_array_quadrupled(s, constrained) / 4.0  # (n, 9)
    n = len(vertices)
    A = np.vstack([vertices.T, np.ones((1, n))])
    rhs = np.append(target, 1.0)
    outcome = solve_equality_lp(A, rhs, feas_tol=tol)

    if outcome.feasible:
        weights = outcome.x
        residual = float(np.max(np.abs(vertices.T @ weights - target)))
        if residual > max(RECONSTRUCTION_TOL, 10 * tol):
            raise LpNumericalFailure(
                f"inside verdict but reconstruction residual {residual:.3e}"
            )
        return MembershipResult(
            inside=True, vertices=vertices, weights=weights, reconstruction_residual=residual
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
        functional=functional,
        functional_bound=bound,
        functional_value=value,
    )


def inclusion_check(s: SpinValue) -> InclusionReport:
    """Certify that the constrained polytope sits inside the unconstrained one.

    The vertex sets are compared exactly; strictness is established by an
    unconstrained vertex that fails constrained membership.  For s = 1/2
    the two polytopes coincide and the report says so.
    """
    constrained_keys = vertex_array_quadrupled(s, True)
    unconstrained_keys = vertex_array_quadrupled(s, False)
    unconstrained_set = set(map(tuple, unconstrained_keys))
    subset = all(tuple(row) in unconstrained_set for row in constrained_keys)
    if subset and len(constrained_keys) == len(unconstrained_keys):
        return InclusionReport(vertices_subset=True, equal=True, strict=False)

    constrained_set = set(map(tuple, constrained_keys))
    for row in unconstrained_keys:
        if tuple(row) in constrained_set:
            continue
        candidate = CorrelationPoint(row.reshape(3, 3) / 4.0)
        result = membership(candidate, s, constrained=True)
        if not result.inside:
            return InclusionReport(
                vertices_subset=subset,
                equal=False,
                strict=True,
                witness=candidate,
                witness_certificate=result,
            )
    return InclusionReport(vertices_subset=subset, equal=False, strict=False)
