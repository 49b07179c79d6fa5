"""Spin-s operators, Bell operators, singlet states and their rotations.

The quantum bound beta_q is the least eigenvalue of the Bell operator
B = sum_kl c_kl S_k (x) S_l.  It is found without forming B.  Write
C = P diag(sigma) Q^T with P, Q proper rotations (a reflection in the SVD
factors moves into the sign of sigma_3).  Spin operators transform as
vectors, U_R S_j U_R^+ = sum_k R_jk S_k, so with the local unitaries of
P^T and Q^T

    B = (U_P (x) U_Q) D (U_P (x) U_Q)^+,   D = sum_j sigma_j S_j (x) S_j.

B and D share their spectrum, and their ground states differ by a local
unitary, which keeps the Schmidt coefficients.  D is real in the S_z
basis, since S_y (x) S_y = -(i S_y) (x) (i S_y) and i S_y is real.  It
changes m_A + m_B by 0 or +-2 only, so it keeps the parity of i + j over
basis indices (i, j), and it commutes with two index permutations that
keep that parity: the flip (i, j) -> (d-1-i, d-1-j), up to sign a
rotation by pi about x on both parties, and the swap (i, j) -> (j, i).
So D splits into 8 real blocks, one per parity and character of
{1, flip, swap, flip swap}; the largest has 66 rows at 2s = 20 and 231
at 2s = 40.  The least eigenvalue of every block is found, and the
eigenvector of the lowest block only, mapped back to a real amplitude
matrix phi.

The value is certified in D's frame.  The computed P, Q and sigma give B
only up to the SVD gap g = s^2 (sum |C - P diag(sigma) Q^T| plus a term
for the orthogonality defect of P and Q), since ||S_k (x) S_l|| = s^2;
so B's eigenvalues lie within g of D's.  The residual of phi against D
plus g within the tolerance shows an eigenvalue of B near the value; a
Cholesky factor of every block of D shifted by value - tol + g shows no
eigenvalue of B lies below value - tol.  quantum_value stops there and
reports the Schmidt coefficients of phi, which are those of B's ground
state by local-unitary invariance.  quantum_bound also rotates phi back
to B's frame and checks its residual against the full C, a cross-check
of the rotation code.  bell_operator keeps the dense B as the reference
oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .bounds import as_coefficient_matrix
from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    NotARotation,
    UnsupportedSpin,
    ValueNotInSpectrum,
)
from .number_theory import SpinValue

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
UNITARITY_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-9
GIMBAL_TOL = 1e-12

# the largest symmetry block of D has 231 rows at 2s = 40
MAX_SPIN_DOUBLED = 40

_AXES = ("x", "y", "z")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix validated to be Hermitian."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if float(np.max(np.abs(m - m.conj().T))) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector.

    Single-party states are indexed by m = s, s-1, ..., -s; bipartite
    states by (m_A, m_B) pairs, row-major with party A as the slow index.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if abs(float(np.linalg.norm(v)) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z rotation angles in radians."""

    theta: float
    phi: float
    xi: float

    def __post_init__(self) -> None:
        eps = 1e-12
        if not (-math.pi - eps <= self.theta <= math.pi + eps):
            raise ValueError("theta must lie in [-pi, pi]")
        if not (-eps <= self.phi <= math.pi + eps):
            raise ValueError("phi must lie in [0, pi]")
        if not (-math.pi - eps <= self.xi <= math.pi + eps):
            raise ValueError("xi must lie in [-pi, pi]")


def _check_spin(s: SpinValue) -> None:
    if not 1 <= s.doubled <= MAX_SPIN_DOUBLED:
        raise UnsupportedSpin(
            f"spin doubled value {s.doubled} outside supported range 1..{MAX_SPIN_DOUBLED}"
        )


@lru_cache(maxsize=None)
def _spin_matrices(doubled: int) -> np.ndarray:
    """Read-only complex (3, 2s+1, 2s+1) stack of S_x, S_y, S_z, built once per spin."""
    sval = doubled / 2.0
    m = np.arange(doubled, -doubled - 1, -2) / 2.0
    raising = np.diag(np.sqrt(sval * (sval + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    ops = np.stack([(raising + raising.T) / 2.0, (raising - raising.T) / 2.0j, np.diag(m)])
    ops.setflags(write=False)
    return ops


@lru_cache(maxsize=None)
def _real_spin_matrices(doubled: int) -> np.ndarray:
    """Read-only real (3, 2s+1, 2s+1) stack of S_x, i S_y, S_z."""
    sx, sy, sz = _spin_matrices(doubled)
    real = np.stack([sx.real, (1j * sy).real, sz.real])
    real.setflags(write=False)
    return real


@lru_cache(maxsize=None)
def _sy_eigenbasis(doubled: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_spin_matrices(doubled)[1])


# characters of the symmetries {1, flip, swap, flip swap} of D, one row
# each: (+, +), (+, -), (-, +), (-, -) on (flip, swap)
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


@dataclass(frozen=True, eq=False)
class _SymmetryBlocks:
    """The symmetry-adapted basis of D and the block entries it gives.

    Blocks are in the fixed order: by size, then even parity first, then
    by character in the order of _CHARACTERS.  stacks lists (count, size)
    for each run of equal sizes.  Basis vectors are numbered block after
    block, each block's in order of their orbit's least flat index.  Entry
    n of the basis table says that basis vector columns[n] has amplitude
    coefficients[n] at the flat bipartite index members[n] = i * d + j.
    The blocks, laid end to end row-major, hold sigma @ weights at the
    flat positions positions and zero elsewhere.
    """

    sizes: np.ndarray
    stacks: tuple[tuple[int, int], ...]
    members: np.ndarray
    columns: np.ndarray
    coefficients: np.ndarray
    positions: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _symmetry_blocks(doubled: int) -> _SymmetryBlocks:
    """The nonempty blocks of D by parity of i + j and character of flip and swap.

    Built from the nonzero pattern of the tridiagonal one-party matrices,
    so no (2s+1)^2-square matrix is formed.
    """
    d = doubled + 1
    n = d * d
    i, j = np.divmod(np.arange(n), d)
    # images of each flat index under 1, flip, swap and flip swap
    images = np.stack([i * d + j, n - 1 - (i * d + j), j * d + i, n - 1 - (j * d + i)])
    fixed = images == images[0]
    orbit = images.min(axis=0)
    # a character has a basis vector on an orbit when it is 1 on the stabilizer
    spans = np.all((_CHARACTERS[:, :, None] == 1) | ~fixed, axis=1)
    # the basis vector of character chi on an orbit has amplitude
    # chi(g) / sqrt(|orbit|) at g(least index); each g is its own inverse
    to_least = np.argmax(images == orbit, axis=0)
    coefficient = _CHARACTERS[:, to_least] / np.sqrt(4.0 / fixed.sum(axis=0))
    character, member = np.nonzero(spans)
    label = 4 * ((i + j) % 2)[member] + character
    # one basis vector per (label, orbit), counted at the orbit's least index
    least = member == orbit[member]
    counts = np.bincount(label[least], minlength=8)
    # the fixed order of the blocks: by size, then by label
    by_size = np.argsort(counts, kind="stable")
    key = np.argsort(by_size)[label] * n + orbit[member]
    column = np.searchsorted(np.sort(key[least]), key)
    sizes = counts[by_size][counts[by_size] > 0]

    real = _real_spin_matrices(doubled)
    rows, cols = np.nonzero(np.any(real != 0, axis=0))
    # every pair (a, b) of nonzero one-party entries
    a, b = np.divmod(np.arange(len(rows) ** 2), len(rows))
    values = real[:, rows[a], cols[a]] * real[:, rows[b], cols[b]]
    values[1] = -values[1]  # S_y (x) S_y = -(i S_y) (x) (i S_y)
    keep = np.any(values != 0, axis=0)
    source = (rows[a] * d + rows[b])[keep]
    target = (cols[a] * d + cols[b])[keep]
    values = values[:, keep]

    # entry (source, target) of D, seen from the basis vectors of one character
    column_of = np.full((4, n), -1)
    column_of[character, member] = column
    seen, entry = np.nonzero(spans[:, source] & spans[:, target])
    row, col = column_of[seen, source[entry]], column_of[seen, target[entry]]
    # D keeps parity, so both columns lie in one block
    block_of = np.repeat(np.arange(len(sizes)), sizes)[row]
    first = (np.cumsum(sizes) - sizes)[block_of]
    corner = (np.cumsum(sizes**2) - sizes**2)[block_of]
    flat = corner + (row - first) * sizes[block_of] + (col - first)
    contribution = values[:, entry] * (
        coefficient[seen, source[entry]] * coefficient[seen, target[entry]]
    )
    # sum the contributions to each position
    order = np.argsort(flat, kind="stable")
    starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
    weights = np.add.reduceat(contribution[:, order], starts, axis=1)
    nonzero = np.any(weights != 0, axis=0)
    positions = flat[order][starts][nonzero]
    return _SymmetryBlocks(
        sizes=sizes,
        stacks=tuple((len(list(run)), size) for size, run in groupby(sizes.tolist())),
        members=member,
        columns=column,
        coefficients=coefficient[character, member],
        positions=positions,
        weights=weights[:, nonzero],
    )


def spin_operators(s: SpinValue) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """The (2s+1)-dimensional matrices (S_x, S_y, S_z) in the S_z eigenbasis.

    Basis ordered m = s down to -s; built from the ladder operator with
    matrix elements sqrt(s(s+1) - m(m+1)).
    """
    _check_spin(s)
    sx, sy, sz = _spin_matrices(s.doubled)
    return (HermitianOperator(sx), HermitianOperator(sy), HermitianOperator(sz))


def bell_operator(C, s: SpinValue) -> HermitianOperator:
    """sum_kl c_kl S_k (x) S_l on the bipartite space of two spin-s parties.

    Dense (2s+1)^2-square reference for tests; quantum_bound and the CLI
    use bell_action instead.
    """
    cm = as_coefficient_matrix(C)
    ops = [op.entries for op in spin_operators(s)]
    dim = (s.doubled + 1) ** 2
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(3):
        for l in range(3):
            coeff = cm.entries[k, l]
            if coeff != 0.0:
                total += coeff * np.kron(ops[k], ops[l])
    return HermitianOperator(total)


def bell_action(C, s: SpinValue, state: StateVector) -> np.ndarray:
    """The amplitudes of (sum_kl c_kl S_k (x) S_l) |state>, without forming the operator.

    On the amplitude matrix Psi (party A as rows) S_k (x) S_l acts as
    S_k Psi S_l^T, so the action is sum_k S_k Psi (sum_l c_kl S_l)^T.
    """
    cm = as_coefficient_matrix(C)
    _check_spin(s)
    d = s.doubled + 1
    if state.dim != d * d:
        raise DimensionMismatch(f"state dim {state.dim} != bipartite dim {d * d} for spin {s}")
    ops = _spin_matrices(s.doubled)
    partners = (cm.entries @ ops.reshape(3, d * d)).reshape(3, d, d)
    psi = state.amplitudes.reshape(d, d)
    return sum(ops[k] @ psi @ partners[k].T for k in range(3)).reshape(-1)


def _diagonal_blocks(sigma: np.ndarray, doubled: int) -> list[np.ndarray]:
    """The symmetry blocks of D = sum_j sigma_j S_j (x) S_j, as (count, size, size) stacks.

    The stacks hold the blocks in the fixed order, equal sizes together,
    so each stack goes to numpy's solvers in one call.
    """
    table = _symmetry_blocks(doubled)
    squares = [count * size * size for count, size in table.stacks]
    flat = np.bincount(table.positions, weights=sigma @ table.weights, minlength=sum(squares))
    parts = np.split(flat, np.cumsum(squares)[:-1])
    return [part.reshape(count, size, size) for part, (count, size) in zip(parts, table.stacks)]


def _diagonal_ground_state(stacks: list[np.ndarray], doubled: int) -> tuple[float, np.ndarray]:
    """Least eigenvalue of D and a real eigenvector, as a (2s+1, 2s+1) amplitude matrix.

    Every block's eigenvalues are found; only the block holding the least
    one (the first in the fixed order on an exact tie) is solved for its
    vector, which is mapped back through the basis table.
    """
    table = _symmetry_blocks(doubled)
    minima = np.concatenate([np.linalg.eigvalsh(stack)[:, 0] for stack in stacks])
    k = int(np.argmin(minima))
    eigenvalues, eigenvectors = np.linalg.eigh([block for stack in stacks for block in stack][k])
    start = int(table.sizes[:k].sum())
    vec = np.zeros(int(table.sizes.sum()))
    vec[start : start + len(eigenvectors)] = eigenvectors[:, 0]
    d = doubled + 1
    amplitudes = table.coefficients * vec[table.columns]
    return float(eigenvalues[0]), np.bincount(table.members, amplitudes, d * d).reshape(d, d)


def _certify_least(stacks: list[np.ndarray], floor: float) -> None:
    """Raise EigensolverFailure unless every eigenvalue of D exceeds floor.

    block - floor * I has a Cholesky factor exactly when it is positive
    definite, that is when all of the block's eigenvalues exceed floor.
    """
    for stack in stacks:
        # floor on the diagonal only: an infinite floor times I would put nan off it
        with np.errstate(over="ignore"):
            shifted = stack - np.diag(np.full(stack.shape[-1], floor))
        try:
            # cholesky factors a diagonal the shift overflowed to inf without complaint
            if not np.all(np.isfinite(shifted)):
                raise np.linalg.LinAlgError
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise EigensolverFailure(
                f"an eigenvalue lies at or below {floor:.17g}, under the one found"
            ) from None


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x as max|x| times the norm of x / max|x|, so no square overflows.

    Infinite only when the norm itself exceeds the float range.
    """
    peak = float(np.max(np.abs(x)))
    if not 0.0 < peak < math.inf:
        return peak
    return peak * float(np.linalg.norm(x / peak))


def _diagonal_action(sigma: np.ndarray, doubled: int, phi: np.ndarray) -> np.ndarray:
    """D phi for a real amplitude matrix phi, as sum_j +-sigma_j R_j phi R_j^T.

    R_j are S_x, i S_y and S_z, all real; the S_y term takes the minus sign.
    """
    real = _real_spin_matrices(doubled)
    signed = sigma * np.array([1.0, -1.0, 1.0])
    return sum(signed[j] * (real[j] @ phi @ real[j].T) for j in range(3))


def _svd_gap(c: np.ndarray, p: np.ndarray, sigma: np.ndarray, q: np.ndarray) -> float:
    """A bound on sum_kl |c_kl - c0_kl| for C0 = P0 diag(sigma) Q0^T, P0 and Q0 exact rotations.

    It bounds the nuclear norm of C - C0, so s^2 times it bounds the
    norm of the difference of their Bell operators.  P0 is the orthogonal
    polar factor of P, proper since det P > 0, and within
    delta_P = ||P^T P - I||_F of P in the spectral norm; likewise Q0.  The
    rank-3 rest P diag(sigma) Q^T - C0 has spectral norm at most
    max|sigma| (delta_P + delta_Q + delta_P delta_Q), so nuclear norm at
    most three times that.  Taken on C / max|c_kl| and scaled back, so
    3 max|sigma| stays finite near the float limit.
    """
    peak = float(np.max(np.abs(c)))
    if peak == 0.0:
        return 0.0
    eye = np.eye(3)
    delta_p, delta_q = _norm(p.T @ p - eye), _norm(q.T @ q - eye)
    unit = sigma / peak
    defect = 3.0 * float(np.max(np.abs(unit))) * (delta_p + delta_q + delta_p * delta_q)
    return peak * (float(np.sum(np.abs(c / peak - (p * unit) @ q.T))) + defect)


def _diagonal_solution(cm, s: SpinValue) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float]:
    """The least eigenvalue of B certified in D's frame, with phi, P, Q and the tolerance.

    With tol = EIG_RESIDUAL_TOL * max(1, ||C||_F s(s+1)) and g the SVD gap
    times s^2, the residual of phi against D plus g stays within tol, so
    an eigenvalue of B lies within tol of the value, and every block of D
    shifted by value - tol + g has a Cholesky factor, so none of B lies
    below value - tol.  The norms are taken overflow-safe, and a tol that
    is not finite, which would pass any residual, raises
    EigensolverFailure before the solve.
    """
    tol = EIG_RESIDUAL_TOL * max(1.0, _norm(cm.entries) * s.value * (s.value + 1.0))
    if not math.isfinite(tol):
        raise EigensolverFailure("eigenpair tolerance overflows for this matrix and spin")
    p, sigma, qt = np.linalg.svd(cm.entries)
    q = qt.T
    for factor in (p, q):
        if np.linalg.det(factor) < 0:
            factor[:, 2] = -factor[:, 2]
            sigma[2] = -sigma[2]
    stacks = _diagonal_blocks(sigma, s.doubled)
    lam, phi = _diagonal_ground_state(stacks, s.doubled)
    # an overflow gives an infinite or nan residual or gap, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(_diagonal_action(sigma, s.doubled, phi) - lam * phi)
        gap = s.value**2 * _svd_gap(cm.entries, p, sigma, q)
    if not residual + gap <= tol:
        raise EigensolverFailure(
            f"eigenpair residual {residual:.3e} plus SVD gap {gap:.3e} exceeds tolerance"
        )
    _certify_least(stacks, lam - tol + gap)
    return lam, phi, p, q, tol


def quantum_value(C, s: SpinValue) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue of the Bell operator and the Schmidt coefficients of an optimal state.

    Both come from D's frame with its certificate (module docstring): the
    coefficients are the singular values of D's ground-state amplitude
    matrix, descending, which a local unitary does not change.  No state
    is rotated back.
    """
    cm = as_coefficient_matrix(C)
    _check_spin(s)
    lam, phi, *_ = _diagonal_solution(cm, s)
    return lam, _singular_values(phi)


def quantum_bound(C, s: SpinValue) -> tuple[float, StateVector]:
    """Minimal eigenvalue of the Bell operator and an optimal eigenvector.

    The value and its certificate are quantum_value's; the ground state of
    D is rotated back by U_P (x) U_Q, and its residual against the full C
    must stay within the same tol, a check of the rotation code.
    """
    cm = as_coefficient_matrix(C)
    _check_spin(s)
    lam, phi, p, q, tol = _diagonal_solution(cm, s)
    u_p = rotation_unitary(s, euler_from_rotation(p.T))
    u_q = rotation_unitary(s, euler_from_rotation(q.T))
    state = StateVector(u_p @ phi @ u_q.T)
    # an overflowing action gives an infinite or nan residual, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(bell_action(cm, s, state) - lam * state.amplitudes)
    if not residual <= tol:
        raise EigensolverFailure(f"eigenpair residual {residual:.3e} exceeds tolerance")
    return lam, state


def singlet_state(s: SpinValue) -> StateVector:
    """The rotation-invariant total-spin-zero state of two spin-s parties.

    Amplitude (-1)^(s-m) / sqrt(2s+1) at (m, -m) and zero elsewhere;
    the sign exponent s - m is an exact integer in doubled arithmetic.
    """
    _check_spin(s)
    d = s.doubled + 1
    amps = np.zeros(d * d, dtype=complex)
    norm = 1.0 / math.sqrt(d)
    for i in range(d):  # i = s - m, so -m sits at index d - 1 - i
        amps[i * d + (d - 1 - i)] = -norm if i % 2 else norm
    return StateVector(amps)


def euler_from_rotation(C) -> EulerAngles:
    """z-y-z angles of a rotation matrix, C = R_z(xi) R_y(phi) R_z(theta).

    Near the gimbal-locked case |C_zz| = 1 the decomposition degenerates;
    the convention here puts the whole z-rotation into theta with xi = 0
    and phi in {0, pi}.
    """
    cm = as_coefficient_matrix(C)
    if not cm.is_rotation:
        raise NotARotation("matrix is not orthogonal with determinant +1")
    m = cm.entries
    if abs(m[2, 2]) >= 1.0 - GIMBAL_TOL:
        if m[2, 2] > 0:
            return EulerAngles(math.atan2(m[1, 0], m[0, 0]), 0.0, 0.0)
        return EulerAngles(math.atan2(m[1, 0], m[1, 1]), math.pi, 0.0)
    phi = math.acos(max(-1.0, min(1.0, m[2, 2])))
    xi = math.atan2(m[1, 2], m[0, 2])
    theta = math.atan2(m[2, 1], -m[2, 0])
    return EulerAngles(theta, phi, xi)


def rotation_unitary(s: SpinValue, angles: EulerAngles) -> np.ndarray:
    """exp(i S_z theta) exp(i S_y phi) exp(i S_z xi) on the spin-s space.

    The z factors are diagonal exponentials; the y factor comes from the
    eigendecomposition of S_y reassembled with unit-modulus phases.
    Satisfies U S_j U+ = sum_k c_jk S_k for the matrix the angles came from.
    """
    _check_spin(s)
    z_diag = np.arange(s.doubled, -s.doubled - 1, -2) / 2.0
    y_eigvals, y_eigvecs = _sy_eigenbasis(s.doubled)
    uy = (y_eigvecs * np.exp(1j * angles.phi * y_eigvals)) @ y_eigvecs.conj().T
    unitary = np.exp(1j * angles.theta * z_diag)[:, None] * uy * np.exp(1j * angles.xi * z_diag)
    residual = float(np.linalg.norm(unitary.conj().T @ unitary - np.eye(len(unitary))))
    if residual > UNITARITY_TOL:
        raise EigensolverFailure(f"unitarity residual {residual:.3e} exceeds tolerance")
    return unitary


def rotated_singlet(C, s: SpinValue) -> StateVector:
    """The singlet with party B rotated by the unitary representing C."""
    cm = as_coefficient_matrix(C)
    if not cm.is_rotation:
        raise NotARotation("matrix is not orthogonal with determinant +1")
    unitary = rotation_unitary(s, euler_from_rotation(cm))
    d = s.doubled + 1
    # (1 (x) U) acts on the amplitude matrix as Psi U^T
    return StateVector(singlet_state(s).amplitudes.reshape(d, d) @ unitary.T)


def expectation(state: StateVector, op: HermitianOperator) -> float:
    """<state| op |state> as a real number."""
    if state.dim != op.dim:
        raise DimensionMismatch(f"state dim {state.dim} != operator dim {op.dim}")
    value = complex(np.vdot(state.amplitudes, op.entries @ state.amplitudes))
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def schmidt_coefficients(state: StateVector, s: SpinValue) -> np.ndarray:
    """Singular values of the bipartite amplitude matrix, descending."""
    d = s.doubled + 1
    if state.dim != d * d:
        raise DimensionMismatch(
            f"state dim {state.dim} is not bipartite for spin {s} (expected {d * d})"
        )
    return _singular_values(state.amplitudes.reshape(d, d))


def _singular_values(amplitudes: np.ndarray) -> np.ndarray:
    coeffs = np.linalg.svd(amplitudes, compute_uv=False)
    if abs(float(np.sum(coeffs**2)) - 1.0) > 1e-10:
        raise EigensolverFailure("Schmidt coefficients do not square-sum to one")
    return coeffs


def basis_state(s: SpinValue, m: SpinValue) -> StateVector:
    """The single-party eigenstate |s, m> of S_z."""
    _check_spin(s)
    _check_in_spectrum(s.doubled, m)
    amps = np.zeros(s.doubled + 1, dtype=complex)
    amps[(s.doubled - m.doubled) // 2] = 1.0
    return StateVector(amps)


def _check_in_spectrum(spin_doubled: int, value: SpinValue) -> None:
    if abs(value.doubled) > spin_doubled or (value.doubled - spin_doubled) % 2 != 0:
        raise ValueNotInSpectrum(
            f"projection {value} is not in the spectrum of a spin-{SpinValue(spin_doubled)} operator"
        )


def projection_probability(state: StateVector, axis: str, value: SpinValue) -> float:
    """Probability of measuring the given projection along x, y or z.

    The axis eigenvector's phase is fixed by making its first nonzero
    amplitude real positive; the probability itself is phase independent.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    spin_doubled = state.dim - 1
    _check_in_spectrum(spin_doubled, value)
    op = spin_operators(SpinValue(spin_doubled))[_AXES.index(axis)]
    eigenvalues, eigenvectors = np.linalg.eigh(op.entries)
    k = int(np.argmin(np.abs(eigenvalues - value.value)))
    if abs(eigenvalues[k] - value.value) > 1e-8:
        raise ValueNotInSpectrum(f"no eigenvalue near {value} on axis {axis}")
    vec = eigenvectors[:, k]
    first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    vec = vec * (first.conjugate() / abs(first))
    return float(abs(np.vdot(vec, state.amplitudes)) ** 2)
