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
basis, since S_y (x) S_y = -(i S_y) (x) (i S_y) and i S_y is real, and it
changes m_A + m_B by 0 or +-2 only, so it splits into two blocks by the
parity of i + j over basis indices (i, j).  Each block, about half the
size of B, goes to a real symmetric eigensolver, and the winning vector is
rotated back.  bell_operator keeps the dense B as the reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

# the parity blocks of D stay below 841 x 841 up to 2s = 40
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
def _sy_eigenbasis(doubled: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_spin_matrices(doubled)[1])


@lru_cache(maxsize=None)
def _parity_blocks(doubled: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The two parity blocks of the S_j (x) S_j, as (members, positions, values).

    members are the flat bipartite indices i * d + j with i + j of one
    parity; values[:, n] holds the entries of S_x (x) S_x, S_y (x) S_y and
    S_z (x) S_z (all real) at the flat position positions[n] of the block.
    Built from the nonzero pattern of the tridiagonal one-party matrices,
    so no (2s+1)^2-square matrix is formed.
    """
    d = doubled + 1
    sx, sy, sz = _spin_matrices(doubled)
    real = np.stack([sx.real, (1j * sy).real, sz.real])  # i S_y is real
    rows, cols = np.nonzero(np.any(real != 0, axis=0))
    # every pair (a, b) of nonzero one-party entries
    a, b = np.divmod(np.arange(len(rows) ** 2), len(rows))
    values = real[:, rows[a], cols[a]] * real[:, rows[b], cols[b]]
    values[1] = -values[1]  # S_y (x) S_y = -(i S_y) (x) (i S_y)
    keep = np.any(values != 0, axis=0)
    source = (rows[a] * d + rows[b])[keep]
    target = (cols[a] * d + cols[b])[keep]
    values = values[:, keep]
    flat = np.arange(d * d)
    blocks = []
    for parity in (0, 1):
        members = flat[(flat // d + flat % d) % 2 == parity]
        local = np.empty(d * d, dtype=np.int64)
        local[members] = np.arange(len(members))
        # D couples only indices of one parity, so both ends share it
        mine = (source // d + source % d) % 2 == parity
        positions = local[source[mine]] * len(members) + local[target[mine]]
        blocks.append((members, positions, np.ascontiguousarray(values[:, mine])))
    return tuple(blocks)


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


def _diagonal_ground_state(sigma: np.ndarray, doubled: int) -> tuple[float, np.ndarray]:
    """Least eigenvalue of D = sum_j sigma_j S_j (x) S_j and a real eigenvector.

    Both parity blocks are solved; on a tie the even block's vector is kept.
    """
    d = doubled + 1
    best = None
    for members, positions, values in _parity_blocks(doubled):
        n = len(members)
        block = np.zeros(n * n)
        block[positions] = sigma @ values
        eigenvalues, eigenvectors = np.linalg.eigh(block.reshape(n, n))
        if best is None or eigenvalues[0] < best[0]:
            best = (float(eigenvalues[0]), members, eigenvectors[:, 0].copy())
    lam, members, vec = best
    phi = np.zeros(d * d)
    phi[members] = vec
    return lam, phi.reshape(d, d)


def quantum_bound(C, s: SpinValue) -> tuple[float, StateVector]:
    """Minimal eigenvalue of the Bell operator and an optimal eigenvector.

    Solved on the diagonal form D of the module docstring.  The eigenpair
    is checked against the full C: the residual of the returned state must
    stay within EIG_RESIDUAL_TOL * max(1, ||C||_F s(s+1)).
    """
    cm = as_coefficient_matrix(C)
    _check_spin(s)
    p, sigma, qt = np.linalg.svd(cm.entries)
    q = qt.T
    for factor in (p, q):
        if np.linalg.det(factor) < 0:
            factor[:, 2] = -factor[:, 2]
            sigma[2] = -sigma[2]
    lam, phi = _diagonal_ground_state(sigma, s.doubled)
    u_p = rotation_unitary(s, euler_from_rotation(p.T))
    u_q = rotation_unitary(s, euler_from_rotation(q.T))
    state = StateVector(u_p @ phi @ u_q.T)
    residual = float(np.linalg.norm(bell_action(cm, s, state) - lam * state.amplitudes))
    scale = max(1.0, float(np.linalg.norm(cm.entries)) * s.value * (s.value + 1.0))
    if residual > EIG_RESIDUAL_TOL * scale:
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
    coeffs = np.linalg.svd(state.amplitudes.reshape(d, d), compute_uv=False)
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
