"""Spin-s operators, Bell operators, singlet states and their rotations.

The quantum bound beta_q is the least eigenvalue of the Bell operator
B = sum_kl c_kl S_k (x) S_l.  It is found without forming B.  Write
C = P diag(sigma) Q^T with P, Q proper rotations (a reflection in the SVD
factors moves into the sign of sigma_3).  Spin operators transform as
vectors, U_R S_j U_R^+ = sum_k R_jk S_k, so with the local unitaries of
P^T and Q^T

    B = (U_P (x) U_Q) D (U_P (x) U_Q)^+,   D = sum_j sigma_j S_j (x) S_j.

B and D share their spectrum, and their ground states differ by a local
unitary, which keeps the Schmidt coefficients.  Every operator here
comes from one real table R = (S_x, i S_y, S_z) in the S_z basis and one
phase constant, S_j = phase_j R_j with phase = (1, -i, 1), so D =
sum_j sigma_j phase_j^2 R_j (x) R_j is real.  It
changes m_A + m_B by 0 or +-2 only, so it keeps the parity of i + j over
basis indices (i, j), and it commutes with two index permutations that
keep that parity: the flip (i, j) -> (d-1-i, d-1-j), up to sign a
rotation by pi about x on both parties, and the swap (i, j) -> (j, i).
So D splits into 8 real blocks, one per parity and character of
{1, flip, swap, flip swap}; the largest has 66 rows at 2s = 20 and 231
at 2s = 40.  A block's basis vector is v_r = sum_g chi(g) e_{g r} /
sqrt(4 |stab r|) for the least index r of an orbit on whose stabiliser
the character chi is 1.  Since D commutes with the group, the projector
identity gives each block entry from one row of D,

    <v_r'| D |v_r> = sum_b chi(g_b) sqrt(|stab r| / |stab r'|) D[r', b],

over the nonzero entries b = g_b r of row r' in the orbit of r, so only
the rows of least indices are read.  The largest block, last in the
fixed order, is solved first, for its least eigenvalue lam0.  A block
with a Cholesky factor at lam0 + tol has no eigenvalue at or below that,
so it cannot hold the least one and it passes the leastness certificate
below, whose floor is lower.  The others get their least eigenvalue, and
the lowest one's eigenvector is mapped back to a real amplitude matrix phi.

The value is certified in D's frame.  The computed P, Q and sigma give B
only up to the SVD gap g = s^2 (sum |C - P diag(sigma) Q^T| plus a term
for the orthogonality defect of P and Q), since ||S_k (x) S_l|| = s^2;
so B's eigenvalues lie within g of D's.  The residual of phi against D
plus g within the tolerance shows an eigenvalue of B near the value; a
Cholesky factor of every block of D shifted by value - tol + g shows no
eigenvalue of B lies below value - tol.  Only the blocks without a factor
at lam0 + tol are factored again.  quantum_value stops there and
reports the Schmidt coefficients of phi, which are those of B's ground
state by local-unitary invariance.  quantum_bound also rotates phi back
to B's frame and checks its residual against the full C, a cross-check
of the rotation code.  Both residuals come from one real kernel,
Psi -> sum_kl a_kl R_k Psi R_l^T.  bell_operator keeps the dense B as the
reference oracle.
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
    """Square complex matrix, Hermitian within HERMITICITY_TOL * max(1, max|entries|)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(m))):
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


# S_j = _PHASES[j] R_j over the real table R of _spin_matrices; S_j (x) S_j = _SIGNS[j] R_j (x) R_j
_PHASES = np.array([1.0, -1.0j, 1.0])
_SIGNS = (_PHASES * _PHASES).real


@lru_cache(maxsize=None)
def _spin_matrices(doubled: int) -> np.ndarray:
    """Read-only real (3, 2s+1, 2s+1) table S_x, i S_y = (S_+ - S_-) / 2, S_z, cached per spin."""
    sval = doubled / 2.0
    m = np.arange(doubled, -doubled - 1, -2) / 2.0
    raising = np.diag(np.sqrt(sval * (sval + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    table = np.stack([(raising + raising.T) / 2.0, (raising - raising.T) / 2.0, np.diag(m)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _sy_eigenbasis(doubled: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_PHASES[1] * _spin_matrices(doubled)[1])


# characters of the symmetries {1, flip, swap, flip swap} of D, one row
# each: (+, +), (+, -), (-, +), (-, -) on (flip, swap)
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


@dataclass(frozen=True, eq=False)
class _SymmetryBlocks:
    """The symmetry-adapted basis of D and the block entries it gives.

    Blocks are in the fixed order: by size, then even parity first, then
    by character in the order of _CHARACTERS; stacks lists (count, size)
    for each run of equal sizes.  Row k of members and coefficients is
    basis vector k, v_r for least indices r block after block and rising
    within a block, with amplitude coefficients[k, g] at the flat index
    members[k, g] = g r; repeated images add up.  The blocks, laid end to
    end row-major, hold sigma @ weights at positions and zero elsewhere.
    """

    sizes: np.ndarray
    stacks: tuple[tuple[int, int], ...]
    members: np.ndarray
    coefficients: np.ndarray
    positions: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _symmetry_blocks(doubled: int) -> _SymmetryBlocks:
    """The nonempty blocks of D by parity of i + j and character chi of flip and swap.

    The projector identity: for least indices r', r of orbits of
    G = {1, flip, swap, flip swap} with chi 1 on their stabilisers,
    v_r = sum_g chi(g) e_{g r} / sqrt(4 |stab r|) is a unit vector, and as
    D commutes with G,
        <v_r'| D |v_r> = sum_b chi(g_b) sqrt(|stab r| / |stab r'|) D[r', b]
    over the nonzero entries b = g_b r of D's row r' in r's orbit.  Only
    the rows of least indices are read, from the tridiagonal one-party
    matrices; no (2s+1)^2-square matrix is formed.
    """
    d = doubled + 1
    n = d * d
    i, j = np.divmod(np.arange(n), d)
    # images of each flat index under 1, flip, swap and flip swap; each g is its own inverse
    images = np.stack([i * d + j, n - 1 - (i * d + j), j * d + i, n - 1 - (j * d + i)])
    fixed = images == images[0]
    stabiliser = fixed.sum(axis=0)
    orbit = images.min(axis=0)
    to_least = np.argmax(images == orbit, axis=0)
    least = np.flatnonzero(orbit == np.arange(n))

    # row (i, j) of D is nonzero at most at (i + di, j + dj), |di|, |dj| <= 1:
    # the one-party matrices, padded by one, give those 9 entries of each least row
    real = np.pad(_spin_matrices(doubled), ((0, 0), (1, 1), (1, 1)))
    si, sj = i[least, None] + 1, j[least, None] + 1
    ti, tj = si + np.repeat([-1, 0, 1], 3), sj + np.tile([-1, 0, 1], 3)
    values = _SIGNS[:, None, None] * real[:, si, ti] * real[:, sj, tj]
    read = np.any(values != 0, axis=0)
    source, target = np.repeat(least, 9)[read.ravel()], ((ti - 1) * d + tj - 1)[read]
    g, target = to_least[target], orbit[target]
    values = values[:, read] * np.sqrt(stabiliser[target] / stabiliser[source])
    # the entries of row r' in the orbit of r add up to one block entry
    pair, where = np.unique(source * n + target, return_inverse=True)
    pair_row, pair_col = np.divmod(pair, n)
    where = (where + len(pair) * np.arange(3)[:, None]).ravel()  # one bin per sigma_j and pair

    # chi has a basis vector on the orbit of r when it is 1 on stab r, so sums to |stab r| there
    parity = (i + j)[least] % 2
    bases = [least[(parity == k // 4) & (_CHARACTERS[k % 4] @ fixed[:, least] > 0)] for k in range(8)]
    # the fixed order of the blocks: by size, then by label
    order = [k for k in sorted(range(8), key=lambda k: len(bases[k])) if len(bases[k])]
    sizes = np.array([len(bases[k]) for k in order])
    start = 0
    positions, weights = [], []
    for k, size in zip(order, sizes.tolist()):
        column = np.full(n, -1)
        column[bases[k]] = np.arange(size)
        # D keeps parity, so a row of the block meets only this block's columns
        row, col = column[pair_row], column[pair_col]
        inside = (row >= 0) & (col >= 0)
        summed = np.bincount(where, (values * _CHARACTERS[k % 4][g]).ravel(), 3 * len(pair))
        positions.append((start + row * size + col)[inside])
        weights.append(summed.reshape(3, -1)[:, inside])
        start += size * size
    basis = np.concatenate([bases[k] for k in order])
    characters = np.repeat(_CHARACTERS[[k % 4 for k in order]], sizes, axis=0)
    return _SymmetryBlocks(
        sizes=sizes,
        stacks=tuple((len(list(run)), size) for size, run in groupby(sizes.tolist())),
        members=images[:, basis].T,
        coefficients=characters / np.sqrt(4.0 * stabiliser[basis])[:, None],
        positions=np.concatenate(positions),
        weights=np.concatenate(weights, axis=1),
    )


def spin_operators(s: SpinValue) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """The (2s+1)-dimensional matrices (S_x, S_y, S_z) in the S_z eigenbasis.

    Basis ordered m = s down to -s; built from the ladder operator with
    matrix elements sqrt(s(s+1) - m(m+1)).
    """
    _check_spin(s)
    sx, sy, sz = _PHASES[:, None, None] * _spin_matrices(s.doubled)
    return (HermitianOperator(sx), HermitianOperator(sy), HermitianOperator(sz))


def bell_operator(C, s: SpinValue) -> HermitianOperator:
    """sum_kl c_kl S_k (x) S_l on the bipartite space of two spin-s parties.

    Dense (2s+1)^2-square reference for tests.  bounds solves in D's
    frame; quantum_bound and table1 apply B through bell_action.
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
    S_k Psi S_l^T = phase_k phase_l R_k Psi R_l^T.
    """
    cm = as_coefficient_matrix(C)
    _check_spin(s)
    d = s.doubled + 1
    if state.dim != d * d:
        raise DimensionMismatch(f"state dim {state.dim} != bipartite dim {d * d} for spin {s}")
    a = cm.entries * np.outer(_PHASES, _PHASES)
    return _action(a, s.doubled, state.amplitudes.reshape(d, d)).reshape(-1)


def _action(a: np.ndarray, doubled: int, psi: np.ndarray) -> np.ndarray:
    """sum_kl a_kl R_k Psi R_l^T over the real table, as sum_k R_k Psi (sum_l a_kl R_l)^T."""
    table = _spin_matrices(doubled)
    d = doubled + 1
    partners = (a @ table.reshape(3, d * d)).reshape(3, d, d)
    return sum(table[k] @ psi @ partners[k].T for k in range(3))


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


def _has_factor(blocks: np.ndarray, floor: float) -> bool:
    """Whether block - floor * I has a Cholesky factor, so all its eigenvalues exceed floor.

    For a (count, size, size) stack, one call answers for every block.
    """
    # floor on the diagonal only: an infinite floor times I would put nan off it
    with np.errstate(over="ignore"):
        shifted = blocks - np.diag(np.full(blocks.shape[-1], floor))
    # cholesky factors a diagonal the shift overflowed to inf without complaint
    if not np.all(np.isfinite(shifted)):
        return False
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _diagonal_ground_state(
    stacks: list[np.ndarray], doubled: int, tol: float
) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Least eigenvalue of D, a real eigenvector as a (2s+1, 2s+1) amplitude matrix, and the candidates.

    The candidates are the largest block, solved first for lam0, and the
    blocks without a Cholesky factor at lam0 + tol, tried a stack at a time
    and block by block only in a stack that fails.  A block with a factor
    lies above the least eigenvalue and above the certificate's floor
    value - tol + g, as g <= tol and value <= lam0 up to rounding.  The
    candidate with the least eigenvalue (the first in the fixed order on an
    exact tie) is solved for its vector unless it is the largest block.
    """
    table = _symmetry_blocks(doubled)
    blocks = [block for stack in stacks for block in stack]
    k = last = len(blocks) - 1
    eigenvalues, eigenvectors = np.linalg.eigh(blocks[last])
    floor, candidates, start = eigenvalues[0] + tol, [], 0
    for stack in stacks:
        others = stack[: last - start]  # all but the largest block, the last of all
        if len(others) and not _has_factor(others, floor):
            candidates += [start + j for j, block in enumerate(others) if not _has_factor(block, floor)]
        start += len(stack)
    candidates.append(last)
    if len(candidates) > 1:
        k = candidates[int(np.argmin([np.linalg.eigvalsh(blocks[j])[0] for j in candidates]))]
    if k != last:
        eigenvalues, eigenvectors = np.linalg.eigh(blocks[k])
    block = slice(int(table.sizes[:k].sum()), int(table.sizes[: k + 1].sum()))
    amplitudes = table.coefficients[block] * eigenvectors[:, :1]
    d = doubled + 1
    phi = np.bincount(table.members[block].ravel(), amplitudes.ravel(), d * d)
    return float(eigenvalues[0]), phi.reshape(d, d), [blocks[j] for j in candidates]


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x as max|x| times the norm of x / max|x|, so no square overflows.

    Infinite only when the norm itself exceeds the float range.
    """
    peak = float(np.max(np.abs(x)))
    if not 0.0 < peak < math.inf:
        return peak
    return peak * float(np.linalg.norm(x / peak))


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
    lam, phi, candidates = _diagonal_ground_state(stacks, s.doubled, tol)
    # an overflow gives an infinite or nan residual or gap, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(_action(np.diag(sigma * _SIGNS), s.doubled, phi) - lam * phi)
        gap = s.value**2 * _svd_gap(cm.entries, p, sigma, q)
    if not residual + gap <= tol:
        raise EigensolverFailure(
            f"eigenpair residual {residual:.3e} plus SVD gap {gap:.3e} exceeds tolerance"
        )
    floor = lam - tol + gap
    if not all(_has_factor(block, floor) for block in candidates):
        raise EigensolverFailure(f"an eigenvalue lies at or below {floor:.17g}, under the one found")
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
    z_diag = _spin_matrices(s.doubled)[2].diagonal()
    y_eigvals, y_eigvecs = _sy_eigenbasis(s.doubled)
    uy = (y_eigvecs * np.exp(1j * angles.phi * y_eigvals)) @ y_eigvecs.conj().T
    unitary = np.exp(1j * angles.theta * z_diag)[:, None] * uy * np.exp(1j * angles.xi * z_diag)
    residual = float(np.linalg.norm(unitary.conj().T @ unitary - np.eye(len(unitary))))
    if residual > UNITARITY_TOL:
        raise EigensolverFailure(f"unitarity residual {residual:.3e} exceeds tolerance")
    return unitary


def rotated_singlet(C, s: SpinValue) -> StateVector:
    """The singlet with party B rotated by the unitary representing C."""
    unitary = rotation_unitary(s, euler_from_rotation(C))
    d = s.doubled + 1
    # (1 (x) U) acts on the amplitude matrix as Psi U^T
    return StateVector(singlet_state(s).amplitudes.reshape(d, d) @ unitary.T)


def expectation(state: StateVector, op: HermitianOperator) -> float:
    """<state| op |state> as a real number, imaginary within 1e-10 * max(1, max|entries|)."""
    if state.dim != op.dim:
        raise DimensionMismatch(f"state dim {state.dim} != operator dim {op.dim}")
    value = complex(np.vdot(state.amplitudes, op.entries @ state.amplitudes))
    if abs(value.imag) > 1e-10 * max(1.0, float(np.max(np.abs(op.entries)))):
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
    """Probability |<v|state>|^2 of measuring the given projection along x, y or z.

    v is the axis eigenvector of that projection; its phase does not matter.
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
    return float(abs(np.vdot(eigenvectors[:, k], state.amplitudes)) ** 2)
