"""Spin-s operators, Bell operators, singlet states and their rotations.

A two-party state is its complex (2s+1)-square amplitude matrix, party A as rows.

The quantum bound beta_q is the least eigenvalue of the Bell operator
B = sum_kl c_kl S_k (x) S_l.  It is found without forming B.  Write
C = P diag(sigma) Q^T with P, Q proper rotations (a reflection in the SVD
factors moves into the sign of sigma_3).  Spin operators transform as
vectors, U_R S_j U_R^+ = sum_k R_jk S_k, so with the local unitaries of
P^T and Q^T

    B = (U_P (x) U_Q) D (U_P (x) U_Q)^+,   D = sum_j sigma_j S_j (x) S_j.

U_R comes from the rotation matrix itself: it maps the standard basis of
S to that of T_j = sum_k R_jk S_k, the eigenvectors of T_z phased so that
T_x + i T_y has real positive steps, as S_+ has.  That fixes U_R up to a
global phase, which no caller depends on.

B and D share their spectrum, and their ground states differ by a local
unitary, which keeps the Schmidt coefficients.  Every operator here
comes from one real table R = (S_x, i S_y, S_z) in the S_z basis and one
phase constant, S_j = phase_j R_j with phase = (1, -i, 1), so D =
sum_j sigma_j phase_j^2 R_j (x) R_j is real.  It
changes m_A + m_B by 0 or +-2 only, so it keeps the parity p of i + j over
basis indices (i, j), and it commutes with two index permutations that
keep that parity: the flip (i, j) -> (d-1-i, d-1-j), up to sign a
rotation by pi about x on both parties, and the swap (i, j) -> (j, i).
So D splits into 8 real blocks, one per parity and character of
{1, flip, swap, flip swap}.

Only two of them can hold the least eigenvalue (Marshall's sign rule;
Lieb and Mattis, J. Math. Phys. 3, 749 (1962)).  After the sign fix
sigma_1 >= sigma_2 >= |sigma_3|, so

    D = (sigma_1 - sigma_2)/4 (S+ S+ + S- S-) + (sigma_1 + sigma_2)/4 (S+ S- + S- S+)
        + sigma_3 S_z S_z

has nonnegative off-diagonal entries, and conjugating by (-1)^i on party
A makes them all nonpositive.  Within parity p the conjugated matrix
commutes with flip and swap, so by Perron-Frobenius it has a nonnegative
ground vector, and the sum of its images under the group is a nonnegative
ground vector fixed by both.  Undoing the conjugation, sector p has a
ground state with flip character (-1)^(2s) and swap character (-1)^p.  So
the least eigenvalue of D is the lesser of the least eigenvalues of these
two Perron blocks, and the other six blocks are never built, as
multilinearity lets the standard bound scan only 8 corners.  The largest
Perron block has 66 rows at 2s = 20 and 231 at 2s = 40.

A block's basis vector is v_r = sum_g chi(g) e_{g r} / sqrt(4 |stab r|)
for the least index r of an orbit on whose stabiliser the character chi
is 1.  Since D commutes with the group, the projector identity gives each
block entry from one row of D,

    <v_r'| D |v_r> = sum_b chi(g_b) sqrt(|stab r| / |stab r'|) D[r', b],

over the nonzero entries b = g_b r of row r' in the orbit of r, so only
the rows of the least indices of the two blocks are read.

The value is lam_L, the least eigenvalue of the larger block (the last
in the fixed order), unless a Cholesky factor of the smaller block
shifted by lam_L is missing; only then is the smaller block solved too,
and the lesser minimum wins (the first block on an exact tie).  Two steps
of inverse iteration on the winner shifted to value - tol give its
vector, from the sign pattern (-1)^i of each basis vector's least index:
the conjugated ground vector is nonnegative, so the start is not
orthogonal to it.  The vector is mapped back to a real amplitude matrix
phi.

The value is certified in D's frame.  The computed P, Q and sigma give B
only up to the SVD gap g = s^2 (sum |C - P diag(sigma) Q^T| plus a term
for the orthogonality defect of P and Q), since ||S_k (x) S_l|| = s^2;
so B's eigenvalues lie within g of D's.  The residual of phi against the
full D plus g within the tolerance shows an eigenvalue of B near the
value.  A Cholesky factor of both Perron blocks shifted by
value - tol + g (for the smaller block, the exclusion factor when lam_L
is not below that floor) shows that neither has an eigenvalue at or
below it; the theorem, not a computation, shows the other six blocks
have none below the lesser Perron minimum.  Together no eigenvalue of B
lies below value - tol.  quantum_value stops there and reports the
Schmidt coefficients of phi, which are those of B's ground state by
local-unitary invariance, with the solve's sizes, effort and residuals.
quantum_bound also rotates phi back to B's frame and checks its residual
against the full C, a cross-check of the rotation code.  Both residuals
come from one real kernel, Psi -> sum_kl a_kl R_k Psi R_l^T.
bell_operator keeps the dense B as the reference oracle.
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
    InvalidInput,
    NonFiniteMatrix,
    NotARotation,
    UnsupportedSpin,
)
from .number_theory import SpinValue

HERMITICITY_TOL = 1e-12  # on max|op - op^+|, relative to max(1, max|op|)
IMAGINARY_TOL = 1e-10  # on |Im <state| op |state>|, relative to the same scale
NORM_TOL = 1e-12
ROTATION_TOL = 1e-12
SCHMIDT_NORM_TOL = 1e-10
UNITARITY_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-9

# the largest Perron block of D has 231 rows at 2s = 40
MAX_SPIN_DOUBLED = 40


def _check_spin(s: SpinValue) -> None:
    if s.doubled > MAX_SPIN_DOUBLED:
        raise UnsupportedSpin(
            f"spin doubled value {s.doubled} outside supported range 1..{MAX_SPIN_DOUBLED}"
        )


def _amplitudes(state) -> np.ndarray:
    """A state as its complex (2s+1)-square amplitude matrix, party A as rows: 2s >= 1, finite, unit norm."""
    psi = np.asarray(state, dtype=complex)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise DimensionMismatch(f"state of shape {psi.shape} is not a square amplitude matrix")
    SpinValue(len(psi) - 1)  # a 1x1 state raises UnsupportedSpin
    if not np.all(np.isfinite(psi)):
        raise NonFiniteMatrix("state vector has non-finite amplitudes")
    if abs(float(np.linalg.norm(psi)) - 1.0) > NORM_TOL:
        raise InvalidInput("state vector is not normalized")
    return psi


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


# characters of the symmetries {1, flip, swap, flip swap} of D, one row
# each: (+, +), (+, -), (-, +), (-, -) on (flip, swap)
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


@dataclass(frozen=True, eq=False)
class _SymmetryBlocks:
    """The symmetry-adapted bases of D's two Perron blocks and the block entries they give.

    The blocks are in the fixed order: by size, then even parity first.
    Row k of members and coefficients is basis vector k, v_r for least
    indices r block after block and rising within a block, with amplitude
    coefficients[k, g] at the flat index members[k, g] = g r; repeated
    images add up.  The two blocks, laid end to end row-major, hold
    sigma @ weights at positions and zero elsewhere.
    """

    sizes: np.ndarray
    members: np.ndarray
    coefficients: np.ndarray
    positions: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _symmetry_blocks(doubled: int) -> _SymmetryBlocks:
    """The two blocks of D that hold its least eigenvalue, one per parity of i + j.

    The projector identity: for least indices r', r of orbits of
    G = {1, flip, swap, flip swap} with chi 1 on their stabilisers,
    v_r = sum_g chi(g) e_{g r} / sqrt(4 |stab r|) is a unit vector, and as
    D commutes with G,
        <v_r'| D |v_r> = sum_b chi(g_b) sqrt(|stab r| / |stab r'|) D[r', b]
    over the nonzero entries b = g_b r of D's row r' in r's orbit.  Only
    the rows of the two blocks' least indices are read, from the
    tridiagonal one-party matrices; no (2s+1)^2-square matrix is formed.
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
    parity = (i + j)[least] % 2
    # the Perron blocks: parity p, flip character (-1)^(2s) and swap character (-1)^p
    chi = _CHARACTERS[2 * (doubled % 2) : 2 * (doubled % 2) + 2]
    # chi has a basis vector on the orbit of r when it is 1 on stab r, so sums to |stab r| there
    bases = [least[(parity == p) & (chi[p] @ fixed[:, least] > 0)] for p in (0, 1)]
    # the fixed order: by size, then even parity first (sorted is stable)
    order = sorted((0, 1), key=lambda p: len(bases[p]))
    rows = np.sort(np.concatenate(bases))

    # row (i, j) of D is nonzero at most at (i + di, j + dj), |di|, |dj| <= 1:
    # the one-party matrices, padded by one, give those 9 entries of each row read
    real = np.pad(_spin_matrices(doubled), ((0, 0), (1, 1), (1, 1)))
    si, sj = i[rows, None] + 1, j[rows, None] + 1
    ti, tj = si + np.repeat([-1, 0, 1], 3), sj + np.tile([-1, 0, 1], 3)
    values = _SIGNS[:, None, None] * real[:, si, ti] * real[:, sj, tj]
    read = np.any(values != 0, axis=0)
    source, target = np.repeat(rows, 9)[read.ravel()], ((ti - 1) * d + tj - 1)[read]
    g, target = to_least[target], orbit[target]
    values = values[:, read] * np.sqrt(stabiliser[target] / stabiliser[source])
    # the entries of row r' in the orbit of r add up to one block entry
    pair, where = np.unique(source * n + target, return_inverse=True)
    pair_row, pair_col = np.divmod(pair, n)
    where = (where + len(pair) * np.arange(3)[:, None]).ravel()  # one bin per sigma_j and pair

    sizes = np.array([len(bases[p]) for p in order])
    start = 0
    positions, weights = [], []
    for p, size in zip(order, sizes.tolist()):
        column = np.full(n, -1)
        column[bases[p]] = np.arange(size)
        # D keeps parity, so a row of the block meets only this block's columns
        row, col = column[pair_row], column[pair_col]
        inside = (row >= 0) & (col >= 0)
        summed = np.bincount(where, (values * chi[p][g]).ravel(), 3 * len(pair))
        positions.append((start + row * size + col)[inside])
        weights.append(summed.reshape(3, -1)[:, inside])
        start += size * size
    basis = np.concatenate([bases[p] for p in order])
    characters = np.repeat(chi[order], sizes, axis=0)
    return _SymmetryBlocks(
        sizes=sizes,
        members=images[:, basis].T,
        coefficients=characters / np.sqrt(4.0 * stabiliser[basis])[:, None],
        positions=np.concatenate(positions),
        weights=np.concatenate(weights, axis=1),
    )


def spin_operators(s: SpinValue) -> np.ndarray:
    """The (2s+1)-dimensional matrices (S_x, S_y, S_z) in the S_z eigenbasis, a (3, 2s+1, 2s+1) array.

    Basis ordered m = s down to -s; built from the ladder operator with
    matrix elements sqrt(s(s+1) - m(m+1)).
    """
    _check_spin(s)
    return _PHASES[:, None, None] * _spin_matrices(s.doubled)


def bell_operator(C, s: SpinValue) -> np.ndarray:
    """sum_kl c_kl S_k (x) S_l on the bipartite space of two spin-s parties.

    Dense (2s+1)^2-square complex reference for tests.  bounds solves in
    D's frame; quantum_bound and table1 apply B through bell_action.
    """
    entries = as_coefficient_matrix(C)
    ops = spin_operators(s)
    dim = (s.doubled + 1) ** 2
    terms = (c * np.kron(ops[k], ops[l]) for (k, l), c in np.ndenumerate(entries) if c != 0.0)
    return sum(terms, np.zeros((dim, dim), dtype=complex))


def bell_action(C, state) -> np.ndarray:
    """The amplitude matrix of (sum_kl c_kl S_k (x) S_l) |state>, without forming the operator.

    The state is a (2s+1)-square amplitude matrix Psi, party A as rows, on
    which S_k (x) S_l acts as S_k Psi S_l^T = phase_k phase_l R_k Psi R_l^T.
    """
    c = as_coefficient_matrix(C)
    psi = _amplitudes(state)
    _check_spin(SpinValue(len(psi) - 1))
    a = c * np.outer(_PHASES, _PHASES)
    return _action(a, len(psi) - 1, psi)


def _action(a: np.ndarray, doubled: int, psi: np.ndarray) -> np.ndarray:
    """sum_kl a_kl R_k Psi R_l^T over the real table, as sum_k R_k Psi (sum_l a_kl R_l)^T."""
    table = _spin_matrices(doubled)
    d = doubled + 1
    partners = (a @ table.reshape(3, d * d)).reshape(3, d, d)
    return sum(table[k] @ psi @ partners[k].T for k in range(3))


def _diagonal_blocks(sigma: np.ndarray, doubled: int) -> list[np.ndarray]:
    """The two Perron blocks of D = sum_j sigma_j S_j (x) S_j, in the fixed order."""
    table = _symmetry_blocks(doubled)
    first, second = table.sizes.tolist()
    flat = np.bincount(table.positions, weights=sigma @ table.weights, minlength=first**2 + second**2)
    return [flat[: first**2].reshape(first, first), flat[first**2 :].reshape(second, second)]


def _has_factor(block: np.ndarray, floor: float) -> bool:
    """Whether block - floor * I has a Cholesky factor, so all its eigenvalues exceed floor."""
    # floor on the diagonal only: an infinite floor times I would put nan off it
    with np.errstate(over="ignore"):
        shifted = block - np.diag(np.full(len(block), floor))
    # cholesky factors a diagonal the shift overflowed to inf without complaint
    if not np.all(np.isfinite(shifted)):
        return False
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _diagonal_ground_state(
    blocks: list[np.ndarray], doubled: int, tol: float
) -> tuple[float, np.ndarray, float, int]:
    """Least eigenvalue of D, a real eigenvector as a (2s+1, 2s+1) amplitude matrix, and effort.

    Also the shift the smaller block was shown to lie above (-inf when it
    was solved instead) and the number of eigvalsh calls.
    """
    table = _symmetry_blocks(doubled)
    value, k, cleared, calls = float(np.linalg.eigvalsh(blocks[1])[0]), 1, -math.inf, 1
    if _has_factor(blocks[0], value):
        cleared = value
    else:
        least, calls = float(np.linalg.eigvalsh(blocks[0])[0]), 2
        if least <= value:
            k, value = 0, least
    rows = slice(0, len(blocks[0])) if k == 0 else slice(len(blocks[0]), None)
    d = doubled + 1
    # inverse iteration from the Perron sign pattern, on the block and shift over
    # max(max|block|, |shift|): no shifted entry overflows, and a tol below the
    # normal range (the zero matrix) leaves no subnormal system
    vector = 1.0 - 2.0 * (table.members[rows, 0] // d % 2)
    peak = max(float(np.max(np.abs(blocks[k]))), abs(value - tol))
    shifted = blocks[k] / peak
    shifted.flat[:: len(shifted) + 1] -= (value - tol) / peak
    for _ in range(2):  # one step can leave a residual above tol
        try:
            vector = np.linalg.solve(shifted, vector)
        except np.linalg.LinAlgError:
            raise EigensolverFailure("the shifted Perron block is singular") from None
        vector = vector / np.linalg.norm(vector)
    amplitudes = table.coefficients[rows] * vector[:, None]
    phi = np.bincount(table.members[rows].ravel(), amplitudes.ravel(), d * d)
    return value, phi.reshape(d, d), cleared, calls


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


@dataclass(frozen=True)
class EigenDiagnostics:
    """Sizes, effort and residuals of quantum_value's certified solve.

    perron_block_sizes are the rows of the two Perron blocks in the fixed
    order; eigvalsh_calls is 2 when the smaller block had no exclusion
    factor, else 1; the residual of phi against D plus svd_gap (s^2 times
    the SVD gap) stayed within eigen_tolerance.
    """

    perron_block_sizes: tuple[int, int]
    eigvalsh_calls: int
    eigen_residual: float
    svd_gap: float
    eigen_tolerance: float


def _diagonal_solution(C, s: SpinValue) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, EigenDiagnostics]:
    """The least eigenvalue of B certified in D's frame (module docstring), with phi, P, Q and diagnostics.

    tol = EIG_RESIDUAL_TOL * ||C||_F s(s+1), the scale floored only at the
    least normal float so the zero matrix keeps a positive tol.  The norms
    are taken overflow-safe, and a tol that is not finite, which would pass
    any residual, raises EigensolverFailure before the solve.
    """
    c = as_coefficient_matrix(C)
    _check_spin(s)
    scale = _norm(c) * s.value * (s.value + 1.0)
    tol = EIG_RESIDUAL_TOL * max(scale, np.finfo(float).tiny)
    if not math.isfinite(tol):
        raise EigensolverFailure("eigenpair tolerance overflows for this matrix and spin")
    p, sigma, qt = np.linalg.svd(c)
    q = qt.T
    for factor in (p, q):
        if np.linalg.det(factor) < 0:
            factor[:, 2] = -factor[:, 2]
            sigma[2] = -sigma[2]
    blocks = _diagonal_blocks(sigma, s.doubled)
    lam, phi, cleared, calls = _diagonal_ground_state(blocks, s.doubled, tol)
    # an overflow gives an infinite or nan residual or gap, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(_action(np.diag(sigma * _SIGNS), s.doubled, phi) - lam * phi)
        gap = s.value**2 * _svd_gap(c, p, sigma, q)
    if not residual + gap <= tol:
        raise EigensolverFailure(
            f"eigenpair residual {residual:.3e} plus SVD gap {gap:.3e} exceeds tolerance"
        )
    floor = lam - tol + gap
    pending = blocks[1:] if cleared >= floor else blocks
    if not all(_has_factor(block, floor) for block in pending):
        raise EigensolverFailure(f"an eigenvalue lies at or below {floor:.17g}, under the one found")
    sizes = (len(blocks[0]), len(blocks[1]))
    return lam, phi, p, q, EigenDiagnostics(sizes, calls, residual, gap, tol)


def quantum_value(C, s: SpinValue) -> tuple[float, np.ndarray, EigenDiagnostics]:
    """Minimal eigenvalue of the Bell operator, the Schmidt coefficients of an optimal state, and diagnostics.

    All come from D's frame with its certificate (module docstring): the
    coefficients are the singular values of D's ground-state amplitude
    matrix, descending, which a local unitary does not change.  No state
    is rotated back.
    """
    lam, phi, _, _, diagnostics = _diagonal_solution(C, s)
    return lam, _singular_values(phi), diagnostics


def quantum_bound(C, s: SpinValue) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue of the Bell operator and an optimal state, as an amplitude matrix.

    The value and its certificate are quantum_value's; the ground state of
    D is rotated back by U_P (x) U_Q, and its residual against the full C
    must stay within the same tol, a check of the rotation code.
    """
    lam, phi, p, q, diagnostics = _diagonal_solution(C, s)
    u_p = rotation_unitary(s, p.T)
    u_q = rotation_unitary(s, q.T)
    state = u_p @ phi @ u_q.T
    # an overflowing action gives an infinite or nan residual, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(bell_action(C, state) - lam * state)
    if not residual <= diagnostics.eigen_tolerance:
        raise EigensolverFailure(f"eigenpair residual {residual:.3e} exceeds tolerance")
    return lam, state


def singlet_state(s: SpinValue) -> np.ndarray:
    """The rotation-invariant total-spin-zero state of two spin-s parties, as an amplitude matrix.

    Amplitude (-1)^(s-m) / sqrt(2s+1) at (m, -m) and zero elsewhere;
    the sign exponent s - m is an exact integer in doubled arithmetic.
    """
    _check_spin(s)
    d = s.doubled + 1
    # row i holds m = s - i, so -m sits in column d - 1 - i
    return np.fliplr(np.diag((-1.0) ** np.arange(d) / math.sqrt(d))).astype(complex)


def rotation_unitary(s: SpinValue, R) -> np.ndarray:
    """A unitary U on the spin-s space with U S_j U^+ = sum_k R_jk S_k for a proper rotation R.

    U maps the standard basis of S to that of T_j = sum_k R_jk S_k: column
    m is the eigenvector of T_z for m, with phases that make every
    <m+1| T_x + i T_y |m> real and positive, as <m+1| S_+ |m> is.  The
    T_j obey the spin commutators only for det R = +1, so an R not
    orthogonal with determinant +1, both within ROTATION_TOL, raises
    NotARotation.  U is defined only up to a global phase.
    """
    r = as_coefficient_matrix(R)
    # a finite matrix may still overflow here; it is then no rotation
    with np.errstate(over="ignore", invalid="ignore"):
        orthogonal = float(np.max(np.abs(r.T @ r - np.eye(3)))) <= ROTATION_TOL
        unit_det = abs(float(np.linalg.det(r)) - 1.0) <= ROTATION_TOL
    if not (orthogonal and unit_det):
        raise NotARotation("matrix is not orthogonal with determinant +1")
    _check_spin(s)
    d = s.doubled + 1
    # T_z and T_+ = T_x + i T_y over the real table, S_k = phase_k R_k
    rows = np.array([r[2], r[0] + 1j * r[1]]) * _PHASES
    t_z, t_plus = (rows @ _spin_matrices(s.doubled).reshape(3, d * d)).reshape(2, d, d)
    # eigh orders m = -s .. s; t_m = <v_{m+1}| T_+ |v_m> sets the phase of v_{m+1}
    vectors = np.linalg.eigh(t_z)[1]
    steps = np.sum(vectors[:, 1:].conj() * (t_plus @ vectors[:, :-1]), axis=0)
    phases = np.exp(1j * np.concatenate([[0.0], np.cumsum(np.angle(steps))]))
    unitary = (vectors * phases)[:, ::-1]
    residual = float(np.linalg.norm(unitary.conj().T @ unitary - np.eye(len(unitary))))
    if residual > UNITARITY_TOL:
        raise EigensolverFailure(f"unitarity residual {residual:.3e} exceeds tolerance")
    return unitary


def rotated_singlet(C, s: SpinValue) -> np.ndarray:
    """The singlet with party B rotated by the unitary representing C."""
    # (1 (x) U) acts on the amplitude matrix as Psi U^T
    return singlet_state(s) @ rotation_unitary(s, C).T


def expectation(state, op) -> float:
    """<state| op |state> of a finite op of side (2s+1)^2, Hermitian and real to HERMITICITY_TOL, IMAGINARY_TOL."""
    psi = _amplitudes(state).ravel()
    m = np.asarray(op, dtype=complex)
    if m.shape != (len(psi), len(psi)):
        raise DimensionMismatch(f"operator of shape {m.shape} for a state of dim {len(psi)}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrix("operator has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * scale:
        raise InvalidInput("matrix is not Hermitian within tolerance")
    value = complex(np.vdot(psi, m @ psi))
    if abs(value.imag) > IMAGINARY_TOL * scale:
        raise InvalidInput(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def schmidt_coefficients(state) -> np.ndarray:
    """Singular values of the amplitude matrix, descending."""
    return _singular_values(_amplitudes(state))


def _singular_values(amplitudes: np.ndarray) -> np.ndarray:
    coeffs = np.linalg.svd(amplitudes, compute_uv=False)
    if abs(float(np.sum(coeffs**2)) - 1.0) > SCHMIDT_NORM_TOL:
        raise EigensolverFailure("Schmidt coefficients do not square-sum to one")
    return coeffs
