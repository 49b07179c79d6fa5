import math

import numpy as np
import pytest

from spinhv import (
    DimensionMismatch,
    EigensolverFailure,
    InvalidInput,
    NonFiniteMatrix,
    NotARotation,
    SpinValue,
    UnsupportedSpin,
    bell_action,
    bell_operator,
    classical_bound,
    expectation,
    quantum_bound,
    quantum_value,
    rotated_singlet,
    rotation_unitary,
    schmidt_coefficients,
    singlet_state,
    spin_operators,
)
from spinhv.matrices import EXAMPLE1, EXAMPLE2, EXAMPLE3, IDENTITY, NAMED_MATRICES, ROTATION_Z45
import spinhv.quantum as quantum_module
from spinhv.quantum import (
    EIG_RESIDUAL_TOL,
    _SIGNS,
    _action,
    _diagonal_blocks,
    _diagonal_solution,
    _has_factor,
    _norm,
    _singular_values,
    _svd_gap,
    _symmetry_blocks,
)

SQRT2 = math.sqrt(2.0)

# characters of the symmetries {1, flip, swap, flip swap} of D, one row
# each: (+, +), (+, -), (-, +), (-, -) on (flip, swap); the labelling oracle
_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


def spin_squared(doubled: int) -> float:
    return doubled * (doubled + 2) / 4.0


def _unit(k: int, l: int) -> np.ndarray:
    """E_kl, the 3x3 unit matrix whose expectation is the correlator <S_k (x) S_l>."""
    return np.eye(3)[:, [k]] * np.eye(3)[l]


class TestSpinOperators:
    def test_half_spin(self):
        sx, sy, sz = spin_operators(SpinValue(1))
        for op in (sx, sy, sz):
            assert op.shape == (2, 2)
            assert np.allclose(np.linalg.eigvalsh(op), [-0.5, 0.5])

    def test_spin_one_z_diagonal(self):
        _, _, sz = spin_operators(SpinValue(2))
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))

    def test_spin_two_spectra(self):
        for op in spin_operators(SpinValue(4)):
            assert np.allclose(np.linalg.eigvalsh(op), [-2, -1, 0, 1, 2])

    def test_squared_sum_identity(self):
        for doubled in range(1, 13):
            ops = spin_operators(SpinValue(doubled))
            total = sum(op @ op for op in ops)
            target = spin_squared(doubled) * np.eye(doubled + 1)
            assert np.linalg.norm(total - target) <= 1e-10

    def test_commutators(self):
        for doubled in range(1, 13):
            sx, sy, sz = spin_operators(SpinValue(doubled))
            assert np.linalg.norm(sx @ sy - sy @ sx - 1j * sz) <= 1e-10
            assert np.linalg.norm(sy @ sz - sz @ sy - 1j * sx) <= 1e-10
            assert np.linalg.norm(sz @ sx - sx @ sz - 1j * sy) <= 1e-10

    def test_real_table_gives_the_ladder_operators(self):
        # S_x, S_y, S_z built from S_+ directly in complex arithmetic
        for doubled in range(1, 41):
            sval = doubled / 2.0
            m = np.arange(doubled, -doubled - 1, -2) / 2.0
            raising = np.diag(np.sqrt(sval * (sval + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
            expected = ((raising + raising.T) / 2.0, (raising - raising.T) / 2.0j, np.diag(m))
            for op, reference in zip(spin_operators(SpinValue(doubled)), expected):
                assert np.array_equal(op, reference)

    def test_unsupported_spin(self):
        with pytest.raises(UnsupportedSpin):
            spin_operators(SpinValue(0))
        with pytest.raises(UnsupportedSpin):
            spin_operators(SpinValue(41))


class TestBellOperator:
    def test_identity_half_spin(self):
        H = bell_operator(IDENTITY, SpinValue(1))
        assert np.linalg.eigvalsh(H)[0] == pytest.approx(-0.75, abs=1e-12)

    def test_zero_matrix(self):
        H = bell_operator(np.zeros((3, 3)), SpinValue(4))
        assert np.all(H == 0)

    def test_example1_dimension_and_minimum(self):
        H = bell_operator(EXAMPLE1, SpinValue(2))
        assert H.shape == (9, 9)
        expected = -(1.0 + math.sqrt(17.0)) / 2.0
        assert np.linalg.eigvalsh(H)[0] == pytest.approx(expected, abs=1e-9)


class TestQuantumBound:
    def test_example1(self):
        value, state = quantum_bound(EXAMPLE1, SpinValue(2))
        assert value == pytest.approx(-(1.0 + math.sqrt(17.0)) / 2.0, abs=1e-9)
        assert state.shape == (3, 3)

    def test_example2(self):
        value, _ = quantum_bound(EXAMPLE2, SpinValue(2))
        assert value == pytest.approx(-math.sqrt(17.0), abs=1e-9)

    def test_example3(self):
        value, _ = quantum_bound(EXAMPLE3, SpinValue(4))
        assert value == pytest.approx(-20.1897, abs=5e-4)

    def test_rotation_reaches_minus_s_s_plus_one(self):
        for doubled in range(1, 41):
            value, _ = quantum_bound(ROTATION_Z45, SpinValue(doubled))
            assert value == pytest.approx(-spin_squared(doubled), abs=1e-12 * spin_squared(doubled))

    def test_examples_violate_conserving_bound(self):
        for C, doubled in ((EXAMPLE1, 2), (EXAMPLE2, 2), (EXAMPLE3, 4)):
            beta = classical_bound(C, SpinValue(doubled), constrained=True)[0]
            assert quantum_bound(C, SpinValue(doubled))[0] < beta


# unit-norm arrays that are no amplitude matrix; a flat vector is not reshaped
_NON_SQUARE = (np.ones((2, 3)) / math.sqrt(6.0), np.eye(4)[0], np.ones((1, 2, 2)) / 2.0)


def _oracle_matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(2024)
    reflection = np.diag([1.0, 1.0, -1.0])
    rotation = ROTATION_Z45 @ np.array([[1.0, 0, 0], [0, 0.6, -0.8], [0, 0.8, 0.6]])
    matrices = [np.asarray(m, dtype=float) for m in NAMED_MATRICES.values()]
    matrices += [rng.normal(size=(3, 3)) for _ in range(20)]
    matrices += [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(20)]
    matrices += [np.zeros((3, 3)), np.diag([1.0, 0.0, 0.0])]
    # reflections, det C < 0
    matrices += [-IDENTITY, reflection, -ROTATION_Z45, rotation @ reflection, -2.0 * rotation]
    # repeated singular values
    matrices += [np.diag([2.0, 2.0, 1.0]), 3.0 * np.diag([1.0, -1.0, 1.0])]
    matrices += [rotation @ np.diag([1.0, 1.0, 0.5])]
    # rotations by pi about z and about x
    matrices += [np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0])]
    return matrices


class TestDiagonalReduction:
    """quantum_bound against the dense Bell operator and its eigensolver."""

    @pytest.mark.parametrize("doubled", range(1, 21))
    def test_matches_dense_eigensolve(self, doubled):
        s = SpinValue(doubled)
        d = doubled + 1
        for C in _oracle_matrices():
            H = bell_operator(C, s)
            eigenvalues, eigenvectors = np.linalg.eigh(H)
            value, state = quantum_bound(C, s)
            assert abs(value - eigenvalues[0]) <= 1e-10 * max(1.0, abs(eigenvalues[0]))
            scale = max(1.0, float(np.linalg.norm(C)) * spin_squared(doubled))
            residual = np.linalg.norm(H @ state.ravel() - value * state.ravel())
            assert residual <= EIG_RESIDUAL_TOL * scale
            # a degenerate ground state has no unique Schmidt coefficients, and
            # both paths resolve an eigenvector to about eps * scale / gap
            if eigenvalues[1] - eigenvalues[0] > 1e-6 * scale:
                dense = np.linalg.svd(eigenvectors[:, 0].reshape(d, d), compute_uv=False)
                assert np.max(np.abs(schmidt_coefficients(state) - dense)) <= 1e-8

    def test_random_matrices_never_raise(self):
        rng = np.random.default_rng(7)
        s = SpinValue(3)
        for _ in range(200):
            C = rng.normal(size=(3, 3))
            value, state = quantum_bound(C, s)
            assert np.linalg.norm(bell_action(C, state) - value * state) <= 1e-9

    def test_bell_action_matches_dense_operator(self):
        # built-in, random, integer, rank-deficient and reflected C
        rng = np.random.default_rng(11)
        for doubled in range(1, 13):
            s = SpinValue(doubled)
            shape = (doubled + 1, doubled + 1)
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            state = amps / np.linalg.norm(amps)
            for C in _oracle_matrices():
                dense = bell_operator(C, s) @ state.ravel()
                scale = max(1.0, float(np.linalg.norm(C)) * spin_squared(doubled))
                assert np.linalg.norm(bell_action(C, state).ravel() - dense) <= 1e-14 * scale
                assert abs(expectation(state, C) - np.vdot(state.ravel(), dense).real) <= 1e-14 * scale

    @pytest.mark.parametrize("doubled", [1, 2, 5, 12, 20, 40])
    def test_diagonal_frame_correlators_give_the_value(self, doubled):
        # T_D[k, l] = <phi| S_k (x) S_l |phi> and T = P T_D Q^T: sum_kl c_kl T_kl is
        # <phi| D |phi> = beta_q, a check of phi against B through C alone
        s = SpinValue(doubled)
        ops = spin_operators(s)
        rng = np.random.default_rng(300 + doubled)
        matrices = [np.asarray(m, dtype=float) for m in NAMED_MATRICES.values()]
        for C in matrices + [rng.normal(size=(3, 3)) for _ in range(4)]:
            lam, phi, p, q, _ = _diagonal_solution(C, s)
            t_d = np.array([[np.vdot(phi, ops[k] @ phi @ ops[l].T).real for l in range(3)] for k in range(3)])
            correlators = p @ t_d @ q.T
            assert abs(float(np.sum(C * correlators)) - lam) <= 1e-13 * max(1.0, abs(lam))

    def test_bell_action_dimension_check(self):
        for state in _NON_SQUARE:
            with pytest.raises(DimensionMismatch, match="not a square amplitude matrix"):
                bell_action(IDENTITY, state)


def _value_matrices(doubled: int) -> list[np.ndarray]:
    rng = np.random.default_rng(100 + doubled)
    matrices = [np.asarray(m, dtype=float) for m in NAMED_MATRICES.values()]
    matrices += [rng.normal(size=(3, 3)) for _ in range(4)]
    return matrices + [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(2)]


class TestQuantumValue:
    """quantum_value, certified in D's frame, against quantum_bound and the dense operator."""

    @pytest.mark.parametrize("doubled", [*range(1, 21), 25, 40])
    def test_agrees_with_quantum_bound(self, doubled):
        s = SpinValue(doubled)
        for C in _value_matrices(doubled):
            value, schmidt, _ = quantum_value(C, s)
            reference, state = quantum_bound(C, s)
            assert value == reference
            assert np.max(np.abs(schmidt - schmidt_coefficients(state))) <= 1e-12

    @pytest.mark.parametrize("doubled", range(1, 11))
    def test_matches_dense_eigvalsh(self, doubled):
        s = SpinValue(doubled)
        for C in _oracle_matrices():
            reference = np.linalg.eigvalsh(bell_operator(C, s))[0]
            for value in (quantum_value(C, s)[0], quantum_bound(C, s)[0]):
                assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))

    @pytest.mark.filterwarnings("error")
    def test_answers_at_the_float_limit(self):
        # the SVD gap's 3 max|sigma| overflows unless taken on C / max|c_kl|
        value, schmidt, _ = quantum_value(1e308 * IDENTITY, SpinValue(1))
        assert value == quantum_bound(1e308 * IDENTITY, SpinValue(1))[0]
        assert value == pytest.approx(-0.75e308, rel=1e-12)
        assert np.sum(schmidt**2) == pytest.approx(1.0, abs=1e-12)


_EIGH, _EIGVALSH = np.linalg.eigh, np.linalg.eigvalsh


def _block_eigenpair(blocks: list[np.ndarray], doubled: int, k: int, n: int):
    """Eigenpair n of block k, the vector as a (2s+1, 2s+1) amplitude matrix."""
    table = _symmetry_blocks(doubled)
    eigenvalues, eigenvectors = _EIGH(blocks[k])
    rows = slice(int(table.sizes[:k].sum()), int(table.sizes[: k + 1].sum()))
    amplitudes = table.coefficients[rows] * eigenvectors[:, n : n + 1]
    d = doubled + 1
    phi = np.bincount(table.members[rows].ravel(), amplitudes.ravel(), d * d)
    return float(eigenvalues[n]), phi.reshape(d, d)


def _second_eigenpair(excluded: bool):
    """A wrong ground state: the second eigenpair of the last block.

    Unless excluded, both blocks are factored at the floor; excluded, the
    smaller block counts as cleared at the excited value, and only the last
    block's factor can catch it.
    """

    def ground_state(blocks: list[np.ndarray], doubled: int, tol: float):
        lam, phi = _block_eigenpair(blocks, doubled, len(blocks) - 1, 1)
        return lam, phi, excluded

    return ground_state


class TestCertificateScale:
    """The leastness certificate scales with ||C||_F s(s+1), with no floor at 1."""

    @pytest.mark.parametrize("exponent", [0, -10, -30, -40, -60])
    def test_rejects_an_excited_state_at_every_scale(self, monkeypatch, exponent):
        # with both blocks factored at the floor, and with the smaller block
        # cleared by an exclusion factor at the excited value
        for excluded in (False, True):
            monkeypatch.setattr(quantum_module, "_diagonal_ground_state", _second_eigenpair(excluded))
            for C in (EXAMPLE1, EXAMPLE3):
                with pytest.raises(EigensolverFailure, match="an eigenvalue lies at or below"):
                    quantum_value(C * 2.0**exponent, SpinValue(2))

    @pytest.mark.parametrize("exponent", [0, -40, -1000])
    def test_answers_at_every_scale(self, exponent):
        C = EXAMPLE1 * 2.0**exponent
        value, schmidt, _ = quantum_value(C, SpinValue(2))
        assert value == pytest.approx(-(1.0 + math.sqrt(17.0)) / 2.0 * 2.0**exponent, rel=1e-12)
        assert np.max(np.abs(schmidt - quantum_value(EXAMPLE1, SpinValue(2))[1])) <= 1e-12


class TestSvdGap:
    def test_exact_factors_leave_a_rounding_gap(self):
        rng = np.random.default_rng(9)
        for C in [rng.normal(size=(3, 3)) for _ in range(10)] + [np.zeros((3, 3))]:
            p, sigma, qt = np.linalg.svd(C)
            assert _svd_gap(C, p, sigma, qt.T) <= 1e-14 * max(1.0, float(np.abs(C).sum()))

    def test_bounds_the_distance_to_rotation_factors(self, random_rotation):
        # C is exactly P diag(sigma) Q^T with P = (1 + 1e-6) R not orthogonal, so
        # the entry term reads rounding only; R diag(sigma) Q^T, from exact
        # rotations, lies at nuclear distance 1e-6 sum|sigma| from C
        rng = np.random.default_rng(10)
        r, q = random_rotation(rng), random_rotation(rng)
        sigma = np.array([3.0, 2.0, -0.5])
        p = (1.0 + 1e-6) * r
        C = (p * sigma) @ q.T
        assert float(np.sum(np.abs(C - (p * sigma) @ q.T))) <= 1e-14
        assert _svd_gap(C, p, sigma, q) >= 1e-6 * float(np.abs(sigma).sum())

    @pytest.mark.filterwarnings("error")
    def test_finite_near_the_float_limit(self):
        for C in (1e308 * IDENTITY, np.random.default_rng(0).normal(size=(3, 3)) * 10**307.75):
            p, sigma, qt = np.linalg.svd(C)
            gap = _svd_gap(C, p, sigma, qt.T)
            assert 0.0 <= gap <= 1e-14 * float(np.max(np.abs(C))) * 9


class TestOverflowSafeNorm:
    def test_matches_numpy_and_stays_finite(self):
        rng = np.random.default_rng(5)
        for x in (rng.normal(size=9), rng.normal(size=16) + 1j * rng.normal(size=16)):
            assert math.isclose(_norm(x), np.linalg.norm(x), rel_tol=1e-15)
            # np.linalg.norm(x * 1e300) overflows to inf
            assert math.isclose(_norm(x * 1e300), np.linalg.norm(x) * 1e300, rel_tol=1e-15)
        assert _norm(np.zeros(4)) == 0.0


def _perron_labels(doubled: int) -> list[int]:
    """4 p + row of _CHARACTERS for flip character (-1)^(2s) and swap character (-1)^p."""
    return [4 * p + 2 * (doubled % 2) + p for p in (0, 1)]


def _basis_labels(table, doubled: int) -> np.ndarray:
    """The label 4 p + row of _CHARACTERS of each basis vector, read off its least index and signs."""
    characters = np.sign(table.coefficients).astype(int)
    chi = np.argmax(np.all(characters[:, None, :] == _CHARACTERS, axis=2), axis=1)
    assert np.array_equal(_CHARACTERS[chi], characters)
    return 4 * (np.add(*np.divmod(table.members[:, 0], doubled + 1)) % 2) + chi


def _sector_dimension(doubled: int, label: int) -> int:
    """(1/4) sum_g chi(g) |fixed points of g in parity p|, the character formula."""
    d = doubled + 1
    i, j = np.divmod(np.arange(d * d), d)
    sector = (i + j) % 2 == label // 4
    # fixed by 1, flip, swap and flip swap
    fixed = [sector, (i == d - 1 - i) & (j == d - 1 - j), i == j, j == d - 1 - i]
    total = int(_CHARACTERS[label % 4] @ [int(np.sum(sector & f)) for f in fixed])
    assert total % 4 == 0
    return total // 4


def _dense_bases(table) -> list[np.ndarray]:
    """The orthonormal basis of each built block as (2s+1)^2 x size columns."""
    n = int(table.members.max()) + 1
    basis = np.zeros((n, len(table.members)))
    # repeated images of a basis vector add up
    np.add.at(basis, (table.members, np.arange(len(table.members))[:, None]), table.coefficients)
    ends = np.cumsum(table.sizes)
    return [basis[:, end - size : end] for end, size in zip(ends, table.sizes)]


class TestSymmetryBlocks:
    """D's two Perron blocks, checked against the dense D and the character formula."""

    @pytest.mark.parametrize("doubled", range(1, 41))
    def test_sizes_cover_the_space(self, doubled):
        # each built block has every basis vector of its sector, and the eight
        # sector dimensions from the character formula add up to the space
        table = _symmetry_blocks(doubled)
        assert len(table.sizes) == 2
        assert sum(_sector_dimension(doubled, label) for label in range(8)) == (doubled + 1) ** 2
        labels = _basis_labels(table, doubled)
        ends = np.cumsum(table.sizes)
        for end, size in zip(ends, table.sizes):
            assert size == _sector_dimension(doubled, int(labels[end - 1])) > 0

    @pytest.mark.parametrize("doubled", [1, 4, 40])
    def test_cached_arrays_are_read_only(self, doubled):
        # the table is cached per spin: an in-place edit would reach every later solve
        for name, array in vars(_symmetry_blocks(doubled)).items():
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
            assert not array.flags.writeable, name

    def test_largest_block_at_top_spin(self):
        assert _symmetry_blocks(40).sizes.max() == 231

    def test_sizes_and_order_follow_the_parity_of_2s(self):
        # T_m and T_(m+1) rows at 2s = 2m, T_(m+1) each at 2s = 2m + 1, and the
        # block of parity 2s mod 2 last; the weights are a row-major (N, 3) array
        triangular = [n * (n + 1) // 2 for n in range(52)]
        for doubled in range(1, 101):
            table = _symmetry_blocks(doubled)
            m = doubled // 2
            sizes = [triangular[m], triangular[m + 1]] if doubled % 2 == 0 else [triangular[m + 1]] * 2
            assert table.sizes.tolist() == sizes, doubled
            parity = np.add(*np.divmod(table.members[[0, -1], 0], doubled + 1)) % 2
            assert parity.tolist() == [1 - doubled % 2, doubled % 2], doubled
            assert table.weights.shape == (len(table.positions), 3), doubled
            assert table.weights.flags.c_contiguous, doubled

    @pytest.mark.parametrize("doubled", [*range(1, 13), 20, 21])
    def test_blocks_reproduce_dense_operator(self, doubled):
        table = _symmetry_blocks(doubled)
        assert table.members.shape == table.coefficients.shape == (table.sizes.sum(), 4)
        for sigma in (np.array([1.3, -0.4, -2.1]), np.array([2.0, 0.7, -0.7])):
            dense = bell_operator(np.diag(sigma), SpinValue(doubled))
            assert np.max(np.abs(dense.imag)) == 0.0
            blocks = _diagonal_blocks(sigma, doubled)
            assert [len(block) for block in blocks] == table.sizes.tolist()
            for block, basis in zip(blocks, _dense_bases(table)):
                np.testing.assert_allclose(basis.T @ basis, np.eye(len(block)), rtol=0, atol=1e-15)
                np.testing.assert_allclose(block, basis.T @ dense.real @ basis, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("doubled", [*range(1, 13), 20, 21])
    def test_residual_kernel_applies_dense_operator(self, doubled):
        # D phi as the eigenpair residual of quantum_value takes it, against the dense D
        sigma = np.array([1.3, -0.4, -2.1])
        d = doubled + 1
        phi = np.random.default_rng(doubled).normal(size=(d, d))
        dense = bell_operator(np.diag(sigma), SpinValue(doubled)) @ phi.reshape(-1)
        applied = _action(np.diag(sigma * _SIGNS), doubled, phi)
        assert applied.dtype == float
        np.testing.assert_allclose(applied.reshape(-1), dense.real, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("doubled", [1, 2, 7, 8, 20, 21, 40])
    def test_fixed_block_order(self, doubled):
        table = _symmetry_blocks(doubled)
        # basis vector k is v_r for r = members[k, 0], the least index of its orbit,
        # and its coefficient signs are the character of its block
        least = table.members[:, 0]
        assert np.array_equal(least, table.members.min(axis=1))
        labels = _basis_labels(table, doubled)
        first, second = table.sizes.tolist()
        assert first <= second
        assert np.all(labels[:first] == labels[0]) and np.all(labels[first:] == labels[-1])
        assert sorted([labels[0], labels[-1]]) == _perron_labels(doubled)
        if first == second:
            assert labels[0] < labels[-1]
        assert np.all(np.diff(least[:first]) > 0) and np.all(np.diff(least[first:]) > 0)
        assert np.all(np.any(table.weights != 0, axis=1))
        assert np.all(np.diff(table.positions) > 0)

    @pytest.mark.parametrize("doubled", [25, 40])
    def test_matches_dense_eigenvalue_above_20(self, doubled):
        s = SpinValue(doubled)
        for C in (EXAMPLE3, np.random.default_rng(25).normal(size=(3, 3))):
            reference = np.linalg.eigvalsh(bell_operator(C, s))[0]
            value = quantum_bound(C, s)[0]
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))

    def test_leastness_rejects_a_floor_above_the_minimum(self):
        # for a diagonal C the Bell operator is D itself
        sigma = np.array([1.3, -0.4, -2.1])
        value = quantum_bound(np.diag(sigma), SpinValue(6))[0]
        blocks = _diagonal_blocks(sigma, 6)
        tol = EIG_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(sigma)) * spin_squared(6))
        assert all(_has_factor(block, value - tol) for block in blocks)
        assert not all(_has_factor(block, value + 1.0) for block in blocks)

    @pytest.mark.filterwarnings("error")
    def test_leastness_rejects_an_overflowed_shift(self):
        # 1e308 + 1e308 is inf, and cholesky would factor that without complaint
        block = np.array([[1e308]])
        assert not _has_factor(block, -1e308)
        assert _has_factor(block, 0.0)

    def test_failed_certificate_raises(self, monkeypatch):
        # no factor for either block: the certificate fails
        monkeypatch.setattr(quantum_module, "_has_factor", lambda block, floor: False)
        with pytest.raises(EigensolverFailure, match="an eigenvalue lies at or below"):
            quantum_value(EXAMPLE3, SpinValue(6))

    def test_failed_certificate_raises_after_the_exclusion(self, monkeypatch):
        # the exclusion factor holds, so only the larger block is factored at
        # the floor, and its missing factor fails the certificate
        floors = []
        monkeypatch.setattr(
            quantum_module, "_has_factor", lambda block, floor: floors.append(floor) or len(floors) == 1
        )
        with pytest.raises(EigensolverFailure, match="an eigenvalue lies at or below"):
            quantum_value(EXAMPLE3, SpinValue(6))
        assert len(floors) == 2 and floors[1] <= floors[0]

    @pytest.mark.parametrize("excluded", [False, True])
    def test_factors_both_blocks_at_the_floor_unless_excluded(self, monkeypatch, excluded):
        factored = []

        def record(block, floor):
            factored.append((len(block), floor))
            return excluded or len(factored) > 1

        monkeypatch.setattr(quantum_module, "_has_factor", record)
        value, _, diagnostics = quantum_value(EXAMPLE3, SpinValue(6))
        small, large = _symmetry_blocks(6).sizes.tolist()
        floor = value - diagnostics.eigen_tolerance + diagnostics.svd_gap
        # the exclusion at the larger block's minimum, then the certificate at the floor
        assert factored[0][0] == small
        expected = [(large, floor)] if excluded else [(small, floor), (large, floor)]
        assert factored[1:] == expected
        assert diagnostics.eigvalsh_calls == (1 if excluded else 2)

    def test_singular_shifted_block_raises(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(EigensolverFailure, match="the shifted Perron block is singular"):
            quantum_value(EXAMPLE3, SpinValue(6))


def _choice_matrices(doubled: int, random_rotation) -> list[np.ndarray]:
    rng = np.random.default_rng(300 + doubled)
    matrices = [np.asarray(m, dtype=float) for m in NAMED_MATRICES.values()]
    matrices += [rng.normal(size=(3, 3)) for _ in range(3)]
    matrices += [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(2)]
    matrices += [random_rotation(rng) for _ in range(2)]
    # degenerate sigma: levels shared between blocks
    matrices += [np.zeros((3, 3)), IDENTITY, -IDENTITY, np.diag([1.0, 1.0, -1.0])]
    return matrices + [np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]), np.diag([1.0, -1.0, 0.0])]


def _sigma_of(C: np.ndarray) -> np.ndarray:
    """The singular values of C with the sign fix: a reflection in P or Q moves into sigma_3."""
    p, sigma, qt = np.linalg.svd(np.asarray(C, dtype=float))
    for factor in (p, qt):
        if np.linalg.det(factor) < 0:
            sigma[2] = -sigma[2]
    return sigma


def _assert_perron_minimum(C: np.ndarray, s: SpinValue, where: str) -> None:
    """The lesser Perron-block minimum, and quantum_value, equal the dense Bell operator's minimum."""
    reference = _EIGVALSH(bell_operator(C, s))[0]
    allowed = 1e-12 * max(1.0, abs(reference))
    lesser = min(_EIGVALSH(block)[0] for block in _diagonal_blocks(_sigma_of(C), s.doubled))
    assert abs(lesser - reference) <= allowed, where
    assert abs(quantum_value(C, s)[0] - reference) <= allowed, where


class TestBlockChoice:
    """The Perron blocks hold D's least eigenvalue: the two-block rule against the dense operator."""

    def test_perron_blocks_hold_the_least_eigenvalue(self, random_rotation):
        for doubled in range(1, 21):
            for index, C in enumerate(_choice_matrices(doubled, random_rotation)):
                _assert_perron_minimum(C, SpinValue(doubled), f"2s = {doubled}, matrix {index}")

    def test_perron_blocks_hold_the_least_eigenvalue_above_20(self, random_rotation):
        for doubled in (25, 30, 40):
            matrices = _choice_matrices(doubled, random_rotation)
            # example3, a normal matrix, -I and diag(1, 1, 0)
            for index in (2, 5, 12, 15):
                _assert_perron_minimum(matrices[index], SpinValue(doubled), f"2s = {doubled}, matrix {index}")

    def test_no_eigh_and_one_eigvalsh_unless_the_smaller_block_reaches_down(
        self, monkeypatch, random_rotation
    ):
        eigh_sizes, eigvalsh_sizes = [], []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_sizes.append(len(a)) or _EIGH(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh_sizes.append(len(a)) or _EIGVALSH(a))
        for doubled in (1, 2, 7, 20, 40):
            sizes = _symmetry_blocks(doubled).sizes.tolist()
            for index, C in enumerate(_choice_matrices(doubled, random_rotation)):
                eigvalsh_sizes.clear()
                value, schmidt, diagnostics = quantum_value(C, SpinValue(doubled))
                where = f"2s = {doubled}, matrix {index}"
                assert eigh_sizes == [], where
                # the larger block first; the smaller one only without the exclusion factor
                blocks = _diagonal_blocks(_sigma_of(C), doubled)
                minima = [_EIGVALSH(block)[0] for block in blocks]
                excluded = _has_factor(blocks[0], minima[1])
                assert eigvalsh_sizes == (sizes[::-1][:1] if excluded else sizes[::-1]), where
                assert diagnostics.eigvalsh_calls == len(eigvalsh_sizes), where
                assert diagnostics.perron_block_sizes == tuple(sizes), where
                # with the exclusion factor the larger block's minimum wins, even where the
                # smaller block's computed minimum lies a few ulps below it; without it the
                # lesser minimum, the first on an exact tie; either way within the tolerance
                k = 1 if excluded else int(np.argmin(minima))
                assert value == minima[k], where
                assert min(minima) >= value - diagnostics.eigen_tolerance, where
                # where the ground level is simple, the state is eigh's
                levels = np.sort(np.concatenate([_EIGVALSH(block)[:2] for block in blocks]))
                if levels[1] - levels[0] > 1e-6 * max(1.0, abs(levels[0])):
                    phi = _block_eigenpair(blocks, doubled, k, 0)[1]
                    assert np.max(np.abs(schmidt - _singular_values(phi))) <= 1e-9, where

    @pytest.mark.filterwarnings("error")
    def test_overflowed_shift_fails_the_certificate(self):
        # D's entries reach about 1e308, and the certificate's shift of each
        # Perron block to value - tol + g takes a diagonal entry past the
        # float limit, so no factor is found and the solve fails
        s = SpinValue(40)
        C = 2.4e305 * IDENTITY
        tol = EIG_RESIDUAL_TOL * _norm(C) * s.value * (s.value + 1.0)
        assert math.isfinite(tol)
        with pytest.raises(EigensolverFailure, match="an eigenvalue lies at or below"):
            quantum_value(C, s)


def _grid_matrices(random_rotation) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1940)
    return {
        "normal": rng.normal(size=(3, 3)),
        "normal 2": rng.normal(size=(3, 3)),
        "integer": rng.integers(-3, 4, size=(3, 3)).astype(float),
        "rotation": random_rotation(rng),
        "identity": IDENTITY,
        "-identity": -IDENTITY,
        "zero": np.zeros((3, 3)),
        "diag(1, 1, -1)": np.diag([1.0, 1.0, -1.0]),
        "diag(2, 1, 0.5)": np.diag([2.0, 1.0, 0.5]),
        "1e-300 identity": 1e-300 * IDENTITY,
        "1e150 normal": 1e150 * rng.normal(size=(3, 3)),
        "seed 19 normal": np.random.default_rng(19).normal(size=(3, 3)),
    }


class TestSolveGrid:
    """quantum_value at every supported spin on generic, degenerate and extreme-scale matrices."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("doubled", range(1, 41))
    def test_certified_at_every_spin(self, doubled, random_rotation):
        s = SpinValue(doubled)
        for name, C in _grid_matrices(random_rotation).items():
            value, schmidt, diagnostics = quantum_value(C, s)
            tol = diagnostics.eigen_tolerance
            # two steps of inverse iteration leave the residual far inside tol; one step does not
            assert diagnostics.eigen_residual <= 1e-3 * tol, name
            assert diagnostics.eigvalsh_calls in (1, 2), name
            assert float(np.sum(schmidt**2)) == pytest.approx(1.0, abs=1e-12), name
            if doubled <= 12:
                reference = _EIGVALSH(bell_operator(C, s))[0]
                assert abs(value - reference) <= tol, name
        # the zero matrix: tol is subnormal, and the solve neither overflows nor moves off 0
        assert quantum_value(np.zeros((3, 3)), s)[0] == 0.0


class TestPerronStart:
    """Inverse iteration starts from (-1)^i, the sign pattern of every Perron block's ground vector."""

    @staticmethod
    def _start_and_ground_vector(C: np.ndarray, doubled: int):
        table = _symmetry_blocks(doubled)
        blocks = _diagonal_blocks(_sigma_of(C), doubled)
        k = int(np.argmin([_EIGVALSH(block)[0] for block in blocks]))
        rows = slice(int(table.sizes[:k].sum()), int(table.sizes[: k + 1].sum()))
        start = 1.0 - 2.0 * (table.members[rows, 0] // (doubled + 1) % 2)
        return start, _EIGH(blocks[k])[1][:, 0]

    @pytest.mark.parametrize("doubled", [1, 2, 5, 12, 20, 33])
    def test_matches_the_signs_of_the_ground_vector(self, doubled):
        rng = np.random.default_rng(doubled)
        for C in [rng.normal(size=(3, 3)) for _ in range(3)] + [EXAMPLE3, np.diag([2.0, 1.0, 0.5])]:
            start, vector = self._start_and_ground_vector(C, doubled)
            assert abs(start @ vector) == pytest.approx(np.abs(vector).sum(), rel=1e-12)

    @pytest.mark.parametrize("doubled", [3, 7, 11, 15, 19])
    def test_all_ones_misses_the_singlet_at_3_mod_4(self, doubled):
        # for a rotation D = S_A . S_B, and its ground state the singlet is
        # orthogonal to the all-ones start; the sign pattern meets it in full
        for C in (IDENTITY, ROTATION_Z45):
            start, vector = self._start_and_ground_vector(C, doubled)
            assert abs(np.sum(vector)) <= 1e-12
            assert abs(start @ vector) >= 1.0
            value = quantum_value(C, SpinValue(doubled))[0]
            assert value == pytest.approx(-doubled * (doubled + 2) / 4.0, rel=1e-12)


class TestClosedForms:
    """C = I gives D = S_A . S_B with beta_q = -s(s+1); C = -I gives -s^2, a (4s+1)-fold level."""

    @staticmethod
    def _assert_value(C: np.ndarray, exact) -> None:
        for doubled in range(1, 41):
            s = SpinValue(doubled)
            tol = EIG_RESIDUAL_TOL * float(np.linalg.norm(C)) * s.value * (s.value + 1.0)
            assert abs(quantum_value(C, s)[0] - exact(s.value)) <= tol, f"2s = {doubled}"

    def test_identity_gives_minus_s_s_plus_1(self):
        self._assert_value(IDENTITY, lambda s: -s * (s + 1.0))

    def test_minus_identity_gives_minus_s_squared(self):
        # the level is shared by several blocks, so both the tie rule and the theorem are used
        self._assert_value(-IDENTITY, lambda s: -s * s)


def _axial_oracle(a: float, c: float, doubled: int) -> float:
    """The least eigenvalue of a (S_x S_x + S_y S_y) + c S_z S_z, one tridiagonal sector at a time.

    The operator keeps M = m_A + m_B.  In sector M, on the pairs
    (m_A, M - m_A), the diagonal is c m_A m_B, and a/2 (S+ S- + S- S+)
    links (m_A, m_B) to (m_A + 1, m_B - 1) with
    a/2 sqrt(s(s+1) - m_A(m_A+1)) sqrt(s(s+1) - m_B(m_B-1)).
    """
    s = doubled / 2.0
    casimir = s * (s + 1.0)
    least = math.inf
    for twice_m in range(-2 * doubled, 2 * doubled + 1, 2):
        m = twice_m / 2.0
        m_a = np.arange(max(-s, m - s), min(s, m + s) + 0.5)
        m_b = m - m_a
        up, down = m_a[:-1], m_b[:-1]  # S+ on A, S- on B
        off = 0.5 * a * np.sqrt(casimir - up * (up + 1.0)) * np.sqrt(casimir - down * (down - 1.0))
        sector = np.diag(c * m_a * m_b) + np.diag(off, 1) + np.diag(off, -1)
        least = min(least, float(np.linalg.eigvalsh(sector)[0]))
    return least


class TestAxialOracle:
    """Where sigma_1 = sigma_2, beta_q against the M-sector oracle, which shares no code with
    the symmetry blocks, the Perron choice or bell_operator."""

    def test_oracle_closed_forms(self):
        # a = c = 1 is S_A . S_B, and a = c = -1 its negative
        for doubled in range(1, 41):
            s = doubled / 2.0
            assert _axial_oracle(1.0, 1.0, doubled) == pytest.approx(-s * (s + 1.0), rel=1e-12)
            assert _axial_oracle(-1.0, -1.0, doubled) == pytest.approx(-s * s, rel=1e-12)

    @pytest.mark.parametrize("doubled", range(1, 41))
    def test_matches_the_sector_minimum(self, doubled, random_rotation):
        rng = np.random.default_rng(4100 + doubled)
        for a, c in ((1.0, 1.0), (1.0, -1.0), (1.0, 0.3), (-0.7, 2.0), (0.0, 1.0), (1.0, 0.0)):
            C = random_rotation(rng) @ np.diag([a, a, c]) @ random_rotation(rng).T
            value, _, diagnostics = quantum_value(C, SpinValue(doubled))
            assert abs(value - _axial_oracle(a, c, doubled)) <= diagnostics.eigen_tolerance, (a, c)


class TestSinglet:
    def test_half_spin_amplitudes(self):
        state = singlet_state(SpinValue(1))
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2  # (|+-> - |-+>)/sqrt(2)
        assert np.allclose(state.ravel(), expected)

    def test_spin_one_zz_correlator(self):
        assert expectation(singlet_state(SpinValue(2)), _unit(2, 2)) == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_correlators_isotropic(self):
        for doubled in range(1, 13):
            s = SpinValue(doubled)
            psi = singlet_state(s)
            target = -spin_squared(doubled) / 3.0
            for k in range(3):
                assert expectation(psi, _unit(k, k)) == pytest.approx(target, abs=1e-10)

    def test_rotation_invariance(self, random_rotation):
        rng = np.random.default_rng(23)
        for doubled in (1, 2, 3, 4):
            s = SpinValue(doubled)
            psi = singlet_state(s).ravel()
            for _ in range(5):
                U = rotation_unitary(s, random_rotation(rng))
                rotated = np.kron(U, U) @ psi
                assert abs(abs(np.vdot(psi, rotated)) - 1.0) <= 1e-9


def _intertwining_rotations(random_rotation) -> list[np.ndarray]:
    rng = np.random.default_rng(37)
    # rotations by pi about z, x and y, where T_z = +-S_z is already diagonal
    pi_rotations = [np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])]
    return [IDENTITY, ROTATION_Z45, *pi_rotations, *(random_rotation(rng) for _ in range(20))]


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    phase = np.vdot(a, b) / abs(np.vdot(a, b))
    return np.max(np.abs(a * phase - b)) <= 1e-12


class TestRotationUnitary:
    def test_intertwines_spin_operators(self, random_rotation):
        # U S_j U^+ = sum_k R_jk S_k at every supported spin
        rotations = _intertwining_rotations(random_rotation)
        for doubled in range(1, 41):
            s = SpinValue(doubled)
            ops = np.array(spin_operators(s))
            for R in rotations:
                U = rotation_unitary(s, R)
                rotated = np.tensordot(R, ops, axes=1)
                for j in range(3):
                    error = np.linalg.norm(U @ ops[j] @ U.conj().T - rotated[j])
                    assert error <= 1e-12 * max(1.0, s.value), (doubled, R)

    def test_identity_up_to_phase(self):
        assert _equal_up_to_phase(rotation_unitary(SpinValue(1), IDENTITY), np.eye(2))

    def test_half_spin_pi_about_z(self):
        U = rotation_unitary(SpinValue(1), np.diag([-1.0, -1.0, 1.0]))
        assert _equal_up_to_phase(U, np.diag([1j, -1j]))

    def test_conjugation_for_z45(self):
        s = SpinValue(2)
        U = rotation_unitary(s, ROTATION_Z45)
        ops = spin_operators(s)
        for j in range(3):
            lhs = U @ ops[j] @ U.conj().T
            rhs = sum(ROTATION_Z45[j, k] * ops[k] for k in range(3))
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_unitarity(self, random_rotation):
        rng = np.random.default_rng(37)
        for doubled in (1, 3, 8, 40):
            U = rotation_unitary(SpinValue(doubled), random_rotation(rng))
            assert np.linalg.norm(U.conj().T @ U - np.eye(doubled + 1)) <= 1e-10

    # the all-1e200 matrix overflows the rotation test, which must say NotARotation without a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_not_a_rotation(self):
        # a reflection's T_j break [T_x, T_y] = i T_z, so no unitary intertwines them
        for C in (EXAMPLE1, np.diag([1.0, 1.0, -1.0]), -ROTATION_Z45, np.full((3, 3), 1e200)):
            with pytest.raises(NotARotation):
                rotation_unitary(SpinValue(2), C)
            with pytest.raises(NotARotation):
                rotated_singlet(C, SpinValue(2))


class TestRotatedSinglet:
    def test_identity_rotation_gives_singlet(self):
        s = SpinValue(2)
        phi = rotated_singlet(IDENTITY, s)
        assert expectation(phi, IDENTITY) == pytest.approx(-2.0, abs=1e-12)

    def test_z45_spin_four(self):
        s = SpinValue(8)
        phi = rotated_singlet(ROTATION_Z45, s)
        assert expectation(phi, ROTATION_Z45) == pytest.approx(-20.0, abs=1e-9)

    def test_z45_half_spin(self):
        s = SpinValue(1)
        phi = rotated_singlet(ROTATION_Z45, s)
        assert expectation(phi, ROTATION_Z45) == pytest.approx(-0.75, abs=1e-12)

    def test_requires_rotation(self):
        with pytest.raises(NotARotation):
            rotated_singlet(EXAMPLE2, SpinValue(2))

    def test_spectrum_matches_unrotated(self, random_rotation):
        rng = np.random.default_rng(41)
        for doubled in (1, 2, 3, 4):
            s = SpinValue(doubled)
            reference = np.linalg.eigvalsh(bell_operator(IDENTITY, s))
            for _ in range(5):
                C = random_rotation(rng)
                spectrum = np.linalg.eigvalsh(bell_operator(C, s))
                assert np.max(np.abs(spectrum - reference)) <= 1e-8
            # minimal eigenvalue of S.S is exactly -s(s+1)
            assert reference[0] == pytest.approx(-spin_squared(doubled), abs=1e-9)


class TestExpectation:
    def test_spin_two_xx(self):
        assert expectation(singlet_state(SpinValue(4)), _unit(0, 0)) == pytest.approx(-2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(_UP_UP, np.zeros((2, 3)))
        for state in _NON_SQUARE:
            with pytest.raises(DimensionMismatch, match="not a square amplitude matrix"):
                expectation(state, IDENTITY)

    def test_imaginary_residue_relative_to_the_operator(self):
        # entries near 1e6 leave an imaginary rounding residue, which the real part drops
        for seed in range(20):
            C = np.random.default_rng(seed).normal(size=(3, 3)) * 1e6
            for doubled in (3, 7, 12):
                value, state = quantum_bound(C, SpinValue(doubled))
                assert expectation(state, C) == pytest.approx(value, rel=1e-12)


class TestSchmidt:
    def test_singlet_is_maximally_entangled(self):
        coeffs = schmidt_coefficients(singlet_state(SpinValue(2)))
        assert np.allclose(coeffs, np.full(3, 1.0 / math.sqrt(3.0)))

    def test_product_state(self):
        amps = np.zeros((3, 3), dtype=complex)
        amps[0, 0] = 1.0  # |m=1> (x) |m=1>
        coeffs = schmidt_coefficients(amps)
        assert np.allclose(coeffs, [1.0, 0.0, 0.0])

    def test_example1_optimal_state_structure(self):
        _, state = quantum_bound(EXAMPLE1, SpinValue(2))
        coeffs = schmidt_coefficients(state)
        assert abs(coeffs[1] - coeffs[2]) <= 1e-9  # two equal coefficients
        assert coeffs[0] - coeffs[1] > 1e-6  # third one distinct
        assert coeffs[2] > 1e-6  # and nonzero

    def test_descending_and_normalized(self):
        _, state = quantum_bound(EXAMPLE3, SpinValue(4))
        coeffs = schmidt_coefficients(state)
        assert np.all(np.diff(coeffs) <= 0)
        assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_check(self):
        for state in _NON_SQUARE:
            with pytest.raises(DimensionMismatch, match="not a square amplitude matrix"):
                schmidt_coefficients(state)


def zero_projection_probability(state: np.ndarray, axis: int, doubled: int) -> float:
    """|<m=0 along the axis|state>|^2, the m = 0 eigenvector taken from eigh."""
    eigenvalues, eigenvectors = np.linalg.eigh(spin_operators(SpinValue(doubled))[axis])
    (zero,) = np.flatnonzero(np.abs(eigenvalues) <= 1e-8)
    return abs(np.vdot(eigenvectors[:, zero], state)) ** 2


class TestProjectionProbability:
    # |s=2, m=1>, basis ordered m = 2 down to -2
    STATE = np.eye(5)[1]

    def test_orthogonal_z(self):
        assert zero_projection_probability(self.STATE, 2, 4) == 0.0

    def test_zero_probability_x_and_y(self):
        assert zero_projection_probability(self.STATE, 0, 4) <= 1e-12
        assert zero_projection_probability(self.STATE, 1, 4) <= 1e-12


# the three entry points of a state from outside, each called on one state
_STATE_CALLS = (
    lambda state: bell_action(IDENTITY, state),
    lambda state: expectation(state, IDENTITY),
    schmidt_coefficients,
)
# |1/2, 1/2> (x) |1/2, 1/2>, the smallest valid state
_UP_UP = np.diag([1.0, 0.0])


class TestInputChecks:
    """A state's checks in bell_action, expectation and schmidt_coefficients; C's in expectation."""

    def test_norm_validated(self):
        for call in _STATE_CALLS:
            with pytest.raises(InvalidInput, match="not normalized"):
                call(np.ones((2, 2)))

    def test_one_by_one_state_rejected(self):
        for call in _STATE_CALLS:
            # side 1 is 2s = 0
            with pytest.raises(UnsupportedSpin, match="2s = 0"):
                call(np.ones((1, 1)))

    def test_non_finite_state_rejected(self):
        for call in _STATE_CALLS:
            for state in (np.diag([np.nan, 0.0]), np.diag([np.inf, 1.0])):
                with pytest.raises(NonFiniteMatrix, match="non-finite"):
                    call(state)

    def test_spin_caps(self):
        # bell_action and expectation cap 2s at MAX_SPIN_DOUBLED; schmidt_coefficients takes any side
        state = np.zeros((42, 42))
        state[0, 0] = 1.0
        for call in _STATE_CALLS[:2]:
            with pytest.raises(UnsupportedSpin):
                call(state)
        assert np.array_equal(schmidt_coefficients(state), np.eye(42)[0])

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(NonFiniteMatrix, match="non-finite"):
            expectation(_UP_UP, np.full((3, 3), np.nan))
