import math

import numpy as np
import pytest

from spinhv import (
    DimensionMismatch,
    EigensolverFailure,
    EulerAngles,
    HermitianOperator,
    NotARotation,
    SpinValue,
    StateVector,
    UnsupportedSpin,
    ValueNotInSpectrum,
    basis_state,
    bell_action,
    bell_operator,
    classical_bound,
    euler_from_rotation,
    expectation,
    projection_probability,
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
    _CHARACTERS,
    _SIGNS,
    _action,
    _diagonal_blocks,
    _diagonal_ground_state,
    _has_factor,
    _norm,
    _singular_values,
    _svd_gap,
    _symmetry_blocks,
)

SQRT2 = math.sqrt(2.0)


def spin_squared(doubled: int) -> float:
    return doubled * (doubled + 2) / 4.0


class TestSpinOperators:
    def test_half_spin(self):
        sx, sy, sz = spin_operators(SpinValue(1))
        for op in (sx, sy, sz):
            assert op.dim == 2
            assert np.allclose(np.linalg.eigvalsh(op.entries), [-0.5, 0.5])

    def test_spin_one_z_diagonal(self):
        _, _, sz = spin_operators(SpinValue(2))
        assert np.allclose(sz.entries, np.diag([1.0, 0.0, -1.0]))

    def test_spin_two_spectra(self):
        for op in spin_operators(SpinValue(4)):
            assert np.allclose(np.linalg.eigvalsh(op.entries), [-2, -1, 0, 1, 2])

    def test_squared_sum_identity(self):
        for doubled in range(1, 13):
            ops = spin_operators(SpinValue(doubled))
            total = sum(op.entries @ op.entries for op in ops)
            target = spin_squared(doubled) * np.eye(doubled + 1)
            assert np.linalg.norm(total - target) <= 1e-10

    def test_commutators(self):
        for doubled in range(1, 13):
            sx, sy, sz = (op.entries for op in spin_operators(SpinValue(doubled)))
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
                assert np.array_equal(op.entries, reference)

    def test_unsupported_spin(self):
        with pytest.raises(UnsupportedSpin):
            spin_operators(SpinValue(0))
        with pytest.raises(UnsupportedSpin):
            spin_operators(SpinValue(41))


class TestBellOperator:
    def test_identity_half_spin(self):
        H = bell_operator(IDENTITY, SpinValue(1))
        assert np.linalg.eigvalsh(H.entries)[0] == pytest.approx(-0.75, abs=1e-12)

    def test_zero_matrix(self):
        H = bell_operator(np.zeros((3, 3)), SpinValue(4))
        assert np.all(H.entries == 0)

    def test_example1_dimension_and_minimum(self):
        H = bell_operator(EXAMPLE1, SpinValue(2))
        assert H.dim == 9
        expected = -(1.0 + math.sqrt(17.0)) / 2.0
        assert np.linalg.eigvalsh(H.entries)[0] == pytest.approx(expected, abs=1e-9)


class TestQuantumBound:
    def test_example1(self):
        value, state = quantum_bound(EXAMPLE1, SpinValue(2))
        assert value == pytest.approx(-(1.0 + math.sqrt(17.0)) / 2.0, abs=1e-9)
        assert state.dim == 9

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
    # gimbal-locked rotations: pi about z and about x
    matrices += [np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0])]
    return matrices


class TestDiagonalReduction:
    """quantum_bound against the dense Bell operator and its eigensolver."""

    @pytest.mark.parametrize("doubled", range(1, 21))
    def test_matches_dense_eigensolve(self, doubled):
        s = SpinValue(doubled)
        d = doubled + 1
        for C in _oracle_matrices():
            H = bell_operator(C, s).entries
            eigenvalues, eigenvectors = np.linalg.eigh(H)
            value, state = quantum_bound(C, s)
            assert abs(value - eigenvalues[0]) <= 1e-10 * max(1.0, abs(eigenvalues[0]))
            scale = max(1.0, float(np.linalg.norm(C)) * spin_squared(doubled))
            residual = np.linalg.norm(H @ state.amplitudes - value * state.amplitudes)
            assert residual <= EIG_RESIDUAL_TOL * scale
            # a degenerate ground state has no unique Schmidt coefficients, and
            # both paths resolve an eigenvector to about eps * scale / gap
            if eigenvalues[1] - eigenvalues[0] > 1e-6 * scale:
                dense = np.linalg.svd(eigenvectors[:, 0].reshape(d, d), compute_uv=False)
                assert np.max(np.abs(schmidt_coefficients(state, s) - dense)) <= 1e-8

    def test_random_matrices_never_raise(self):
        rng = np.random.default_rng(7)
        s = SpinValue(3)
        for _ in range(200):
            C = rng.normal(size=(3, 3))
            value, state = quantum_bound(C, s)
            assert np.linalg.norm(bell_action(C, s, state) - value * state.amplitudes) <= 1e-9

    def test_bell_action_matches_dense_operator(self):
        # built-in, random, integer, rank-deficient and reflected C
        rng = np.random.default_rng(11)
        for doubled in range(1, 13):
            s = SpinValue(doubled)
            amps = rng.normal(size=(doubled + 1) ** 2) + 1j * rng.normal(size=(doubled + 1) ** 2)
            state = StateVector(amps / np.linalg.norm(amps))
            for C in _oracle_matrices():
                dense = bell_operator(C, s).entries @ state.amplitudes
                scale = max(1.0, float(np.linalg.norm(C)) * spin_squared(doubled))
                assert np.linalg.norm(bell_action(C, s, state) - dense) <= 1e-14 * scale

    def test_bell_action_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            bell_action(IDENTITY, SpinValue(2), singlet_state(SpinValue(1)))


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
            value, schmidt = quantum_value(C, s)
            reference, state = quantum_bound(C, s)
            assert value == reference
            assert np.max(np.abs(schmidt - schmidt_coefficients(state, s))) <= 1e-12

    @pytest.mark.parametrize("doubled", range(1, 11))
    def test_matches_dense_eigvalsh(self, doubled):
        s = SpinValue(doubled)
        for C in _oracle_matrices():
            reference = np.linalg.eigvalsh(bell_operator(C, s).entries)[0]
            for value in (quantum_value(C, s)[0], quantum_bound(C, s)[0]):
                assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))

    @pytest.mark.filterwarnings("error")
    def test_answers_at_the_float_limit(self):
        # the SVD gap's 3 max|sigma| overflows unless taken on C / max|c_kl|
        value, schmidt = quantum_value(1e308 * IDENTITY, SpinValue(1))
        assert value == quantum_bound(1e308 * IDENTITY, SpinValue(1))[0]
        assert value == pytest.approx(-0.75e308, rel=1e-12)
        assert np.sum(schmidt**2) == pytest.approx(1.0, abs=1e-12)


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


class TestSymmetryBlocks:
    """The split of D by parity, flip and swap, checked against the dense D."""

    @pytest.mark.parametrize("doubled", range(1, 41))
    def test_sizes_cover_the_space(self, doubled):
        sizes = _symmetry_blocks(doubled).sizes
        assert sizes.sum() == (doubled + 1) ** 2
        assert len(sizes) <= 8

    def test_largest_block_at_top_spin(self):
        assert _symmetry_blocks(40).sizes.max() == 231

    @pytest.mark.parametrize("doubled", [*range(1, 13), 20, 21])
    def test_blocks_reproduce_dense_operator(self, doubled):
        table = _symmetry_blocks(doubled)
        n = (doubled + 1) ** 2
        assert table.members.shape == table.coefficients.shape == (n, 4)
        basis = np.zeros((n, n))
        # repeated images of a basis vector add up
        np.add.at(basis, (table.members, np.arange(n)[:, None]), table.coefficients)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-15)
        sigma = np.array([1.3, -0.4, -2.1])
        blocks = [block for stack in _diagonal_blocks(sigma, doubled) for block in stack]
        assert [len(block) for block in blocks] == table.sizes.tolist()
        diagonal = np.zeros((n, n))
        start = 0
        for block in blocks:
            diagonal[start : start + len(block), start : start + len(block)] = block
            start += len(block)
        dense = bell_operator(np.diag(sigma), SpinValue(doubled)).entries
        assert np.max(np.abs(dense.imag)) == 0.0
        np.testing.assert_allclose(basis @ diagonal @ basis.T, dense.real, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("doubled", [*range(1, 13), 20, 21])
    def test_residual_kernel_applies_dense_operator(self, doubled):
        # D phi as the eigenpair residual of quantum_value takes it, against the dense D
        sigma = np.array([1.3, -0.4, -2.1])
        d = doubled + 1
        phi = np.random.default_rng(doubled).normal(size=(d, d))
        dense = bell_operator(np.diag(sigma), SpinValue(doubled)).entries @ phi.reshape(-1)
        applied = _action(np.diag(sigma * _SIGNS), doubled, phi)
        assert applied.dtype == float
        np.testing.assert_allclose(applied.reshape(-1), dense.real, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("doubled", [1, 2, 7, 8, 20, 21, 40])
    def test_fixed_block_order(self, doubled):
        table = _symmetry_blocks(doubled)
        d = doubled + 1
        # basis vector k is v_r for r = members[k, 0], the least index of its orbit,
        # and its coefficient signs are the character of its block
        least = table.members[:, 0]
        assert np.array_equal(least, table.members.min(axis=1))
        characters = np.sign(table.coefficients).astype(int)
        chi = np.argmax(np.all(characters[:, None, :] == _CHARACTERS, axis=2), axis=1)
        assert np.array_equal(_CHARACTERS[chi], characters)
        labels = 4 * (np.add(*np.divmod(least, d)) % 2) + chi
        starts = np.cumsum(table.sizes) - table.sizes
        assert np.all(np.diff(table.sizes) >= 0)
        for k, (start, size) in enumerate(zip(starts, table.sizes)):
            block = slice(start, start + size)
            assert np.all(labels[block] == labels[start])
            assert np.all(np.diff(least[block]) > 0)
            if k and table.sizes[k - 1] == size:
                assert labels[starts[k - 1]] < labels[start]
        assert np.all(np.any(table.weights != 0, axis=0))
        assert np.all(np.diff(table.positions) > 0)

    @pytest.mark.parametrize("doubled", [25, 40])
    def test_matches_dense_eigenvalue_above_20(self, doubled):
        s = SpinValue(doubled)
        for C in (EXAMPLE3, np.random.default_rng(25).normal(size=(3, 3))):
            reference = np.linalg.eigvalsh(bell_operator(C, s).entries)[0]
            value = quantum_bound(C, s)[0]
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference))

    def test_leastness_rejects_a_floor_above_the_minimum(self):
        # for a diagonal C the Bell operator is D itself
        sigma = np.array([1.3, -0.4, -2.1])
        value = quantum_bound(np.diag(sigma), SpinValue(6))[0]
        stacks = _diagonal_blocks(sigma, 6)
        tol = EIG_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(sigma)) * spin_squared(6))
        assert all(_has_factor(block, value - tol) for stack in stacks for block in stack)
        assert not all(_has_factor(block, value + 1.0) for stack in stacks for block in stack)
        # a stack has a factor exactly when each of its blocks has one
        for floor in (value - tol, value + 1.0):
            for stack in stacks:
                assert _has_factor(stack, floor) == all(_has_factor(block, floor) for block in stack)

    @pytest.mark.filterwarnings("error")
    def test_leastness_rejects_an_overflowed_shift(self):
        # 1e308 + 1e308 is inf, and cholesky would factor that without complaint
        for blocks in (np.array([[1e308]]), np.array([[[1e308]]])):
            assert not _has_factor(blocks, -1e308)
            assert _has_factor(blocks, 0.0)

    def test_failed_certificate_raises(self, monkeypatch):
        # no factor anywhere: every block is a candidate, and the certificate fails
        monkeypatch.setattr(quantum_module, "_has_factor", lambda block, floor: False)
        with pytest.raises(EigensolverFailure, match="an eigenvalue lies at or below"):
            quantum_value(EXAMPLE3, SpinValue(6))


_EIGH, _EIGVALSH = np.linalg.eigh, np.linalg.eigvalsh


def _all_block_rule(stacks: list[np.ndarray], doubled: int) -> tuple[float, np.ndarray, int]:
    """The block choice without exclusion: eigvalsh of every block, the first argmin, eigh of it."""
    table = _symmetry_blocks(doubled)
    k = int(np.argmin(np.concatenate([_EIGVALSH(stack)[:, 0] for stack in stacks])))
    eigenvalues, eigenvectors = _EIGH([block for stack in stacks for block in stack][k])
    block = slice(int(table.sizes[:k].sum()), int(table.sizes[: k + 1].sum()))
    d = doubled + 1
    amplitudes = table.coefficients[block] * eigenvectors[:, :1]
    phi = np.bincount(table.members[block].ravel(), amplitudes.ravel(), d * d).reshape(d, d)
    return float(eigenvalues[0]), phi, k


def _choice_matrices(doubled: int, random_rotation) -> list[np.ndarray]:
    rng = np.random.default_rng(300 + doubled)
    matrices = [np.asarray(m, dtype=float) for m in NAMED_MATRICES.values()]
    matrices += [rng.normal(size=(3, 3)) for _ in range(3)]
    matrices += [rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(2)]
    matrices += [random_rotation(rng) for _ in range(2)]
    # degenerate sigma: ties between blocks
    matrices += [np.zeros((3, 3)), IDENTITY, -IDENTITY]
    return matrices + [np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]), np.diag([1.0, -1.0, 0.0])]


class TestBlockChoice:
    """The ground block found by Cholesky exclusion against the rule that solved every block."""

    def test_matches_the_all_block_rule(self, monkeypatch, random_rotation):
        built, eigh_sizes, eigvalsh_calls = [], [], []
        blocks_of = quantum_module._diagonal_blocks

        def recorded(*args):
            built.append(blocks_of(*args))
            return built[-1]

        monkeypatch.setattr(quantum_module, "_diagonal_blocks", recorded)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_sizes.append(len(a)) or _EIGH(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh_calls.append(1) or _EIGVALSH(a))
        misses = several = 0
        for doubled in [*range(1, 21), 25, 30, 40]:
            s = SpinValue(doubled)
            largest = int(_symmetry_blocks(doubled).sizes[-1])
            for index, C in enumerate(_choice_matrices(doubled, random_rotation)):
                for log in (built, eigh_sizes, eigvalsh_calls):
                    log.clear()
                value, schmidt = quantum_value(C, s)
                lam, phi, k = _all_block_rule(built[0], doubled)
                last = sum(len(stack) for stack in built[0]) - 1
                where = f"2s = {doubled}, matrix {index}"
                assert value == lam, where
                assert np.array_equal(schmidt, _singular_values(phi)), where
                # eigh on the largest block first, and again only for another ground block
                assert eigh_sizes[0] == largest and len(eigh_sizes) == 1 + (k != last), where
                # eigvalsh on the candidates when there is more than one
                assert len(eigvalsh_calls) != 1, where
                misses += k != last
                several += len(eigvalsh_calls) >= 2
                assert quantum_bound(C, s)[0] == lam, where
        assert misses and several

    @pytest.mark.filterwarnings("error")
    def test_overflowed_shift_makes_every_block_a_candidate(self):
        # D's entries reach about 1e308, and every block has a diagonal entry
        # that the shift to lam0 + tol takes past the float limit, so none is
        # excluded; the certificate's shift overflows too, and the solve
        # fails as it did when every block was certified
        doubled, s = 40, SpinValue(40)
        C = 2.4e305 * IDENTITY
        sigma = np.linalg.svd(C, compute_uv=False)
        stacks = _diagonal_blocks(sigma, doubled)
        tol = EIG_RESIDUAL_TOL * _norm(C) * s.value * (s.value + 1.0)
        assert math.isfinite(tol)
        lam, phi, candidates = _diagonal_ground_state(stacks, doubled, tol)
        assert len(candidates) == sum(len(stack) for stack in stacks) == 8
        reference, reference_phi, _ = _all_block_rule(stacks, doubled)
        assert lam == reference
        assert np.array_equal(phi, reference_phi)
        with pytest.raises(EigensolverFailure, match="an eigenvalue lies at or below"):
            quantum_value(C, s)


class TestSinglet:
    def test_half_spin_amplitudes(self):
        state = singlet_state(SpinValue(1))
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2  # (|+-> - |-+>)/sqrt(2)
        assert np.allclose(state.amplitudes, expected)

    def test_spin_one_zz_correlator(self):
        s = SpinValue(2)
        _, _, sz = spin_operators(s)
        op = HermitianOperator(np.kron(sz.entries, sz.entries))
        assert expectation(singlet_state(s), op) == pytest.approx(-2.0 / 3.0, abs=1e-12)

    def test_correlators_isotropic(self):
        for doubled in range(1, 13):
            s = SpinValue(doubled)
            psi = singlet_state(s)
            target = -spin_squared(doubled) / 3.0
            for op in spin_operators(s):
                pair = HermitianOperator(np.kron(op.entries, op.entries))
                assert expectation(psi, pair) == pytest.approx(target, abs=1e-10)

    def test_rotation_invariance(self, random_rotation):
        rng = np.random.default_rng(23)
        for doubled in (1, 2, 3, 4):
            s = SpinValue(doubled)
            psi = singlet_state(s).amplitudes
            for _ in range(5):
                angles = euler_from_rotation(random_rotation(rng))
                U = rotation_unitary(s, angles)
                rotated = np.kron(U, U) @ psi
                assert abs(abs(np.vdot(psi, rotated)) - 1.0) <= 1e-9


class TestEulerAngles:
    def test_identity(self):
        angles = euler_from_rotation(IDENTITY)
        assert (angles.theta, angles.phi, angles.xi) == (0.0, 0.0, 0.0)

    def test_z_rotation(self):
        angles = euler_from_rotation(ROTATION_Z45)
        assert angles.theta == pytest.approx(math.pi / 4)
        assert angles.phi == 0.0
        assert angles.xi == 0.0

    def test_y_rotation(self):
        c, s = 0.0, 1.0  # 90 degrees
        ry = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        angles = euler_from_rotation(ry)
        assert angles.theta == pytest.approx(0.0, abs=1e-12)
        assert angles.phi == pytest.approx(math.pi / 2)
        assert angles.xi == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_conjugation(self, random_rotation):
        rng = np.random.default_rng(31)
        for _ in range(10):
            C = random_rotation(rng)
            angles = euler_from_rotation(C)
            for doubled in (1, 2, 3):
                s = SpinValue(doubled)
                U = rotation_unitary(s, angles)
                ops = [op.entries for op in spin_operators(s)]
                for j in range(3):
                    lhs = U @ ops[j] @ U.conj().T
                    rhs = sum(C[j, k] * ops[k] for k in range(3))
                    assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_not_a_rotation(self):
        with pytest.raises(NotARotation):
            euler_from_rotation(EXAMPLE1)

    def test_angle_ranges_validated(self):
        with pytest.raises(ValueError):
            EulerAngles(0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            EulerAngles(4.0, 0.0, 0.0)


class TestRotationUnitary:
    def test_identity_angles(self):
        U = rotation_unitary(SpinValue(2), EulerAngles(0.0, 0.0, 0.0))
        assert np.allclose(U, np.eye(3))

    def test_half_spin_pi_about_z(self):
        U = rotation_unitary(SpinValue(1), EulerAngles(math.pi, 0.0, 0.0))
        expected = np.diag([np.exp(1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
        assert np.allclose(U, expected)

    def test_conjugation_for_z45(self):
        s = SpinValue(2)
        U = rotation_unitary(s, euler_from_rotation(ROTATION_Z45))
        ops = [op.entries for op in spin_operators(s)]
        for j in range(3):
            lhs = U @ ops[j] @ U.conj().T
            rhs = sum(ROTATION_Z45[j, k] * ops[k] for k in range(3))
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_unitarity(self, random_rotation):
        rng = np.random.default_rng(37)
        for doubled in (1, 3, 8):
            angles = euler_from_rotation(random_rotation(rng))
            U = rotation_unitary(SpinValue(doubled), angles)
            assert np.linalg.norm(U.conj().T @ U - np.eye(doubled + 1)) <= 1e-10


class TestRotatedSinglet:
    def test_identity_rotation_gives_singlet(self):
        s = SpinValue(2)
        phi = rotated_singlet(IDENTITY, s)
        H = bell_operator(IDENTITY, s)
        assert expectation(phi, H) == pytest.approx(-2.0, abs=1e-12)

    def test_z45_spin_four(self):
        s = SpinValue(8)
        phi = rotated_singlet(ROTATION_Z45, s)
        assert expectation(phi, bell_operator(ROTATION_Z45, s)) == pytest.approx(-20.0, abs=1e-9)

    def test_z45_half_spin(self):
        s = SpinValue(1)
        phi = rotated_singlet(ROTATION_Z45, s)
        assert expectation(phi, bell_operator(ROTATION_Z45, s)) == pytest.approx(-0.75, abs=1e-12)

    def test_requires_rotation(self):
        with pytest.raises(NotARotation):
            rotated_singlet(EXAMPLE2, SpinValue(2))

    def test_spectrum_matches_unrotated(self, random_rotation):
        rng = np.random.default_rng(41)
        for doubled in (1, 2, 3, 4):
            s = SpinValue(doubled)
            reference = np.linalg.eigvalsh(bell_operator(IDENTITY, s).entries)
            for _ in range(5):
                C = random_rotation(rng)
                spectrum = np.linalg.eigvalsh(bell_operator(C, s).entries)
                assert np.max(np.abs(spectrum - reference)) <= 1e-8
            # minimal eigenvalue of S.S is exactly -s(s+1)
            assert reference[0] == pytest.approx(-spin_squared(doubled), abs=1e-9)


class TestExpectation:
    def test_identity_operator(self):
        state = singlet_state(SpinValue(2))
        assert expectation(state, HermitianOperator(np.eye(9))) == pytest.approx(1.0)

    def test_spin_two_xx(self):
        s = SpinValue(4)
        sx = spin_operators(s)[0]
        op = HermitianOperator(np.kron(sx.entries, sx.entries))
        assert expectation(singlet_state(s), op) == pytest.approx(-2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(singlet_state(SpinValue(1)), HermitianOperator(np.eye(9)))

    def test_imaginary_residue_relative_to_the_operator(self):
        # entries near 1e7 leave an imaginary rounding residue up to about 1e-9
        for seed in range(20):
            C = np.random.default_rng(seed).normal(size=(3, 3)) * 1e6
            for doubled in (3, 7, 12):
                s = SpinValue(doubled)
                value, state = quantum_bound(C, s)
                assert expectation(state, bell_operator(C, s)) == pytest.approx(value, rel=1e-12)


class TestSchmidt:
    def test_singlet_is_maximally_entangled(self):
        coeffs = schmidt_coefficients(singlet_state(SpinValue(2)), SpinValue(2))
        assert np.allclose(coeffs, np.full(3, 1.0 / math.sqrt(3.0)))

    def test_product_state(self):
        d = 3
        amps = np.zeros(d * d, dtype=complex)
        amps[0] = 1.0  # |m=1> (x) |m=1>
        coeffs = schmidt_coefficients(StateVector(amps), SpinValue(2))
        assert np.allclose(coeffs, [1.0, 0.0, 0.0])

    def test_example1_optimal_state_structure(self):
        _, state = quantum_bound(EXAMPLE1, SpinValue(2))
        coeffs = schmidt_coefficients(state, SpinValue(2))
        assert abs(coeffs[1] - coeffs[2]) <= 1e-9  # two equal coefficients
        assert coeffs[0] - coeffs[1] > 1e-6  # third one distinct
        assert coeffs[2] > 1e-6  # and nonzero

    def test_descending_and_normalized(self):
        _, state = quantum_bound(EXAMPLE3, SpinValue(4))
        coeffs = schmidt_coefficients(state, SpinValue(4))
        assert np.all(np.diff(coeffs) <= 0)
        assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            schmidt_coefficients(singlet_state(SpinValue(1)), SpinValue(2))


class TestProjectionProbability:
    def test_orthogonal_z(self):
        state = basis_state(SpinValue(4), SpinValue(2))  # |s=2, m=1>
        assert projection_probability(state, "z", SpinValue(0)) == 0.0

    def test_zero_probability_x_and_y(self):
        state = basis_state(SpinValue(4), SpinValue(2))
        assert projection_probability(state, "x", SpinValue(0)) <= 1e-12
        assert projection_probability(state, "y", SpinValue(0)) <= 1e-12

    def test_probabilities_sum_to_one(self):
        state = basis_state(SpinValue(4), SpinValue(2))
        for axis in ("x", "y", "z"):
            total = sum(
                projection_probability(state, axis, SpinValue(d)) for d in range(-4, 5, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_value_not_in_spectrum(self):
        state = basis_state(SpinValue(4), SpinValue(2))
        with pytest.raises(ValueNotInSpectrum):
            projection_probability(state, "z", SpinValue(1))  # half-integer on integer spin
        with pytest.raises(ValueNotInSpectrum):
            projection_probability(state, "z", SpinValue(6))  # beyond the spectrum

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            projection_probability(basis_state(SpinValue(2), SpinValue(0)), "w", SpinValue(0))


class TestStateVector:
    def test_norm_validated(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_hermiticity_validated(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermiticity_relative_to_the_entries(self):
        # a Bell operator conjugated by a local unitary keeps asymmetry near eps * max|entries|
        s = SpinValue(6)
        B = bell_operator(1e3 * np.random.default_rng(1).normal(size=(3, 3)), s).entries
        cyclic = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        u = rotation_unitary(s, euler_from_rotation(cyclic))
        U = np.kron(u, u)
        HermitianOperator(U @ B @ U.conj().T)
        with pytest.raises(ValueError):
            HermitianOperator(1e6 * np.array([[0.0, 1.0], [0.0, 0.0]]))
