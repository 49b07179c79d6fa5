import dataclasses
import math
import re

import numpy as np
import pytest

import spinhv.bounds as bounds_module
from spinhv import (
    BoundCheckFailure,
    DimensionMismatch,
    InfeasibleSpin,
    NonFiniteMatrix,
    NotARotation,
    SpinValue,
    bell_action,
    bell_operator,
    bounds_report,
    classical_bound,
    classical_bound_bruteforce,
    quantum_bound,
    quantum_value,
    rotated_singlet,
    rotation_unitary,
    singlet_state,
)
from spinhv.bounds import violates
from spinhv.matrices import EXAMPLE1, EXAMPLE2, EXAMPLE3, IDENTITY, NAMED_MATRICES, ROTATION_Z45

SQRT2 = math.sqrt(2.0)


# every public function that takes a coefficient matrix, at 2s = 2; the rotation
# functions need a proper rotation, so the valid C of the checks below is one
_TAKES_C = {
    "classical_bound": lambda C: classical_bound(C, SpinValue(2), True),
    "classical_bound_bruteforce": lambda C: classical_bound_bruteforce(C, SpinValue(2), False),
    "bounds_report": lambda C: bounds_report(C, SpinValue(2)),
    "violates": lambda C: violates(C, SpinValue(2), -2.0, -1.0),
    "quantum_value": lambda C: quantum_value(C, SpinValue(2)),
    "quantum_bound": lambda C: quantum_bound(C, SpinValue(2)),
    "bell_operator": lambda C: bell_operator(C, SpinValue(2)),
    "bell_action": lambda C: bell_action(C, singlet_state(SpinValue(2))),
    "rotation_unitary": lambda C: rotation_unitary(SpinValue(2), C),
    "rotated_singlet": lambda C: rotated_singlet(C, SpinValue(2)),
}


def _leaves(result) -> list:
    """The numbers of a result, dataclasses and tuples flattened, for an exact comparison."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [leaf for part in result for leaf in _leaves(part)]
    return [None] if result is None else np.ravel(result).tolist()


class TestCoefficientMatrix:
    def test_rotation_flag(self):
        # a proper rotation C is accepted where one is needed, any other C refused
        for C in (ROTATION_Z45, IDENTITY):
            assert rotation_unitary(SpinValue(2), C).shape == (3, 3)
        # EXAMPLE1 is not orthogonal; the reflection is orthogonal but has determinant -1
        for C in (EXAMPLE1, np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(NotARotation):
                rotation_unitary(SpinValue(2), C)


class TestMatrixChecks:
    """Each function that takes C checks it as as_coefficient_matrix does."""

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, 0, 0], [0, np.nan, 0], [0, 0, 1.0]])
        for name, call in _TAKES_C.items():
            with pytest.raises(NonFiniteMatrix, match="coefficient matrix has non-finite entries"):
                call(bad)

    def test_shape_rejected(self):
        for name, call in _TAKES_C.items():
            with pytest.raises(DimensionMismatch, match=re.escape("expected a 3x3 matrix, got shape (2, 2)")):
                call(np.eye(2))

    @pytest.mark.parametrize("name", list(_TAKES_C))
    def test_nested_list_and_caller_array(self, name):
        C = ROTATION_Z45.copy()
        expected = _leaves(_TAKES_C[name](C))
        assert _leaves(_TAKES_C[name](ROTATION_Z45.tolist())) == expected
        # no copy is made, and none is needed: C is left as it was and still writeable
        assert np.array_equal(C, ROTATION_Z45) and C.flags.writeable


class TestExampleBounds:
    def test_example1(self):
        s = SpinValue(2)
        assert classical_bound(EXAMPLE1, s, constrained=True)[0] == -2.0
        assert classical_bound(EXAMPLE1, s, constrained=False)[0] == -3.0

    def test_example2(self):
        s = SpinValue(2)
        assert classical_bound(EXAMPLE2, s, constrained=True)[0] == -4.0
        assert classical_bound(EXAMPLE2, s, constrained=False)[0] == -7.0

    def test_example3(self):
        s = SpinValue(4)
        assert classical_bound(EXAMPLE3, s, constrained=True)[0] == pytest.approx(-20.0, abs=1e-9)
        assert classical_bound(EXAMPLE3, s, constrained=False)[0] == pytest.approx(-34.0, abs=1e-9)

    def test_rotation_spin_one(self):
        s = SpinValue(2)
        beta, _ = classical_bound(ROTATION_Z45, s, constrained=True)
        beta_bar, _ = classical_bound(ROTATION_Z45, s, constrained=False)
        assert beta == pytest.approx(-1.0 - 1.0 / SQRT2, abs=1e-12)
        assert beta_bar == pytest.approx(-1.0 - SQRT2, abs=1e-12)

    def test_identity_witness(self):
        beta, (a, b) = classical_bound(IDENTITY, SpinValue(2), constrained=True)
        assert beta == -2.0
        assert tuple(a) == (2, 2, 0)
        assert tuple(b) == (-2, -2, 0)

    def test_zero_matrix(self):
        s = SpinValue(2)
        assert classical_bound(np.zeros((3, 3)), s, constrained=True)[0] == 0.0
        assert classical_bound(np.zeros((3, 3)), s, constrained=False)[0] == 0.0


class TestRotationTable:
    # closed forms of the built-in rotation inequality for s = 1..4
    CASES = {
        2: (-1.0 - 1.0 / SQRT2, -1.0 - SQRT2),
        4: (-1.0 + 1.0 / SQRT2 - 4.0 * SQRT2, -4.0 - 4.0 * SQRT2),
        6: (-4.0 * (1.0 + SQRT2), -9.0 - 9.0 * SQRT2),
        8: (-14.0 * SQRT2, -16.0 - 16.0 * SQRT2),
    }

    @pytest.mark.parametrize("doubled", sorted(CASES))
    def test_closed_forms(self, doubled):
        expected_beta, expected_bar = self.CASES[doubled]
        s = SpinValue(doubled)
        assert classical_bound(ROTATION_Z45, s, True)[0] == pytest.approx(expected_beta, abs=1e-9)
        assert classical_bound(ROTATION_Z45, s, False)[0] == pytest.approx(expected_bar, abs=1e-9)

    def test_strictly_above_quantum_value(self):
        # irrational rotation entries keep the conserving bound away from -s(s+1)
        for doubled in (1, 2, 4, 5, 6, 8):
            s = SpinValue(doubled)
            beta, _ = classical_bound(ROTATION_Z45, s, True)
            assert beta >= -doubled * (doubled + 2) / 4.0 + 1e-6


class TestWitnesses:
    def test_witness_reproduces_bound(self, random_rotation):
        rng = np.random.default_rng(7)
        for _ in range(20):
            C = rng.normal(size=(3, 3))
            for doubled in (1, 2, 4):
                for constrained in (True, False):
                    bound, (a, b) = classical_bound(C, SpinValue(doubled), constrained)
                    value = (a / 2.0) @ C @ (b / 2.0)
                    assert value == pytest.approx(bound, abs=1e-9)

    def test_witnesses_lie_in_their_sets(self):
        from spinhv import enumerate_constrained, enumerate_unconstrained

        s = SpinValue(4)
        for constrained, enumerate in ((True, enumerate_constrained), (False, enumerate_unconstrained)):
            _, (a, b) = classical_bound(EXAMPLE3, s, constrained)
            members = set(map(tuple, enumerate(s).tolist()))
            assert tuple(a) in members and tuple(b) in members


class TestProperties:
    def test_positive_scaling(self):
        rng = np.random.default_rng(3)
        s = SpinValue(2)
        for _ in range(10):
            C = rng.normal(size=(3, 3))
            lam = float(rng.uniform(0.1, 5.0))
            for constrained in (True, False):
                v1, w1 = classical_bound(C, s, constrained)
                v2, w2 = classical_bound(lam * C, s, constrained)
                assert v2 == pytest.approx(lam * v1, rel=1e-12, abs=1e-12)
                assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("power", [-45, 40])
    def test_power_of_two_scaling_keeps_witnesses(self, power):
        # a power of two scales every pair-table entry exactly, and the tie
        # window scales with the table, so witnesses and ties stay put
        rng = np.random.default_rng(17)
        matrices = [np.asarray(m, dtype=float) for m in NAMED_MATRICES.values()]
        matrices += [rng.normal(size=(3, 3)) for _ in range(10)]
        for C in matrices:
            for doubled in range(1, 9):
                plain = bounds_report(C, SpinValue(doubled))
                scaled = bounds_report(C * 2.0**power, SpinValue(doubled))
                assert scaled.beta_unconstrained == plain.beta_unconstrained * 2.0**power
                assert np.array_equal(scaled.witness_unconstrained, plain.witness_unconstrained)
                assert scaled.constrained_infeasible == plain.constrained_infeasible
                if not plain.constrained_infeasible:
                    assert scaled.beta_constrained == plain.beta_constrained * 2.0**power
                    assert np.array_equal(scaled.witness_constrained, plain.witness_constrained)

    def test_tiny_matrix_witness_reaches_its_bound(self):
        # an absolute tie window of 1e-12 tied every pair of this table and
        # reported the first, a = b = (-1, -1, 0), worth +2^-44
        C = IDENTITY * 2.0**-45
        for constrained in (True, False):
            beta, (a, b) = classical_bound(C, SpinValue(2), constrained)
            assert beta < 0
            assert (a / 2.0) @ C @ (b / 2.0) == beta

    @pytest.mark.parametrize("power", [0, -45])
    def test_wrong_witness_fails_at_any_scale(self, monkeypatch, power):
        # the pair table's argmax as witness, worth -beta; at 2^-45 an
        # allowance of 1e-9 * max(1, |beta|) let it pass
        def argmax_pair(values):
            i, j = np.unravel_index(np.argmax(values), values.shape)
            return float(values.min()), int(i), int(j)

        monkeypatch.setattr(bounds_module, "_select_pair", argmax_pair)
        with pytest.raises(BoundCheckFailure):
            bounds_report(IDENTITY * 2.0**power, SpinValue(2))

    def test_signed_permutation_invariance(self, random_signed_permutation):
        rng = np.random.default_rng(11)
        s = SpinValue(2)
        for _ in range(10):
            C = rng.normal(size=(3, 3))
            P = random_signed_permutation(rng)
            Q = random_signed_permutation(rng)
            for constrained in (True, False):
                v1 = classical_bound(C, s, constrained)[0]
                v2 = classical_bound(P.T @ C @ Q, s, constrained)[0]
                assert v2 == pytest.approx(v1, abs=1e-9)

    def test_reduced_matches_bruteforce(self):
        # the 8-corner scan against the full (2s+1)^3 grid: same value and
        # same tie-broken witness, including the exact ties of small
        # integer matrices and of the zero matrix
        rng = np.random.default_rng(5)
        matrices = [EXAMPLE1, EXAMPLE2, EXAMPLE3, ROTATION_Z45, IDENTITY, np.zeros((3, 3))]
        matrices += [rng.normal(size=(3, 3)) for _ in range(10)]
        matrices += [rng.integers(-2, 3, size=(3, 3)).astype(float) for _ in range(10)]
        for C in matrices:
            for doubled in range(1, 9):
                s = SpinValue(doubled)
                fast, fast_pair = classical_bound(C, s, constrained=False)
                slow, slow_pair = classical_bound_bruteforce(C, s, constrained=False)
                assert fast == pytest.approx(slow, abs=1e-9)
                assert np.array_equal(fast_pair, slow_pair)

    def test_constrained_not_below_unconstrained(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            C = rng.normal(size=(3, 3))
            for doubled in (1, 2, 4):
                rep = bounds_report(C, SpinValue(doubled))
                assert rep.beta_constrained >= rep.beta_unconstrained - 1e-12

    def test_half_spin_sets_coincide(self):
        rng = np.random.default_rng(13)
        s = SpinValue(1)
        for _ in range(10):
            C = rng.normal(size=(3, 3))
            rep = bounds_report(C, s)
            assert rep.beta_constrained == pytest.approx(rep.beta_unconstrained, abs=1e-12)


class TestErrors:
    def test_infeasible_spin(self):
        with pytest.raises(InfeasibleSpin):
            classical_bound(EXAMPLE1, SpinValue(3), constrained=True)

    def test_nonpositive_spin(self):
        with pytest.raises(ValueError):
            classical_bound(EXAMPLE1, SpinValue(0), constrained=False)

    def test_non_finite(self):
        bad = np.full((3, 3), np.inf)
        with pytest.raises(NonFiniteMatrix):
            classical_bound(bad, SpinValue(2), constrained=False)


def _lexsort_pair(values: np.ndarray) -> tuple[float, int, int]:
    """The reference selection: every entry within the window, ordered by b, then a, by lexsort."""
    best = float(values.min())
    peak = max(float(values.max()), -best)
    ii, jj = np.nonzero(values <= best + bounds_module.TIE_TOL * peak)
    k = int(np.lexsort((ii, jj))[0])
    return best, int(ii[k]), int(jj[k])


class TestSelectPair:
    """_select_pair's one-pass argmin against the lexsort reference."""

    def test_matches_the_lexsort_reference(self):
        rng = np.random.default_rng(1919)
        tables = [np.zeros((4, 7)), np.array([[0.0, -0.0], [-0.0, 0.0]]), np.array([[1.0, -0.0], [0.0, -0.0]])]
        for _ in range(300):
            na, nb = (int(n) for n in rng.integers(1, 40, size=2))
            # small integers tie exactly, often
            tables.append(rng.integers(-3, 4, size=(na, nb)).astype(float))
            # planted ties within the window, and one just outside it
            table = rng.normal(size=(na, nb))
            low, window = float(table.min()), bounds_module.TIE_TOL * float(np.abs(table).max())
            flat = table.reshape(-1)
            flat[rng.integers(0, flat.size, size=3)] = low + rng.uniform(0.0, 0.9) * window
            flat[rng.integers(0, flat.size)] = low + 2.0 * window
            tables.append(table)
        for table in tables:
            assert bounds_module._select_pair(table) == _lexsort_pair(table)

    def test_smallest_b_then_smallest_a(self):
        table = np.array([[0.0, -1.0, -1.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        assert bounds_module._select_pair(table) == (-1.0, 1, 0)
        table[1, 0] = 0.0
        assert bounds_module._select_pair(table) == (-1.0, 0, 1)


class TestBoundsReport:
    def test_example1_report(self):
        rep = bounds_report(EXAMPLE1, SpinValue(2))
        assert rep.beta_constrained == -2.0
        assert rep.beta_unconstrained == -3.0
        assert not rep.constrained_infeasible
        a, b = rep.witness_unconstrained
        assert (a / 2.0) @ EXAMPLE1 @ (b / 2.0) == pytest.approx(-3.0)

    def test_infeasible_spin_recorded(self):
        rep = bounds_report(ROTATION_Z45, SpinValue(3))
        assert rep.constrained_infeasible
        assert rep.beta_constrained is None
        assert rep.witness_constrained is None
        assert rep.beta_unconstrained < 0

    def test_rotation_table_report(self):
        rep = bounds_report(ROTATION_Z45, SpinValue(4))
        assert rep.beta_constrained == pytest.approx(-1.0 + 1.0 / SQRT2 - 4.0 * SQRT2, abs=1e-9)
        assert rep.beta_unconstrained == pytest.approx(-4.0 - 4.0 * SQRT2, abs=1e-9)
