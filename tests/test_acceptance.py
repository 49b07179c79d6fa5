"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; every criterion asserts its stated tolerance and runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spinhv import (
    SpinValue,
    bell_operator,
    classical_bound,
    classical_bound_bruteforce,
    expectation,
    feasible_by_enumeration,
    magnitude_feasible,
    membership,
    quantum_bound,
    rotated_singlet,
    schmidt_coefficients,
    singlet_state,
    spin_operators,
    squared_magnitude_classes,
)
from spinhv.matrices import EXAMPLE1, EXAMPLE2, EXAMPLE3, ROTATION_Z45
from spinhv.polytope import vertex_array_quadrupled

SQRT2 = math.sqrt(2.0)


class _Stopwatch:
    def __init__(self, number: int, label: str, limit: float):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {verdict} ({elapsed:.2f}s / {self.limit:g}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def test_criterion_01_feasibility_formula_vs_oracle():
    with _Stopwatch(1, "feasibility formula agrees with enumeration up to 2s = 200", 5.0):
        infeasible_integers = set()
        for doubled in range(1, 201):
            s = SpinValue(doubled)
            formula = magnitude_feasible(s)
            assert formula == feasible_by_enumeration(s), f"disagreement at 2s = {doubled}"
            if not formula and doubled % 2 == 0 and doubled <= 120:
                infeasible_integers.add(doubled // 2)
        assert infeasible_integers == {12, 15, 19, 44, 51}  # integer gaps up to s = 60


def test_criterion_02_three_halves_class_table():
    with _Stopwatch(2, "spin 3/2 squared-magnitude classes", 1.0):
        classes = squared_magnitude_classes(SpinValue(3))
        assert set(classes) == {27, 19, 11, 3}  # 27/4, 19/4, 11/4, 3/4
        assert 15 not in classes  # the conserving value 15/4 never occurs


def test_criterion_03_example1():
    with _Stopwatch(3, "example 1 bounds at s = 1", 1.0):
        s = SpinValue(2)
        assert classical_bound(EXAMPLE1, s, constrained=True)[0] == -2.0
        assert classical_bound(EXAMPLE1, s, constrained=False)[0] == -3.0
        value, _ = quantum_bound(EXAMPLE1, s)
        assert abs(value - (-(1.0 + math.sqrt(17.0)) / 2.0)) <= 1e-9


def test_criterion_04_example2():
    with _Stopwatch(4, "example 2 bounds at s = 1", 1.0):
        s = SpinValue(2)
        assert classical_bound(EXAMPLE2, s, constrained=True)[0] == -4.0
        assert classical_bound(EXAMPLE2, s, constrained=False)[0] == -7.0
        value, _ = quantum_bound(EXAMPLE2, s)
        assert abs(value - (-math.sqrt(17.0))) <= 1e-9


def test_criterion_05_example3():
    with _Stopwatch(5, "example 3 bounds at s = 2", 5.0):
        s = SpinValue(4)
        assert abs(classical_bound(EXAMPLE3, s, constrained=True)[0] - (-20.0)) <= 1e-9
        assert abs(classical_bound(EXAMPLE3, s, constrained=False)[0] - (-34.0)) <= 1e-9
        value, _ = quantum_bound(EXAMPLE3, s)
        assert abs(value - (-20.1897)) <= 5e-4


def test_criterion_06_rotation_inequality_table():
    targets = {
        2: (-1.0 - 1.0 / SQRT2, -1.0 - SQRT2, -2.0),
        4: (-1.0 + 1.0 / SQRT2 - 4.0 * SQRT2, -4.0 - 4.0 * SQRT2, -6.0),
        6: (-4.0 * (1.0 + SQRT2), -9.0 - 9.0 * SQRT2, -12.0),
        8: (-14.0 * SQRT2, -16.0 - 16.0 * SQRT2, -20.0),
    }
    with _Stopwatch(6, "rotation inequality table for s = 1..4", 60.0):
        for doubled, (beta_t, bar_t, quantum_t) in targets.items():
            s = SpinValue(doubled)
            assert abs(classical_bound(ROTATION_Z45, s, True)[0] - beta_t) <= 1e-9
            assert abs(classical_bound(ROTATION_Z45, s, False)[0] - bar_t) <= 1e-9
            measured = expectation(rotated_singlet(ROTATION_Z45, s), ROTATION_Z45)
            assert abs(measured - quantum_t) <= 1e-8
            eigen, _ = quantum_bound(ROTATION_Z45, s)
            assert abs(eigen - quantum_t) <= 1e-8


def test_criterion_07_operator_invariants():
    with _Stopwatch(7, "operator algebra for 2s <= 12", 10.0):
        for doubled in range(1, 13):
            sx, sy, sz = spin_operators(SpinValue(doubled))
            target = doubled * (doubled + 2) / 4.0 * np.eye(doubled + 1)
            assert np.linalg.norm(sx @ sx + sy @ sy + sz @ sz - target) <= 1e-10
            assert np.linalg.norm(sx @ sy - sy @ sx - 1j * sz) <= 1e-10


def test_criterion_08_rotated_singlet_identity(random_rotation):
    with _Stopwatch(8, "rotated singlet and spectrum equivalence, 20 random rotations", 30.0):
        rng = np.random.default_rng(2026)
        for doubled in (1, 2, 3, 4):
            s = SpinValue(doubled)
            reference = np.linalg.eigvalsh(
                sum(np.kron(op, op) for op in spin_operators(s))
            )
            target = -doubled * (doubled + 2) / 4.0
            for _ in range(20):
                C = random_rotation(rng)
                assert abs(expectation(rotated_singlet(C, s), C) - target) <= 1e-8
                assert np.max(np.abs(np.linalg.eigvalsh(bell_operator(C, s)) - reference)) <= 1e-8


def test_criterion_09_singlet_correlator():
    with _Stopwatch(9, "singlet correlators -s(s+1)/3 for 2s <= 12", 5.0):
        for doubled in range(1, 13):
            s = SpinValue(doubled)
            psi = singlet_state(s)
            target = -doubled * (doubled + 2) / 12.0
            for k in range(3):
                # <S_k S_k> is the expectation of the unit matrix E_kk
                assert abs(expectation(psi, np.diag(np.eye(3)[k])) - target) <= 1e-10


def test_criterion_10_projection_zero_refutation():
    with _Stopwatch(10, "projection-zero probabilities vanish for |s=2, m=1>", 1.0):
        state = np.zeros(5)
        state[1] = 1.0  # |s=2, m=1>, basis ordered m = 2 down to -2
        for op in spin_operators(SpinValue(4)):
            eigenvalues, eigenvectors = np.linalg.eigh(op)
            (zero,) = np.flatnonzero(np.abs(eigenvalues) <= 1e-8)
            assert abs(np.vdot(eigenvectors[:, zero], state)) ** 2 <= 1e-12


def test_criterion_11_optimal_state_schmidt_structure():
    with _Stopwatch(11, "example 1 optimal state has two equal Schmidt coefficients", 1.0):
        _, state = quantum_bound(EXAMPLE1, SpinValue(2))
        coeffs = schmidt_coefficients(state)
        pairs = list(itertools.combinations(range(3), 2))
        equal = [(i, j) for i, j in pairs if abs(coeffs[i] - coeffs[j]) <= 1e-9]
        assert len(equal) == 1  # exactly one equal pair
        i, j = equal[0]
        (k,) = set(range(3)) - {i, j}
        assert coeffs[k] > 1e-9
        assert abs(coeffs[k] - coeffs[i]) > 1e-9


def test_criterion_12_polytope_separation(example1_quantum_point):
    with _Stopwatch(12, "quantum point separates the conserving polytope only", 10.0):
        s = SpinValue(2)
        point = example1_quantum_point.ravel()

        outside = membership(point, s, constrained=True)
        assert not outside.inside
        values = (vertex_array_quadrupled(s, True) / 4.0) @ outside.functional
        assert np.all(values >= outside.functional_bound - 1e-8)
        assert outside.functional_value < outside.functional_bound

        inside = membership(point, s, constrained=False)
        assert inside.inside
        corners = set(map(tuple, vertex_array_quadrupled(s, False).tolist()))
        assert set(map(tuple, (4 * inside.correlators).astype(int).tolist())) <= corners
        recon = inside.weights @ inside.correlators
        assert np.max(np.abs(recon - point)) <= 1e-7


def test_criterion_13_random_matrix_properties():
    with _Stopwatch(13, "bound ordering and reduced-vs-brute equality on random matrices", 60.0):
        rng = np.random.default_rng(4096)
        for doubled in (1, 2, 4):
            s = SpinValue(doubled)
            for _ in range(100):
                C = rng.normal(size=(3, 3))
                beta = classical_bound(C, s, constrained=True)[0]
                beta_bar = classical_bound(C, s, constrained=False)[0]
                assert beta >= beta_bar - 1e-12
                brute = classical_bound_bruteforce(C, s, constrained=False)[0]
                assert abs(beta_bar - brute) <= 1e-9
