from itertools import permutations, product

import numpy as np
import pytest

from spinhv import (
    InfeasibleSpin,
    SpinValue,
    enumerate_constrained,
    enumerate_unconstrained,
    feasible_by_enumeration,
    squared_magnitude_classes,
)
from spinhv.assignments import conserving_target_doubled, extreme_assignments
from spinhv.number_theory import magnitude_feasible


def row_set(rows):
    """The doubled triples of an (n, 3) assignment array, as a set of tuples."""
    return set(map(tuple, rows.tolist()))


def is_lexicographic(rows):
    return rows.tolist() == sorted(rows.tolist())


def grid_filter(s):
    """The conserving rows of the full grid, the oracle for the isqrt walk."""
    full = enumerate_unconstrained(s)
    return full[np.square(full).sum(axis=1) == conserving_target_doubled(s)]


def signed_permutations(doubled_triple):
    """All sign flips and axis permutations of one component triple."""
    out = set()
    for perm in permutations(doubled_triple):
        for signs in product((1, -1), repeat=3):
            out.add(tuple(p * q for p, q in zip(perm, signs)))
    return out


class TestUnconstrained:
    def test_counts(self):
        assert len(enumerate_unconstrained(SpinValue(1))) == 8
        assert len(enumerate_unconstrained(SpinValue(2))) == 27
        assert len(enumerate_unconstrained(SpinValue(4))) == 125

    def test_count_formula(self):
        for doubled in range(1, 9):
            got = enumerate_unconstrained(SpinValue(doubled))
            assert len(got) == (doubled + 1) ** 3

    def test_half_spin_components(self):
        got = enumerate_unconstrained(SpinValue(1))
        assert got.shape == (8, 3) and got.dtype == np.int64
        assert row_set(got) == set(product((-1, 1), repeat=3))

    def test_lexicographic_order(self):
        got = enumerate_unconstrained(SpinValue(2))
        assert is_lexicographic(got)
        assert got[0].tolist() == [-2, -2, -2]
        assert got[-1].tolist() == [2, 2, 2]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_unconstrained(SpinValue(0))


class TestConstrained:
    def test_spin_one(self):
        got = enumerate_constrained(SpinValue(2))
        assert len(got) == 12
        assert row_set(got) == signed_permutations((2, 2, 0))

    def test_three_halves_empty(self):
        got = enumerate_constrained(SpinValue(3))
        assert got.shape == (0, 3)

    def test_spin_two(self):
        got = enumerate_constrained(SpinValue(4))
        assert len(got) == 24
        assert row_set(got) == signed_permutations((4, 2, 2))
        # no constrained assignment contains a zero projection
        assert np.all(got != 0)
        assert all(sorted(map(abs, triple)) == [2, 2, 4] for triple in got.tolist())

    def test_spin_four(self):
        got = enumerate_constrained(SpinValue(8))
        assert len(got) == 24
        assert row_set(got) == signed_permutations((8, 4, 0))

    def test_lexicographic_order(self):
        for doubled in (1, 2, 4, 5, 8):
            assert is_lexicographic(enumerate_constrained(SpinValue(doubled)))

    def test_subset_of_unconstrained(self):
        for doubled in (1, 2, 4, 5, 8):
            s = SpinValue(doubled)
            assert row_set(enumerate_constrained(s)) <= row_set(enumerate_unconstrained(s))

    def test_squared_sum_is_exact(self):
        for doubled in (1, 2, 4, 8):
            s = SpinValue(doubled)
            got = enumerate_constrained(s)
            assert np.all(np.square(got).sum(axis=1) == conserving_target_doubled(s))

    @pytest.mark.parametrize("doubled", range(1, 81))
    def test_matches_grid_filter(self, doubled):
        s = SpinValue(doubled)
        got, expected = enumerate_constrained(s), grid_filter(s)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)  # rows and their order

    def test_nonempty_exactly_when_feasible(self):
        for doubled in range(1, 401):
            s = SpinValue(doubled)
            assert (len(enumerate_constrained(s)) > 0) == magnitude_feasible(s), doubled

    def test_closure_under_signed_permutations(self):
        for doubled in (1, 2, 4):
            s = SpinValue(doubled)
            for assignments in (enumerate_constrained(s), enumerate_unconstrained(s)):
                keys = row_set(assignments)
                for triple in keys:
                    assert signed_permutations(triple) <= keys


class TestExtremeAssignments:
    def test_constrained_is_the_conserving_set(self):
        for doubled in (1, 2, 4, 8):
            s = SpinValue(doubled)
            assert np.array_equal(extreme_assignments(s, True), enumerate_constrained(s))

    def test_constrained_infeasible_raises(self):
        with pytest.raises(InfeasibleSpin):
            extreme_assignments(SpinValue(3), True)

    def test_conserving_rows_are_cached_read_only(self):
        for doubled in range(1, 41):
            s = SpinValue(doubled)
            if not magnitude_feasible(s):
                continue
            rows = extreme_assignments(s, True)
            assert rows is extreme_assignments(s, True)
            assert rows.dtype == np.int64
            assert np.array_equal(rows, enumerate_constrained(s))
            with pytest.raises(ValueError):
                rows[0, 0] = 0

    def test_witnesses_and_vertex_order_from_fresh_rows(self):
        from spinhv import classical_bound
        from spinhv.bounds import CoefficientMatrix, _minimize
        from spinhv.polytope import vertex_array_quadrupled

        rng = np.random.default_rng(8)
        for doubled in (1, 2, 4, 8, 20):
            s = SpinValue(doubled)
            assert magnitude_feasible(s)
            fresh = enumerate_constrained(s)
            for C in (rng.normal(size=(3, 3)), rng.integers(-2, 3, size=(3, 3)).astype(float)):
                value, witness = classical_bound(C, s, constrained=True)
                reference = _minimize(CoefficientMatrix(C), fresh)
                assert value == reference[0]
                assert np.array_equal(witness, reference[1])
            products = np.einsum("ik,jl->ijkl", fresh, fresh).reshape(-1, 9)
            assert np.array_equal(vertex_array_quadrupled(s, True), np.unique(products, axis=0))

    def test_unconstrained_corners(self):
        for doubled in (1, 2, 3, 7):
            got = extreme_assignments(SpinValue(doubled), False)
            assert is_lexicographic(got)
            assert row_set(got) == set(product((-doubled, doubled), repeat=3))

    def test_rejects_nonpositive(self):
        for constrained in (True, False):
            with pytest.raises(ValueError):
                extreme_assignments(SpinValue(0), constrained)


class TestFeasibleByEnumeration:
    def test_half(self):
        assert feasible_by_enumeration(SpinValue(1))

    def test_twelve(self):
        assert not feasible_by_enumeration(SpinValue(24))

    def test_five_halves(self):
        # 1 + 9 + 25 = 35 = 5 * 7 in doubled units
        assert feasible_by_enumeration(SpinValue(5))

    def test_matches_enumerate_constrained(self):
        for doubled in range(1, 21):
            s = SpinValue(doubled)
            assert feasible_by_enumeration(s) == (len(enumerate_constrained(s)) > 0), doubled


class TestSquaredMagnitudeClasses:
    def test_three_halves_classes(self):
        classes = squared_magnitude_classes(SpinValue(3))
        assert set(classes) == {27, 19, 11, 3}  # quadrupled: 27/4, 19/4, 11/4, 3/4
        assert 15 not in classes  # s(s+1) = 15/4 never occurs
        assert classes == {27: 8, 19: 24, 11: 24, 3: 8}

    def test_half_single_class(self):
        assert squared_magnitude_classes(SpinValue(1)) == {3: 8}

    def test_spin_one_conserving_class(self):
        classes = squared_magnitude_classes(SpinValue(2))
        assert classes[8] == 12  # matches the constrained count

    def test_total_count(self):
        for doubled in (1, 2, 3, 4):
            classes = squared_magnitude_classes(SpinValue(doubled))
            assert sum(classes.values()) == (doubled + 1) ** 3

    @pytest.mark.parametrize("doubled", range(1, 61))
    def test_matches_unique_over_grid(self, doubled):
        s = SpinValue(doubled)
        keys, counts = np.unique(
            np.square(enumerate_unconstrained(s)).sum(axis=1), return_counts=True
        )
        classes = squared_magnitude_classes(s)
        assert list(classes.items()) == list(zip(keys.tolist(), counts.tolist()))
        # ints, so the report prints "count": 8 and not 8.0
        assert all(type(count) is int for count in classes.values())
