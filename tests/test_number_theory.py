import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhv import (
    SpinValue,
    UnsupportedSpin,
    feasible_by_enumeration,
    is_sum_of_three_squares,
    magnitude_feasible,
)


def three_squares_brute(n: int) -> bool:
    """Oracle: exhaustive search for n = x^2 + y^2 + z^2 over sorted triples."""
    for x in range(math.isqrt(n) + 1):
        for y in range(x, math.isqrt(n - x * x) + 1):
            rest = n - x * x - y * y
            z = math.isqrt(rest)
            if z * z == rest and z >= y:
                return True
    return False


def infeasible_doubled_up_to(max_doubled: int) -> list[int]:
    """Every 2s in 1..max_doubled whose spin has no conserving triple."""
    return [d for d in range(1, max_doubled + 1) if not magnitude_feasible(SpinValue(d))]


class TestSpinValue:
    def test_value_and_str(self):
        assert SpinValue(3).value == 1.5
        assert str(SpinValue(3)) == "3/2"
        assert str(SpinValue(4)) == "2"

    def test_ordering(self):
        assert SpinValue(1) < SpinValue(2)
        assert sorted([SpinValue(4), SpinValue(1)]) == [SpinValue(1), SpinValue(4)]

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            SpinValue(1.5)

    def test_rejects_bool(self):
        # a bool is an int subclass, so True would otherwise read as spin 1/2
        for flag in (True, False):
            with pytest.raises(TypeError, match="doubled must be an int, got bool"):
                SpinValue(flag)

    def test_rejects_nonpositive(self):
        for doubled in (0, -2):
            with pytest.raises(UnsupportedSpin):
                SpinValue(doubled)


class TestThreeSquares:
    def test_zero(self):
        assert is_sum_of_three_squares(0)  # 0 = 0+0+0

    def test_seven_is_excluded_form(self):
        assert not is_sum_of_three_squares(7)

    def test_six(self):
        # brute force finds 1+1+4
        assert three_squares_brute(6)
        assert is_sum_of_three_squares(6)

    def test_twenty_eight(self):
        # 28 = 4*7; brute force over all triples finds nothing
        assert not three_squares_brute(28)
        assert not is_sum_of_three_squares(28)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_sum_of_three_squares(-1)

    def test_agrees_with_brute_force_small(self):
        for n in range(0, 400):
            assert is_sum_of_three_squares(n) == three_squares_brute(n), n

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, n):
        assert is_sum_of_three_squares(n) == three_squares_brute(n)

    def test_invariant_under_factor_four(self):
        for n in range(10_001):
            assert is_sum_of_three_squares(4 * n) == is_sum_of_three_squares(n)


class TestMagnitudeFeasible:
    def test_half(self):
        assert magnitude_feasible(SpinValue(1))  # (1/2)^2 * 3 = 3/4

    def test_three_halves(self):
        assert not magnitude_feasible(SpinValue(3))

    def test_twelve(self):
        assert not magnitude_feasible(SpinValue(24))

    def test_three(self):
        # 2^2 + 2^2 + 2^2 = 12 = 3*4
        assert magnitude_feasible(SpinValue(6))

    def test_known_integer_gaps(self):
        for s in (12, 15, 19, 44, 51):
            assert not magnitude_feasible(SpinValue(2 * s)), s

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            magnitude_feasible(SpinValue(0))
        with pytest.raises(ValueError):
            magnitude_feasible(SpinValue(-2))

    @given(st.integers(min_value=1, max_value=195).filter(lambda d: d % 2 == 1))
    @settings(max_examples=60, deadline=None)
    def test_half_integer_period_four(self, doubled):
        assert magnitude_feasible(SpinValue(doubled)) == magnitude_feasible(
            SpinValue(doubled + 4)
        )

    def test_half_integer_rule(self):
        for doubled in range(1, 200, 2):
            assert magnitude_feasible(SpinValue(doubled)) == (doubled % 4 == 1)

    def test_matches_enumeration_oracle(self):
        # decisive cross-check of the closed forms against direct search
        for doubled in range(1, 201):
            s = SpinValue(doubled)
            assert magnitude_feasible(s) == feasible_by_enumeration(s), doubled


class TestInfeasibleSpinsUpTo:
    def test_up_to_twenty(self):
        got = infeasible_doubled_up_to(40)
        assert {d // 2 for d in got if d % 2 == 0} == {12, 15, 19}
        assert {d for d in got if d % 2 == 1} == {d for d in range(1, 41, 2) if d % 4 == 3}

    def test_up_to_fifty_five(self):
        got = infeasible_doubled_up_to(110)
        assert {d // 2 for d in got if d % 2 == 0} == {12, 15, 19, 44, 51}
