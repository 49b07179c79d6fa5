"""Closed-form feasibility of magnitude-conserving spin projection triples.

A spin-s hidden-variable model that conserves the magnitude must pick
projections (s_x, s_y, s_z) from the operator spectrum with
s_x^2 + s_y^2 + s_z^2 = s(s+1).  Whether such a triple exists at all is a
pure number-theory question: Legendre's three-square theorem for integer
spins, a residue test mod 4 for half-integer ones.  Everything works on
doubled integers so half-integer spins stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, UnsupportedSpin


@dataclass(frozen=True, order=True)
class SpinValue:
    """A positive spin magnitude stored as twice its value.

    Doubling keeps half-integers exact: s = 3/2 is SpinValue(3).  A value
    below 1 raises UnsupportedSpin.
    """

    doubled: int

    def __post_init__(self) -> None:
        if not isinstance(self.doubled, int) or isinstance(self.doubled, bool):
            raise TypeError(f"doubled must be an int, got {type(self.doubled).__name__}")
        if self.doubled < 1:
            raise UnsupportedSpin(f"spin magnitude must be positive, got 2s = {self.doubled}")

    @property
    def value(self) -> float:
        return self.doubled / 2

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def is_sum_of_three_squares(n: int) -> bool:
    """Whether n = x^2 + y^2 + z^2 has a solution in integers.

    Holds exactly when n is not of the form 4^a (8b + 7); implemented by
    stripping factors of 4 and testing the residue mod 8.
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


def magnitude_feasible(s: SpinValue) -> bool:
    """Whether some projection triple of spin s has squared sum s(s+1).

    Half-integer s: solvable exactly when 2s = 1 (mod 4).  Integer s = n:
    Legendre's three-square theorem applied to n(n+1).
    """
    if s.doubled % 2 != 0:
        return s.doubled % 4 == 1
    n = s.doubled // 2
    return is_sum_of_three_squares(n * (n + 1))
