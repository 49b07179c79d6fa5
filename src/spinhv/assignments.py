"""Deterministic projection assignments for a single spin-s party."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import InfeasibleSpin
from .number_theory import SpinValue

# signs of the spectrum corners, ascending lexicographic like the full grid
_CORNER_SIGNS = np.array(list(product((-1, 1), repeat=3)), dtype=np.int64)


def _require_positive(s: SpinValue) -> None:
    if s.doubled < 1:
        raise ValueError("spin magnitude must be positive")


def conserving_target_doubled(s: SpinValue) -> int:
    """s(s+1) expressed in squared-doubled units: 2s * (2s + 2)."""
    return s.doubled * (s.doubled + 2)


def enumerate_unconstrained(s: SpinValue) -> np.ndarray:
    """All (2s+1)^3 assignments as (n, 3) int64 rows of doubled components.

    Rows are in ascending lexicographic order.
    """
    _require_positive(s)
    spectrum = np.arange(-s.doubled, s.doubled + 1, 2, dtype=np.int64)
    return np.stack(np.meshgrid(spectrum, spectrum, spectrum, indexing="ij"), axis=-1).reshape(-1, 3)


def enumerate_constrained(s: SpinValue) -> np.ndarray:
    """The rows of enumerate_unconstrained whose squared projections sum to s(s+1).

    Empty exactly when no magnitude-conserving model exists for this s.
    """
    full = enumerate_unconstrained(s)
    return full[np.square(full).sum(axis=1) == conserving_target_doubled(s)]


def extreme_assignments(s: SpinValue, constrained: bool) -> np.ndarray:
    """One party's extreme assignments as doubled rows, ascending lexicographic.

    Constrained: every conserving triple (they all lie on one sphere),
    raising InfeasibleSpin when none exist.  Unconstrained: the 8 spectrum
    corners {-s, s}^3, which suffice for bilinear minima and correlation
    hulls because a . C . b and a (x) b are affine in each component of
    a and of b.
    """
    _require_positive(s)
    if not constrained:
        return s.doubled * _CORNER_SIGNS
    rows = enumerate_constrained(s)
    if not len(rows):
        raise InfeasibleSpin(f"no magnitude-conserving assignments exist for s = {s}")
    return rows


def feasible_by_enumeration(s: SpinValue) -> bool:
    """Magnitude-conservation feasibility by direct search over triples.

    Scans sorted nonnegative component triples with an exact integer
    square root for the third; deliberately free of the residue tests in
    number_theory so the two routes stay independent cross-checks.
    """
    _require_positive(s)
    target = conserving_target_doubled(s)
    parity = s.doubled % 2
    dx = parity
    while 3 * dx * dx <= target:
        dy = dx
        while dx * dx + 2 * dy * dy <= target:
            rest = target - dx * dx - dy * dy
            dz = math.isqrt(rest)
            if dz * dz == rest and dz % 2 == parity:
                return True
            dy += 2
        dx += 2
    return False


def squared_magnitude_classes(s: SpinValue) -> dict[int, int]:
    """Histogram of squared projection sums over all assignments.

    Keys are exact: the sum of squared doubled components, i.e. four
    times the squared length.  A key equal to conserving_target_doubled(s)
    is present iff the constrained set is nonempty.
    """
    keys, counts = np.unique(np.square(enumerate_unconstrained(s)).sum(axis=1), return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))
