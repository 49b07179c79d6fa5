"""Deterministic projection assignments for a single spin-s party.

Conserving triples are few (96 of the 68 921 grid triples at 2s = 40),
so they come from an O(s^2) walk over (x, y) with an exact integer root
for z.  The (2s+1)^3 grid is built only for the unconstrained set and
the brute-force oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
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


def _spectrum(s: SpinValue) -> np.ndarray:
    return np.arange(-s.doubled, s.doubled + 1, 2, dtype=np.int64)


def enumerate_unconstrained(s: SpinValue) -> np.ndarray:
    """All (2s+1)^3 assignments as (n, 3) int64 rows of doubled components.

    Rows are in ascending lexicographic order.
    """
    _require_positive(s)
    spectrum = _spectrum(s)
    return np.stack(np.meshgrid(spectrum, spectrum, spectrum, indexing="ij"), axis=-1).reshape(-1, 3)


def enumerate_constrained(s: SpinValue) -> np.ndarray:
    """The rows of enumerate_unconstrained whose squared projections sum to s(s+1).

    Walks the (2s+1)^2 grid of (x, y) and takes z = +-isqrt(rest) for
    rest = 4 s(s+1) - x^2 - y^2, so the cubic grid is never built.  The
    root is exact: rest < 2^53, so the float root of a perfect square is
    its integer root, and z * z == rest with z of the parity of 2s
    decides.  Then |z| <= 2s, since z^2 <= 2s (2s + 2) < (2s + 1)^2.
    Rows come in ascending lexicographic order, like the grid's.
    Empty exactly when no magnitude-conserving model exists for this s.
    """
    _require_positive(s)
    spectrum = _spectrum(s)
    x = np.repeat(spectrum, len(spectrum))
    y = np.tile(spectrum, len(spectrum))
    rest = conserving_target_doubled(s) - x * x - y * y
    z = np.rint(np.sqrt(np.maximum(rest, 0))).astype(np.int64)
    keep = (z * z == rest) & ((z - s.doubled) % 2 == 0)
    x, y, z = x[keep], y[keep], z[keep]
    # (x, y, -z) before (x, y, z), and a single row when z = 0
    rows = np.stack([x, y, -z, x, y, z], axis=1).reshape(-1, 3)
    return rows[np.stack([np.full(len(z), True), z > 0], axis=1).reshape(-1)]


def extreme_assignments(s: SpinValue, constrained: bool) -> np.ndarray:
    """One party's extreme assignments as doubled rows, ascending lexicographic.

    Constrained: every conserving triple (they all lie on one sphere), a
    read-only array built once per spin, raising InfeasibleSpin when none
    exist.  Unconstrained: the 8 spectrum corners {-s, s}^3, which suffice
    for bilinear minima and correlation hulls because a . C . b and
    a (x) b are affine in each component of a and of b.
    """
    _require_positive(s)
    if not constrained:
        return s.doubled * _CORNER_SIGNS
    rows = _conserving_rows(s.doubled)
    if not len(rows):
        raise InfeasibleSpin(f"no magnitude-conserving assignments exist for s = {s}")
    return rows


@lru_cache(maxsize=None)
def _conserving_rows(doubled: int) -> np.ndarray:
    rows = enumerate_constrained(SpinValue(doubled))
    rows.setflags(write=False)
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
    """Histogram of squared projection sums over all assignments, keys ascending.

    Keys are exact: the sum of squared doubled components, i.e. four
    times the squared length.  A key equal to conserving_target_doubled(s)
    is present iff the constrained set is nonempty.  One bincount over the
    outer sum of the squared spectrum, so no sort and no (n, 3) rows.
    """
    _require_positive(s)
    squares = np.square(_spectrum(s))
    counts = np.bincount((squares[:, None, None] + squares[:, None] + squares).reshape(-1))
    keys = np.flatnonzero(counts)
    return dict(zip(keys.tolist(), counts[keys].tolist()))
