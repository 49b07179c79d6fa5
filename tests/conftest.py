import itertools

import numpy as np
import pytest

from spinhv import SpinValue, expectation, quantum_bound, spin_operators
from spinhv.matrices import EXAMPLE1


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _random_signed_permutation(rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(3)
    signs = rng.choice([-1.0, 1.0], size=3)
    m = np.zeros((3, 3))
    for row, col in enumerate(perm):
        m[row, col] = signs[row]
    return m


@pytest.fixture
def random_rotation():
    """Factory producing uniform-ish random proper rotation matrices."""
    return _random_rotation


@pytest.fixture
def example1_quantum_point():
    """The nine correlators <S_k S_l> of EXAMPLE1's optimal state at 2s = 2, a 3x3 array."""
    s = SpinValue(2)
    _, state = quantum_bound(EXAMPLE1, s)
    ops = spin_operators(s)
    entries = np.zeros((3, 3))
    for k, l in itertools.product(range(3), repeat=2):
        entries[k, l] = expectation(state, np.kron(ops[k], ops[l]))
    return entries


@pytest.fixture
def random_signed_permutation():
    """Factory producing random signed permutation matrices."""
    return _random_signed_permutation
