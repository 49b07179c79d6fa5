import numpy as np
import pytest

from spinhv import SpinValue, expectation, quantum_bound
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
    _, state = quantum_bound(EXAMPLE1, SpinValue(2))
    # <S_k S_l> is the expectation of the unit matrix E_kl, taken in row-major (k, l) order
    return np.array([expectation(state, unit) for unit in np.eye(9).reshape(9, 3, 3)]).reshape(3, 3)


@pytest.fixture
def random_signed_permutation():
    """Factory producing random signed permutation matrices."""
    return _random_signed_permutation
