"""Built-in coefficient matrices selectable by name on the command line."""

from __future__ import annotations

import math

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

EXAMPLE1 = np.array([[-1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
EXAMPLE2 = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0], [-1.0, -1.0, 3.0]])
EXAMPLE3 = np.array([[2.5, 2.0, -1.0], [2.5, -2.0, -1.0], [-1.5, 0.0, -3.0]])

# 45 degree rotation about z, the universal inequality for any spin
ROTATION_Z45 = np.array(
    [[_INV_SQRT2, -_INV_SQRT2, 0.0], [_INV_SQRT2, _INV_SQRT2, 0.0], [0.0, 0.0, 1.0]]
)

IDENTITY = np.eye(3)

NAMED_MATRICES = {
    "example1": EXAMPLE1,
    "example2": EXAMPLE2,
    "example3": EXAMPLE3,
    "eq9-rotation": ROTATION_Z45,
    "identity": IDENTITY,
}
# shared by every solve in the process: an in-place edit raises ValueError
for _matrix in NAMED_MATRICES.values():
    _matrix.setflags(write=False)

