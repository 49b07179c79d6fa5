"""Reference probe of how fast the machine runs Python and numpy right now.

The benchmark's machine is shared: for seconds to minutes at a time it runs
the same code up to 1.7 times slower, so two runs of one program can differ
by more than the regressions the benchmark is meant to catch.  The probe is
fixed work that does not touch spinhv, timed between ops in the same
process; an op's time divided by the probe's time around it cancels most of
that drift.  ``scale(probe_s)`` gives the factor that turns a time measured
while the probe took ``probe_s`` into a time on a machine where it takes
``REFERENCE_S``, about what it takes on a 2-core Xeon VM in its fast spells.

The probe has four parts, timed separately and combined by geometric mean,
because the slow spells slow some kinds of code more than others: integer
loops, JSON and string handling, small-object calls, and small dense linear
algebra.  Together they track the CLI's ops better than any one part does.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

REFERENCE_S = 0.004

_DOCS = [{f"k{i}": [i, str(i), {"x": i * 0.5}] for i in range(40)} for _ in range(20)]
_MATRIX = np.random.default_rng(0).normal(size=(60, 60))


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


def _integers():
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def _documents():
    for _ in range(3):
        docs = json.loads(json.dumps(_DOCS))
        pairs = sorted((k, v[1]) for doc in docs for k, v in doc.items())
        "|".join(f"{k}={v}" for k, v in pairs)


def _calls():
    return sum(_Point(i, 2).at(3) for i in range(8000))


def _linear_algebra():
    for _ in range(20):
        np.linalg.eigvalsh(_MATRIX + _MATRIX.T)
        (_MATRIX @ _MATRIX).sum()


PARTS = (_integers, _documents, _calls, _linear_algebra)


def probe() -> float:
    """Seconds of one probe: the geometric mean of its parts' times."""
    logs = 0.0
    for part in PARTS:
        start = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - start)
    return math.exp(logs / len(PARTS))


def scale(probe_s: float) -> float:
    return REFERENCE_S / probe_s
