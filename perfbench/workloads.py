"""Seeded op lists for the spinhv benchmark workloads.

``generate(workload, seed)`` returns the rounds of ops and the input files
they read.  An op is a dict with the CLI ``argv`` (a token ``@name`` stands
for the input file ``name``), its spin ``band``, its ``kind`` and, for
``membership``, the verdict the point has by construction.  The program
under test sees only argv and files; the seed stays here.

Everything is built from the definitions with numpy alone, so the
generator does not depend on the package it feeds.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("feasibility-sweep", "bounds-mix", "membership-mix")
# A run repeats passes, each in a fresh process with its own inputs from the
# same plan.  A feasibility pass holds every spin of bands 1 and 2 once, so
# only passes in separate processes can add work without a spin repeating
# in one process.

BUILTIN_MATRICES = ("example1", "example2", "example3", "eq9-rotation", "identity")
MATRIX_KINDS = ("builtin", "integer", "real", "rotation")

# Membership spins, grouped by vertex count: (band, spins, constrained, kinds).
# The seed's simplex stalls to its iteration limit on degenerate points, at a
# cost that grows with the vertex count (about 2.5 s at 4608 vertices, 18 s
# at 2s = 29 with 56448).  The origin stalls every time at 2s = 18, 21, 40
# and unconstrained 4, and those ops stay in every pass.  From 1152 vertices
# up, random points cost from a few ms to seconds depending on the draw, and
# single vertices stall about one time in ten from 4608 up, so those spins
# run the origin only: random draws there would set the pass's tail
# percentile and move it from seed to seed, while the stalls and the
# origins, which cost the same in every pass, are a pass's slowest ops and
# put the tail among them.  The constrained spins 20, 25, 26, 29
# and 33-37 (10368 to 56448 vertices) are left out for run time.  The tiny
# band (32 to 72 vertices), where the CLI and a few pivots dominate, holds
# most of the ops, so the median falls among many like ops.
RANDOM_KINDS = ("origin", "vertex", "mixture", "mixture", "outside", "outside")
TINY_KINDS = ("vertex",) * 9 + ("mixture",) * 12 + ("outside",) * 9
MEMBERSHIP_BANDS = (
    ("tiny", (1, 2, 6), True, TINY_KINDS),
    ("tiny-unconstrained", (1,), False, TINY_KINDS),
    ("small", (4, 8, 16), True, RANDOM_KINDS),
    ("small-unconstrained", (2,), False, RANDOM_KINDS),
    ("medium", (5, 10, 12, 14, 22, 32), True, ("origin",)),
    ("large", (9, 13, 17, 18, 21, 28, 40), True, ("origin",)),
    ("large-unconstrained", (3, 4), False, ("origin",)),
)

FEASIBILITY_ROUNDS = 10
BOUNDS_ROUNDS = 4


def _fmt(values) -> str:
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in np.reshape(values, (3, 3))) + "\n"


def conserving_triples(spin_doubled: int, constrained: bool) -> np.ndarray:
    """Doubled projection triples of one party, optionally magnitude-conserving."""
    spectrum = np.arange(-spin_doubled, spin_doubled + 1, 2)
    grid = np.stack(np.meshgrid(spectrum, spectrum, spectrum, indexing="ij"), -1).reshape(-1, 3)
    if constrained:
        grid = grid[(grid**2).sum(axis=1) == spin_doubled * (spin_doubled + 2)]
    return grid


def vertices_quadrupled(spin_doubled: int, constrained: bool) -> np.ndarray:
    """Distinct outer products (2a)(2b) of assignment pairs, as int rows of nine."""
    triples = conserving_triples(spin_doubled, constrained)
    products = np.einsum("ik,jl->ijkl", triples, triples).reshape(-1, 9)
    return np.unique(products, axis=0)


def _feasibility(rng: np.random.Generator) -> list[list[dict]]:
    # band 1 (2s <= 40) enumerates every triple, band 2 (<= 200) adds the
    # isqrt oracle, band 3 (<= 2000) is formula only.  Each round takes one
    # spin from every stratum, without replacement across rounds, so no spin
    # repeats and every seed runs all of bands 1 and 2.
    strata = (
        [("le40", range(lo, lo + 10)) for lo in range(1, 41, 10)]
        + [("le200", range(lo, lo + 10)) for lo in range(41, 201, 10)]
        + [("le2000", range(lo, lo + 30)) for lo in range(201, 2001, 30)]
    )
    picks = [(band, rng.permutation(np.array(spins))[:FEASIBILITY_ROUNDS]) for band, spins in strata]
    rounds = []
    for r in range(FEASIBILITY_ROUNDS):
        ops = [
            {
                "argv": ["feasibility", "--spin-doubled", str(int(spins[r]))],
                "band": band,
                "kind": "feasibility",
                "spin_doubled": int(spins[r]),
            }
            for band, spins in picks
        ]
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return rounds


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _bounds(rng: np.random.Generator) -> tuple[list[list[dict]], dict[str, str]]:
    files: dict[str, str] = {}
    builtin_order = rng.permutation(len(BUILTIN_MATRICES))
    n_builtin = 0

    def bounds_op(kind: str, d: int, band: str) -> dict:
        nonlocal n_builtin
        if kind == "builtin":
            matrix = BUILTIN_MATRICES[builtin_order[n_builtin % len(BUILTIN_MATRICES)]]
            n_builtin += 1
        else:
            if kind == "integer":
                entries = rng.integers(-3, 4, size=(3, 3))
                while not entries.any():
                    entries = rng.integers(-3, 4, size=(3, 3))
            elif kind == "real":
                entries = rng.normal(size=(3, 3))
            else:
                entries = _random_rotation(rng)
            name = f"m{len(files):04d}.txt"
            files[name] = _fmt(entries)
            matrix = "@" + name
        argv = ["bounds", "--matrix", matrix, "--spin-doubled", str(d)]
        return {"argv": argv, "band": band, "kind": kind, "spin_doubled": d}

    # Spins 1..20 fall into four residue classes of five; round r gives
    # matrix kind k the class (r + k) mod 4, so every round costs about the
    # same and every (kind, spin) pair runs once per pass.  On top of that
    # sweep, each round runs every kind at 2s = 20, where the dense eigh
    # dominates, so the tail percentile falls among many like ops, and twice
    # at 2s = 1..4, where the CLI and small scans dominate, so the median
    # does too.
    classes = [list(range(c, 21, 4)) for c in range(1, 5)]
    rounds = []
    for r in range(BOUNDS_ROUNDS):
        ops = []
        for k, kind in enumerate(MATRIX_KINDS):
            ops += [bounds_op(kind, d, f"class{(d - 1) % 4}") for d in classes[(r + k) % 4]]
            ops.append(bounds_op(kind, 20, "top"))
            ops += [bounds_op(kind, d, "low") for d in (1, 2, 3, 4) for _ in range(2)]
        # table1 maxima: one per stratum 1-5, 6-10, 11-15, 16-20
        stratum = r % 4
        top = int(rng.integers(5 * stratum + 1, 5 * stratum + 6))
        ops.append(
            {
                "argv": ["table1", "--max-spin-doubled", str(top)],
                "band": f"table1-{stratum}",
                "kind": "table1",
                "spin_doubled": top,
            }
        )
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return rounds, files


def _outside_point(rng: np.random.Generator, vertices: np.ndarray, box: float) -> np.ndarray:
    """A point past the face that a random functional minimises on the vertices."""
    while True:
        f = rng.normal(size=9)
        best = vertices[int(np.argmin(vertices @ f))]
        step = -0.05 * box * f / np.linalg.norm(f)
        room = np.abs(best + step) <= box
        if room.any() and f[room] @ step[room] < -1e-3 * box:
            return np.where(room, best + step, best)


def _point(rng: np.random.Generator, kind: str, vertices: np.ndarray, box: float) -> tuple[np.ndarray, bool]:
    if kind == "origin":
        return np.zeros(9), True
    if kind == "vertex":
        return vertices[int(rng.integers(len(vertices)))], True
    if kind == "mixture":
        k = int(rng.integers(2, 9))
        chosen = vertices[rng.choice(len(vertices), size=k, replace=False)]
        return rng.dirichlet(np.ones(k)) @ chosen, True
    return _outside_point(rng, vertices, box), False


def _membership(rng: np.random.Generator) -> tuple[list[list[dict]], dict[str, str]]:
    # every seed runs the same (spin, constrained, kind) multiset; the seed
    # picks the vertices, mixtures, faces and the order
    plan = [
        (band, d, constrained, kind)
        for band, spins, constrained, kinds in MEMBERSHIP_BANDS
        for d in spins
        for kind in kinds
    ]

    cache: dict[tuple[int, bool], np.ndarray] = {}
    files: dict[str, str] = {}
    ops = []
    for band, d, constrained, kind in plan:
        key = (d, constrained)
        if key not in cache:
            cache[key] = vertices_quadrupled(d, constrained) / 4.0
        point, inside = _point(rng, kind, cache[key], d * d / 4.0)
        name = f"p{len(files):04d}.txt"
        files[name] = _fmt(point)
        argv = ["membership", "--point", "@" + name, "--spin-doubled", str(d)]
        if constrained:
            argv.append("--constrained")
        ops.append(
            {
                "argv": argv,
                "band": band,
                "kind": kind,
                "spin_doubled": d,
                "constrained": constrained,
                "inside": inside,
            }
        )
    return [[ops[i] for i in rng.permutation(len(ops))]], files


def generate(workload: str, seed: int, pass_index: int = 0) -> tuple[list[list[dict]], dict[str, str]]:
    """Rounds of ops and the input files (name -> text) for one pass of a workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    if workload == "feasibility-sweep":
        return _feasibility(rng), {}
    if workload == "bounds-mix":
        return _bounds(rng)
    return _membership(rng)


def resolve_argv(argv: list[str], input_dir: str) -> list[str]:
    """Replace each ``@name`` token with the path of that input file."""
    return [f"{input_dir}/{a[1:]}" if a.startswith("@") else a for a in argv]
