"""Independent checks of the JSON reports, run outside the timed region.

Each check returns None when the report is right and a message when it is
wrong.  They recompute what they can from the definitions (vertex sets,
spin operators, class histograms, the three-squares search) with numpy;
only the brute-force classical bound comes from the package, as the
reference oracle it keeps for that purpose.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import numpy as np

from workloads import conserving_triples, vertices_quadrupled

WEIGHT_TOL = 1e-7
RECONSTRUCTION_TOL = 1e-7
VALUE_TOL = 1e-9
EIG_TOL = 1e-8
SINGLET_TOL = 1e-8
BRUTEFORCE_MAX_DOUBLED = 6
EIGVALSH_MAX_DOUBLED = 10


def _read_nine(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(v) for v in fh.read().split()]).reshape(3, 3)


def _matrix(argv: list[str]) -> np.ndarray:
    from spinhv.matrices import NAMED_MATRICES

    source = argv[argv.index("--matrix") + 1]
    if source in NAMED_MATRICES:
        return np.asarray(NAMED_MATRICES[source], dtype=float)
    return _read_nine(source)


def _feasible(spin_doubled: int) -> bool:
    """Legendre's three-square theorem applied to the doubled components.

    Odd 2s needs three odd doubled components, whose squares sum to 3 mod 8,
    and 2s(2s+2) is 3 mod 8 exactly when 2s = 1 mod 4.  Even 2s halves the
    components, leaving x^2 + y^2 + z^2 = s(s+1), solvable unless s(s+1) is
    4^a (8b + 7).
    """
    if spin_doubled % 2:
        return spin_doubled % 4 == 1
    n = (spin_doubled // 2) * (spin_doubled // 2 + 1)
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7


def check_feasibility(op: dict, report: dict) -> str | None:
    d = op["spin_doubled"]
    res = report["results"]
    if res["agreement"] is False:
        return "formula and enumeration disagree"
    expected = _feasible(d)
    if res["feasible_by_formula"] != expected:
        return f"feasible_by_formula {res['feasible_by_formula']} != {expected}"
    if (res["feasible_by_enumeration"] is None) != (d > 200):
        return "enumeration oracle ran outside 2s <= 200 or skipped inside it"
    if d <= 40:
        triples = conserving_triples(d, constrained=False)
        keys, counts = np.unique((triples**2).sum(axis=1), return_counts=True)
        got = {int(4 * Fraction(c["squared_sum"])): c["count"] for c in res["squared_magnitude_classes"]}
        if got != {int(k): int(c) for k, c in zip(keys, counts)}:
            return "squared-magnitude class histogram differs"
        if res["constrained_assignments"] != len(conserving_triples(d, constrained=True)):
            return "constrained assignment count differs"
    return None


@lru_cache(maxsize=None)
def _spin_ops(spin_doubled: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = spin_doubled / 2.0
    m = np.arange(spin_doubled, -spin_doubled - 1, -2) / 2.0
    raising = np.diag(np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    return (raising + raising.T) / 2.0, (raising - raising.T) / 2.0j, np.diag(m).astype(complex)


def _bell(matrix: np.ndarray, spin_doubled: int) -> np.ndarray:
    ops = _spin_ops(spin_doubled)
    return sum(matrix[k, l] * np.kron(ops[k], ops[l]) for k in range(3) for l in range(3))


def _witness_ok(witness: dict, spin_doubled: int, constrained: bool, matrix: np.ndarray, value: float) -> str | None:
    a = np.array(witness["a_doubled"])
    b = np.array(witness["b_doubled"])
    for v in (a, b):
        if np.any(np.abs(v) > spin_doubled) or np.any((v - spin_doubled) % 2):
            return f"witness {v.tolist()} is not in the spectrum"
        if constrained and int(v @ v) != spin_doubled * (spin_doubled + 2):
            return f"witness {v.tolist()} does not conserve the magnitude"
    if abs(float(a / 2.0 @ matrix @ (b / 2.0)) - value) > VALUE_TOL * max(1.0, abs(value)):
        return "witness does not reproduce its bound"
    return None


def check_bounds(op: dict, report: dict) -> str | None:
    from spinhv import SpinValue, classical_bound_bruteforce

    d = op["spin_doubled"]
    matrix = _matrix(op["argv"])
    res = report["results"]
    beta, beta_bar = res["beta_constrained"], res["beta_unconstrained"]
    problem = _witness_ok(res["witness_unconstrained"], d, False, matrix, beta_bar)
    if problem:
        return "beta_bar " + problem
    feasible = len(conserving_triples(d, constrained=True)) > 0
    if feasible == res["constrained_infeasible"] or (beta is None) == feasible:
        return "constrained feasibility flag is wrong"
    if feasible:
        problem = _witness_ok(res["witness_constrained"], d, True, matrix, beta)
        if problem:
            return "beta " + problem
        if beta < beta_bar - VALUE_TOL:
            return "beta undercuts beta_bar"
    if d <= BRUTEFORCE_MAX_DOUBLED:
        ref_bar, _ = classical_bound_bruteforce(matrix, SpinValue(d), constrained=False)
        if abs(ref_bar - beta_bar) > VALUE_TOL:
            return f"beta_bar {beta_bar} != brute force {ref_bar}"
        if feasible:
            ref, _ = classical_bound_bruteforce(matrix, SpinValue(d), constrained=True)
            if abs(ref - beta) > VALUE_TOL:
                return f"beta {beta} != brute force {ref}"
    if d <= EIGVALSH_MAX_DOUBLED:
        ref_q = float(np.linalg.eigvalsh(_bell(matrix, d))[0])
        if abs(ref_q - res["beta_quantum"]) > EIG_TOL:
            return f"beta_q {res['beta_quantum']} != eigvalsh {ref_q}"
    if abs(float(np.sum(np.square(res["optimal_state_schmidt"]))) - 1.0) > 1e-9:
        return "Schmidt coefficients do not square-sum to one"
    return None


def check_table1(op: dict, report: dict) -> str | None:
    res = report["results"]
    if res["all_targets_passed"] is not True:
        return "table1 targets failed"
    rows = res["rows"]
    if [row["spin_doubled"] for row in rows] != list(range(1, op["spin_doubled"] + 1)):
        return "table1 rows do not cover 1..max"
    for row in rows:
        d = row["spin_doubled"]
        if abs(row["rotated_singlet_expectation"] + d * (d + 2) / 4.0) > SINGLET_TOL:
            return f"rotated singlet expectation at 2s={d} is not -s(s+1)"
    return None


@lru_cache(maxsize=None)
def _vertex_keys(spin_doubled: int, constrained: bool) -> tuple[np.ndarray, frozenset]:
    quadrupled = vertices_quadrupled(spin_doubled, constrained)
    return quadrupled / 4.0, frozenset(map(tuple, quadrupled.tolist()))


def check_membership(op: dict, report: dict) -> str | None:
    d = op["spin_doubled"]
    res = report["results"]
    if res["inside"] != op["inside"]:
        return f"verdict inside={res['inside']} but the point is {'inside' if op['inside'] else 'outside'} by construction"
    point = _read_nine(op["argv"][op["argv"].index("--point") + 1]).reshape(9)
    vertices, keys = _vertex_keys(d, op["constrained"])
    if res["inside"]:
        weights = np.array([w["weight"] for w in res["weights"]])
        used = np.array([w["correlators"] for w in res["weights"]]).reshape(-1, 9)
        if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > WEIGHT_TOL:
            return "inside weights are not a convex combination"
        for row in used:
            key = tuple(int(round(v)) for v in 4 * row)
            if key not in keys or np.any(np.abs(4 * row - key) > 1e-9):
                return "inside certificate uses a point that is not a vertex"
        if float(np.max(np.abs(weights @ used - point))) > RECONSTRUCTION_TOL:
            return "inside weights do not reconstruct the point"
        return None
    functional = np.array(res["separating_functional"])
    bound = res["functional_bound"]
    scale = VALUE_TOL * max(1.0, d * d / 4.0)
    if float((vertices @ functional).min()) < bound - scale:
        return "separating functional is below its bound on a vertex"
    if not float(functional @ point) < bound:
        return "separating functional does not separate the point"
    return None


CHECKS = {
    "feasibility": check_feasibility,
    "bounds": check_bounds,
    "table1": check_table1,
    "membership": check_membership,
}


def check(op: dict, stdout: str) -> str | None:
    """None when the op's report is right, else what is wrong with it."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    return CHECKS[op["argv"][0]](op, report)
