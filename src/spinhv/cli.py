"""Command-line interface emitting machine-readable JSON run reports.

Each cmd_* returns (inputs, tolerances, results, exit code), and main wraps
them in the one report envelope of _report.  Exit codes: 0 success, 2
invalid input (an InvalidInput error), 3 built-in target mismatch, 4
internal numerical failure (a NumericalFailure error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .assignments import (
    conserving_target_doubled,
    extreme_assignments,
    feasible_by_enumeration,
    squared_magnitude_classes,
)
from .bounds import WITNESS_TOL, bounds_report, violates
from .errors import InvalidInput, NumericalFailure
from .matrices import NAMED_MATRICES, ROTATION_Z45
from .number_theory import SpinValue, magnitude_feasible
from .polytope import CORRELATOR_SLACK, RECONSTRUCTION_TOL, membership
from .quantum import EIG_RESIDUAL_TOL, MAX_SPIN_DOUBLED, SCHMIDT_NORM_TOL
from .quantum import expectation, quantum_value, rotated_singlet
from .simplex import FEAS_TOL

MAX_FORMULA_DOUBLED = 2000
MAX_ORACLE_DOUBLED = 200

_SQRT2 = math.sqrt(2.0)

# classical bounds (beta, beta_bar) of the built-in rotation inequality, keyed by
# doubled spin; its quantum target is each row's -s(s+1)
TABLE1_TARGETS = {
    2: (-1.0 - 1.0 / _SQRT2, -1.0 - _SQRT2),
    4: (-1.0 + 1.0 / _SQRT2 - 4.0 * _SQRT2, -4.0 - 4.0 * _SQRT2),
    6: (-4.0 * (1.0 + _SQRT2), -9.0 - 9.0 * _SQRT2),
    8: (-14.0 * _SQRT2, -16.0 - 16.0 * _SQRT2),
}

TABLE1_CLASSICAL_TOL = 1e-9
TABLE1_QUANTUM_TOL = 1e-8
WEIGHT_FLOOR = 1e-12  # inside weights at or below it are left out of the membership report


def _report(command: str, inputs: dict, tolerances: dict, results: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        "tolerances": tolerances,
        "results": results,
    }


def _parse_number(token: str) -> float:
    """The float nearest the token's exact value, or ValueError, ZeroDivisionError or OverflowError.

    float() rounds correctly as Fraction does, so it decides every token it
    reads: a non-finite value is rejected, an exact zero is +0.0 ("-0"
    gives 0.0, as Fraction does), and an underflow keeps float()'s sign.
    Only a p/q token goes to Fraction, so no exponent reaches its 10**exp.
    """
    try:
        value = float(token)
    except ValueError:
        return float(Fraction(token))  # a fraction such as 5/2, or no number at all
    if not math.isfinite(value):
        raise ValueError(f"non-finite {token!r}")
    return 0.0 if value == 0.0 and Decimal(token).is_zero() else value


def _parse_numbers(text: str, path: str) -> list[float]:
    values = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for token in line.split():
            try:
                values.append(_parse_number(token))
            except (ValueError, ZeroDivisionError, OverflowError):
                raise InvalidInput(f"{path}: cannot parse {token!r} as a float") from None
    return values


def _read_nine(source: str, what: str) -> np.ndarray:
    """The 3x3 matrix of the 9 numbers in a text file, or InvalidInput."""
    try:
        text = Path(source).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"{source}: cannot read {what} file: {exc}") from None
    values = _parse_numbers(text, source)
    if len(values) != 9:
        raise InvalidInput(f"{source}: expected 9 {what} entries, found {len(values)}")
    return np.array(values).reshape(3, 3)


def _load_matrix(source: str) -> tuple[np.ndarray, dict]:
    if source in NAMED_MATRICES:
        matrix = NAMED_MATRICES[source]
    elif Path(source).is_file():
        matrix = _read_nine(source, "matrix")
    else:
        raise InvalidInput(
            f"matrix {source!r} is neither a built-in name ({', '.join(sorted(NAMED_MATRICES))}) nor a file"
        )
    return matrix, {"matrix": source, "entries": matrix.tolist()}


def _spin(doubled: int, high: int, what: str) -> SpinValue:
    if not 1 <= doubled <= high:
        raise InvalidInput(f"{what} must satisfy 1 <= spin-doubled <= {high}, got {doubled}")
    return SpinValue(doubled)


def _witness_payload(pair) -> dict | None:
    if pair is None:
        return None
    a, b = pair.tolist()
    a_value, b_value = (pair / 2.0).tolist()
    return {"a_doubled": a, "b_doubled": b, "a": a_value, "b": b_value}


def _quarter(key: int, s: SpinValue) -> str:
    """str(Fraction(key, 4)) for a key that is a multiple of 4 when 2s is even and odd when odd.

    Both the class keys and 2s(2s + 2) are: a sum of three squared doubled
    projections is 0 mod 4 for even 2s and 3 mod 8 for odd 2s.
    """
    return f"{key}/4" if s.doubled % 2 else str(key // 4)


def cmd_feasibility(args) -> tuple[dict, dict, dict, int]:
    s = _spin(args.spin_doubled, MAX_FORMULA_DOUBLED, "feasibility")
    formula = magnitude_feasible(s)
    oracle = feasible_by_enumeration(s) if s.doubled <= MAX_ORACLE_DOUBLED else None
    agree = None if oracle is None else formula == oracle

    results = {
        "spin": str(s),
        "conserving_squared_sum": _quarter(conserving_target_doubled(s), s),
        "feasible_by_formula": formula,
        "feasible_by_enumeration": oracle,
        "agreement": agree,
    }
    if s.doubled <= MAX_SPIN_DOUBLED:
        classes = squared_magnitude_classes(s)
        results["constrained_assignments"] = classes.get(conserving_target_doubled(s), 0)
        results["squared_magnitude_classes"] = [
            {"squared_sum": _quarter(key, s), "count": classes[key]}
            for key in sorted(classes, reverse=True)
        ]
    return {"spin_doubled": s.doubled}, {}, results, 3 if agree is False else 0


def cmd_bounds(args) -> tuple[dict, dict, dict, int]:
    matrix, inputs = _load_matrix(args.matrix)
    s = _spin(args.spin_doubled, MAX_SPIN_DOUBLED, "bounds")
    inputs["spin_doubled"] = s.doubled

    rep = bounds_report(matrix, s)
    beta_q, schmidt, diagnostics = quantum_value(matrix, s)

    results = {
        "beta_constrained": rep.beta_constrained,
        "beta_unconstrained": rep.beta_unconstrained,
        "beta_quantum": beta_q,
        "constrained_infeasible": rep.beta_constrained is None,
        "witness_constrained": _witness_payload(rep.witness_constrained),
        "witness_unconstrained": _witness_payload(rep.witness_unconstrained),
        "optimal_state_schmidt": schmidt.tolist(),
        "violates_constrained": (
            None if rep.beta_constrained is None else violates(matrix, s, beta_q, rep.beta_constrained)
        ),
        "violates_unconstrained": violates(matrix, s, beta_q, rep.beta_unconstrained),
        "diagnostics": asdict(diagnostics),
    }
    tolerances = {
        "witness_check": WITNESS_TOL,
        "eigen_residual": EIG_RESIDUAL_TOL,
        "schmidt_square_sum": SCHMIDT_NORM_TOL,
    }
    return inputs, tolerances, results, 0


def cmd_table1(args) -> tuple[dict, dict, dict, int]:
    max_s = _spin(args.max_spin_doubled, MAX_SPIN_DOUBLED, "table1")

    rows = []
    mismatch = False
    for doubled in range(1, max_s.doubled + 1):
        s = SpinValue(doubled)
        rep = bounds_report(ROTATION_Z45, s)
        beta, beta_bar = rep.beta_constrained, rep.beta_unconstrained
        minus_s_s_plus_1 = -conserving_target_doubled(s) / 4.0
        measured = expectation(rotated_singlet(ROTATION_Z45, s), ROTATION_Z45)
        row = {
            "spin": str(s),
            "spin_doubled": doubled,
            "beta_constrained": beta,
            "beta_unconstrained": beta_bar,
            "minus_s_s_plus_1": minus_s_s_plus_1,
            "rotated_singlet_expectation": measured,
        }
        if doubled in TABLE1_TARGETS:
            t_beta, t_bar = TABLE1_TARGETS[doubled]
            checks = {
                "beta_constrained": beta is not None and abs(beta - t_beta) <= TABLE1_CLASSICAL_TOL,
                "beta_unconstrained": abs(beta_bar - t_bar) <= TABLE1_CLASSICAL_TOL,
                "quantum": abs(measured - minus_s_s_plus_1) <= TABLE1_QUANTUM_TOL,
            }
            row["targets"] = {
                "beta_constrained": t_beta,
                "beta_unconstrained": t_bar,
                "quantum": minus_s_s_plus_1,
            }
            row["passed"] = checks
            if not all(checks.values()):
                mismatch = True
        rows.append(row)

    return (
        {"max_spin_doubled": max_s.doubled, "matrix": "eq9-rotation"},
        {"classical_target": TABLE1_CLASSICAL_TOL, "quantum_target": TABLE1_QUANTUM_TOL},
        {"rows": rows, "all_targets_passed": not mismatch},
        3 if mismatch else 0,
    )


def cmd_membership(args) -> tuple[dict, dict, dict, int]:
    point_entries = _read_nine(args.point, "correlator")
    s = _spin(args.spin_doubled, MAX_SPIN_DOUBLED, "membership")

    result = membership(point_entries, s, constrained=args.constrained)

    results: dict = {"inside": result.inside}
    if result.inside:
        nonzero = np.flatnonzero(result.weights > WEIGHT_FLOOR)
        correlators = result.correlators
        results["weights"] = [
            {
                "a_doubled": result.pairs[i, 0].tolist(),
                "b_doubled": result.pairs[i, 1].tolist(),
                "weight": float(result.weights[i]),
                "correlators": correlators[i].tolist(),
            }
            for i in nonzero
        ]
        results["reconstruction_residual"] = result.reconstruction_residual
    else:
        results["separating_functional"] = result.functional.tolist()
        results["functional_bound"] = result.functional_bound
        results["functional_value_at_point"] = result.functional_value
    columns = len(extreme_assignments(s, args.constrained)) ** 2 // 2
    results["diagnostics"] = {
        "lp_columns": columns,
        "lp_pivots": result.pivots,
        "lp_degenerate_pivots": result.degenerate_pivots,
        "gauge": result.gauge,
        "rounds": result.rounds,
    }

    inputs = {
        "point": args.point,
        "entries": point_entries.tolist(),
        "spin_doubled": s.doubled,
        "constrained": args.constrained,
    }
    tolerances = {
        "membership": FEAS_TOL,
        "correlator_slack": CORRELATOR_SLACK,
        "weight_floor": WEIGHT_FLOOR,
        "reconstruction": RECONSTRUCTION_TOL,
    }
    return inputs, tolerances, results, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhv",
        description=(
            "Feasibility, classical bounds, quantum bounds and polytope membership "
            "for magnitude-conserving hidden-variable models of spin correlations."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("feasibility", help="decide magnitude-conservation feasibility for one spin")
    p.add_argument("--spin-doubled", type=int, required=True, help="2s as an integer")
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("bounds", help="classical and quantum bounds for a coefficient matrix")
    p.add_argument(
        "--matrix",
        required=True,
        help="built-in name (%s) or file with 9 numbers" % ", ".join(sorted(NAMED_MATRICES)),
    )
    p.add_argument("--spin-doubled", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table1", help="bounds of the built-in rotation inequality over a spin range")
    p.add_argument("--max-spin-doubled", type=int, default=8)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("membership", help="LP membership of a correlation point")
    p.add_argument("--point", required=True, help="file with 9 correlator values")
    p.add_argument("--spin-doubled", type=int, required=True)
    p.add_argument("--constrained", action="store_true", help="use the magnitude-conserving polytope")
    p.set_defaults(func=cmd_membership)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, tolerances, results, code = args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    report = _report(args.subcommand, inputs, tolerances, results)
    # the report on one line in one write: without indent, json.dumps takes
    # the C encoder; `python3 -m json.tool` pretty-prints it
    sys.stdout.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
