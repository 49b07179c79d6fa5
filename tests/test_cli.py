import inspect
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinhv import (
    DimensionMismatch,
    InvalidInput,
    LpNumericalFailure,
    NonFiniteMatrix,
    NumericalFailure,
    SpinHvError,
    SpinValue,
    bell_operator,
    classical_bound,
    enumerate_constrained,
    expectation,
    is_sum_of_three_squares,
    quantum_bound,
    schmidt_coefficients,
    squared_magnitude_classes,
)
from spinhv import errors
from spinhv.assignments import conserving_target_doubled
from spinhv.bounds import WITNESS_TOL
from spinhv.cli import TABLE1_CLASSICAL_TOL, TABLE1_QUANTUM_TOL, WEIGHT_FLOOR, _parse_numbers, main
from spinhv.matrices import EXAMPLE1, EXAMPLE3
from spinhv.polytope import CORRELATOR_SLACK, RECONSTRUCTION_TOL
from spinhv.quantum import EIG_RESIDUAL_TOL, SCHMIDT_NORM_TOL, _symmetry_blocks
from spinhv.simplex import FEAS_TOL, solve_equality_lp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def strip_timestamp(text: str) -> str:
    """The one JSON report in text, encoded again without its timestamp (key order kept)."""
    report = json.loads(text)
    del report["timestamp"]
    return json.dumps(report)


class TestFeasibilityCommand:
    def test_three_halves(self, capsys):
        code, report = run_cli(capsys, "feasibility", "--spin-doubled", "3")
        assert code == 0
        results = report["results"]
        assert results["feasible_by_formula"] is False
        assert results["feasible_by_enumeration"] is False
        assert results["agreement"] is True
        table = {row["squared_sum"]: row["count"] for row in results["squared_magnitude_classes"]}
        assert table == {"27/4": 8, "19/4": 24, "11/4": 24, "3/4": 8}
        assert "15/4" not in table

    def test_spin_twelve(self, capsys):
        code, report = run_cli(capsys, "feasibility", "--spin-doubled", "24")
        assert code == 0
        assert report["results"]["feasible_by_formula"] is False
        assert report["results"]["agreement"] is True

    def test_spin_one(self, capsys):
        code, report = run_cli(capsys, "feasibility", "--spin-doubled", "2")
        assert code == 0
        assert report["results"]["feasible_by_formula"] is True
        assert report["results"]["constrained_assignments"] == 12

    def test_constrained_count_matches_enumeration(self, capsys):
        for doubled in range(1, 41):
            _, report = run_cli(capsys, "feasibility", "--spin-doubled", str(doubled))
            expected = len(enumerate_constrained(SpinValue(doubled)))
            assert report["results"]["constrained_assignments"] == expected, doubled

    def test_class_strings_are_exact_quarters(self, capsys):
        for doubled in range(1, 41):
            s = SpinValue(doubled)
            _, report = run_cli(capsys, "feasibility", "--spin-doubled", str(doubled))
            results = report["results"]
            target = conserving_target_doubled(s)
            assert results["conserving_squared_sum"] == str(Fraction(target, 4)), doubled
            classes = squared_magnitude_classes(s)
            assert results["squared_magnitude_classes"] == [
                {"squared_sum": str(Fraction(key, 4)), "count": classes[key]}
                for key in sorted(classes, reverse=True)
            ], doubled
        # at 2s = 40, the largest class table the CLI emits
        assert len(results["squared_magnitude_classes"]) == 727

    def test_large_spin_skips_oracle(self, capsys):
        code, report = run_cli(capsys, "feasibility", "--spin-doubled", "1999")
        assert code == 0
        assert report["results"]["feasible_by_enumeration"] is None
        assert report["results"]["agreement"] is None

    def test_out_of_range(self, capsys):
        assert run_cli(capsys, "feasibility", "--spin-doubled", "0")[0] == 2
        assert run_cli(capsys, "feasibility", "--spin-doubled", "2001")[0] == 2


class TestBoundsCommand:
    def test_example1(self, capsys):
        code, report = run_cli(capsys, "bounds", "--matrix", "example1", "--spin-doubled", "2")
        assert code == 0
        results = report["results"]
        assert results["beta_constrained"] == -2.0
        assert results["beta_unconstrained"] == -3.0
        assert results["beta_quantum"] == pytest.approx(-2.5616, abs=5e-4)
        assert results["violates_constrained"] is True
        assert results["violates_unconstrained"] is False
        assert report["tolerances"] == {
            "witness_check": WITNESS_TOL,
            "eigen_residual": EIG_RESIDUAL_TOL,
            "schmidt_square_sum": SCHMIDT_NORM_TOL,
        }

    def test_example3(self, capsys):
        code, report = run_cli(capsys, "bounds", "--matrix", "example3", "--spin-doubled", "4")
        assert code == 0
        results = report["results"]
        assert results["beta_constrained"] == pytest.approx(-20.0, abs=1e-9)
        assert results["beta_unconstrained"] == pytest.approx(-34.0, abs=1e-9)
        assert results["beta_quantum"] == pytest.approx(-20.1897, abs=5e-4)

    @pytest.mark.parametrize("doubled", [1, 7, 20, 40])
    def test_diagnostics_describe_the_certified_solve(self, capsys, doubled):
        code, report = run_cli(capsys, "bounds", "--matrix", "example3", "--spin-doubled", str(doubled))
        assert code == 0
        results = report["results"]
        assert list(results)[-1] == "diagnostics"
        diagnostics = results["diagnostics"]
        assert list(diagnostics) == [
            "perron_block_sizes", "eigvalsh_calls", "eigen_residual", "svd_gap", "eigen_tolerance"
        ]
        assert diagnostics["perron_block_sizes"] == _symmetry_blocks(doubled).sizes.tolist()
        assert diagnostics["eigvalsh_calls"] in (1, 2)
        s = SpinValue(doubled)
        tol = EIG_RESIDUAL_TOL * float(np.linalg.norm(EXAMPLE3)) * s.value * (s.value + 1.0)
        assert diagnostics["eigen_tolerance"] == pytest.approx(tol, rel=1e-15)
        assert 0.0 <= diagnostics["eigen_residual"] + diagnostics["svd_gap"] <= tol

    def test_zero_matrix_from_file(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("# all zero\n0 0 0\n0 0 0\n0 0 0\n")
        code, report = run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "2")
        assert code == 0
        results = report["results"]
        assert results["beta_constrained"] == 0.0
        assert results["beta_unconstrained"] == 0.0
        assert results["beta_quantum"] == pytest.approx(0.0, abs=1e-12)

    def test_fraction_entries(self, capsys, tmp_path):
        path = tmp_path / "ex3.txt"
        path.write_text("5/2 2 -1\n5/2 -2 -1\n-3/2 0 -3\n")
        code, report = run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "4")
        assert code == 0
        assert report["results"]["beta_constrained"] == pytest.approx(-20.0, abs=1e-9)

    def test_infeasible_spin_reported(self, capsys):
        code, report = run_cli(capsys, "bounds", "--matrix", "identity", "--spin-doubled", "3")
        assert code == 0
        assert report["results"]["constrained_infeasible"] is True
        assert report["results"]["beta_constrained"] is None

    def test_equal_bounds_are_no_violation(self, capsys):
        # for identity beta_q = beta = -s(s+1) exactly, so neither flag may
        # depend on how the last bit of either value rounds
        for doubled in range(1, 41):
            code, report = run_cli(
                capsys, "bounds", "--matrix", "identity", "--spin-doubled", str(doubled)
            )
            assert code == 0
            assert report["results"]["violates_constrained"] in (False, None), doubled
            assert report["results"]["violates_unconstrained"] is False, doubled
        _, report = run_cli(capsys, "bounds", "--matrix", "example1", "--spin-doubled", "2")
        assert report["results"]["violates_constrained"] is True

    def test_violation_flags_do_not_depend_on_the_matrix_scale(self, capsys, tmp_path):
        # the violation window shrinks with the matrix, as the witness check's
        # does: example1 * 2^-40 still violates beta (beta_q -2.33e-12 < beta
        # -1.82e-12), and identity * 2^-40 still ties it
        cases = (("example1", EXAMPLE1, (True, False)), ("identity", np.eye(3), (False, False)))
        for name, matrix, expected in cases:
            for power in (0, -40):
                path = tmp_path / f"{name}{power}.txt"
                path.write_text(" ".join(repr(float(v)) for v in (matrix * 2.0**power).ravel()))
                code, report = run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "2")
                assert code == 0
                results = report["results"]
                flags = (results["violates_constrained"], results["violates_unconstrained"])
                assert flags == expected, (name, power)

    def test_unknown_matrix(self, capsys):
        assert run_cli(capsys, "bounds", "--matrix", "nosuch", "--spin-doubled", "2")[0] == 2

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5\n")
        assert run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "2")[0] == 2

    def test_unparseable_token(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b c d e f g h i\n")
        assert run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "2")[0] == 2

    @pytest.mark.parametrize(
        "command", [("bounds", "--matrix"), ("membership", "--point")], ids=["matrix", "point"]
    )
    def test_overflowing_entry_is_input_error(self, capsys, tmp_path, command):
        subcommand, option = command
        # an entry past the float range, nan entries, and a file that is not UTF-8 text
        nans = (b"nan 0 0\n0 1 0\n0 0 1\n", b"nan 0 0\n0 0 0\n0 0 0\n")
        for content in (b"1e400 0 0\n0 0 0\n0 0 0\n", *nans, b"\xff\xfe\x00bad"):
            path = tmp_path / "big.txt"
            path.write_bytes(content)
            assert run_cli(capsys, subcommand, option, str(path), "--spin-doubled", "2")[0] == 2

    def test_spin_out_of_quantum_range(self, capsys):
        assert run_cli(capsys, "bounds", "--matrix", "identity", "--spin-doubled", "41")[0] == 2

    def test_top_spin(self, capsys):
        code, report = run_cli(capsys, "bounds", "--matrix", "example3", "--spin-doubled", "40")
        assert code == 0
        assert len(report["results"]["optimal_state_schmidt"]) == 41

    def test_scaled_matrices_exit_without_traceback(self, capsys, tmp_path):
        # the witness and eigenpair checks are relative to the problem scale,
        # so matrices of norm ~1e6 answer like unit-scale ones
        s = SpinValue(7)
        for seed in range(20):
            matrix = np.random.default_rng(seed).normal(size=(3, 3)) * 1e6
            path = tmp_path / f"m{seed}.txt"
            np.savetxt(path, matrix)
            code, report = run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "7")
            assert code == 0
            reference = np.linalg.eigvalsh(bell_operator(matrix, s))[0]
            scale = max(1.0, float(np.linalg.norm(matrix)) * s.value * (s.value + 1.0))
            assert abs(report["results"]["beta_quantum"] - reference) <= EIG_RESIDUAL_TOL * scale

    def test_overflowing_scan_exits_4(self, capsys, tmp_path):
        # finite entries whose pair table overflows to inf - inf = nan
        path = tmp_path / "huge.txt"
        path.write_text("1e308 " * 9)
        for doubled in ("2", "3"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way to exit 4
                code = main(["bounds", "--matrix", str(path), "--spin-doubled", doubled])
            assert code == 4, doubled
            assert capsys.readouterr().err == (
                "numerical failure: pair table overflows to non-finite values\n"
            ), doubled

    @pytest.mark.parametrize(
        ("entries", "doubled"),
        [("1e300 0 0 0 1e300 0 0 0 1e300", 40), ("1e200 " * 9, 2), ("5e-324 0 0 0 5e-324 0 0 0 5e-324", 5)],
        ids=["1e300-identity", "all-1e200", "5e-324-identity"],
    )
    def test_extreme_scale_matrices_answer_without_warnings(self, capsys, tmp_path, entries, doubled):
        path = tmp_path / "extreme.txt"
        path.write_text(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--matrix", str(path), "--spin-doubled", str(doubled)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["command"] == "bounds"

    @pytest.mark.parametrize(("doubled", "sizes"), [(39, [210, 210]), (40, [210, 231])], ids=["39", "40"])
    def test_identity_closed_forms_at_the_top_spins(self, capsys, tmp_path, doubled, sizes):
        # beta_q = -s(s+1) for identity, and -s^2 for -identity, a level shared by several
        # blocks; the Perron blocks have T_20 = 210 rows each at 2s = 39, T_20 and T_21 = 231 at 40
        s = doubled / 2
        path = tmp_path / "minus_identity.txt"
        path.write_text("-1 0 0\n0 -1 0\n0 0 -1\n")
        for matrix, exact in (("identity", -s * (s + 1)), (str(path), -s * s)):
            code, report = run_cli(capsys, "bounds", "--matrix", matrix, "--spin-doubled", str(doubled))
            assert code == 0
            results = report["results"]
            assert abs(results["beta_quantum"] - exact) <= 1e-12 * abs(exact), matrix
            assert results["diagnostics"]["perron_block_sizes"] == sizes, matrix

    def test_huge_matrix_answers_with_finite_tolerance(self, capsys, tmp_path):
        # ||C||_F would overflow if its squares were summed directly
        s = SpinValue(7)
        unit = np.random.default_rng(3).normal(size=(3, 3))
        path = tmp_path / "huge.txt"
        np.savetxt(path, unit * 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "7")
            reference = np.linalg.eigvalsh(bell_operator(unit * 1e300, s))[0]
        assert code == 0
        scale = 1e300 * float(np.linalg.norm(unit)) * s.value * (s.value + 1.0)
        assert np.isfinite(EIG_RESIDUAL_TOL * scale)
        assert abs(report["results"]["beta_quantum"] - reference) <= EIG_RESIDUAL_TOL * scale

    def test_overflowing_tolerance_exits_4(self, capsys, tmp_path):
        # the classical scan stays finite, but ||C||_F s(s+1) does not
        path = tmp_path / "huge.txt"
        np.savetxt(path, np.diag([1.7e308] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--matrix", str(path), "--spin-doubled", "1"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: eigenpair tolerance overflows for this matrix and spin\n"
        )


class TestTable1Command:
    def test_targets_pass(self, capsys):
        code, report = run_cli(capsys, "table1", "--max-spin-doubled", "8")
        assert code == 0
        assert report["tolerances"] == {
            "classical_target": TABLE1_CLASSICAL_TOL,
            "quantum_target": TABLE1_QUANTUM_TOL,
        }
        results = report["results"]
        assert results["all_targets_passed"] is True
        rows = {row["spin_doubled"]: row for row in results["rows"]}
        assert len(rows) == 8
        assert rows[3]["beta_constrained"] is None  # infeasible half-integer spin
        assert rows[1]["beta_constrained"] == pytest.approx(rows[1]["beta_unconstrained"])
        for doubled in (2, 4, 6, 8):
            assert all(rows[doubled]["passed"].values())

    def test_out_of_range(self, capsys):
        assert run_cli(capsys, "table1", "--max-spin-doubled", "41")[0] == 2

    def test_top_spin_reaches_minus_s_s_plus_one(self, capsys):
        code, report = run_cli(capsys, "table1", "--max-spin-doubled", "40")
        assert code == 0
        assert report["results"]["all_targets_passed"] is True
        rows = report["results"]["rows"]
        assert [row["spin_doubled"] for row in rows] == list(range(1, 41))
        for row in rows:
            target = row["minus_s_s_plus_1"]
            assert abs(row["rotated_singlet_expectation"] - target) <= 1e-12 * abs(target)

    def test_target_mismatch_exits_3(self, capsys, monkeypatch):
        import spinhv.cli as cli_module

        broken = dict(cli_module.TABLE1_TARGETS)
        broken[2] = (broken[2][0], -5.0)  # wrong classical value
        monkeypatch.setattr(cli_module, "TABLE1_TARGETS", broken)
        code, report = run_cli(capsys, "table1", "--max-spin-doubled", "2")
        assert code == 3
        assert report["results"]["all_targets_passed"] is False
        monkeypatch.undo()
        # the quantum target is the row's own -s(s+1)
        monkeypatch.setattr(cli_module, "expectation", lambda state, C: -5.0)
        code, report = run_cli(capsys, "table1", "--max-spin-doubled", "2")
        assert code == 3
        assert report["results"]["rows"][1]["passed"] == {
            "beta_constrained": True, "beta_unconstrained": True, "quantum": False,
        }

    def test_failed_witness_check_exits_4(self, capsys, monkeypatch):
        # table1 takes its classical bounds through the same checks as bounds
        import spinhv.bounds as bounds_module

        monkeypatch.setattr(bounds_module, "_witness_reproduces", lambda *args: False)
        assert main(["table1", "--max-spin-doubled", "2"]) == 4
        assert "witness does not reproduce" in capsys.readouterr().err


class TestMembershipCommand:
    @pytest.fixture
    def quantum_point_file(self, tmp_path, example1_quantum_point):
        path = tmp_path / "point.txt"
        path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in example1_quantum_point))
        return path

    def test_quantum_point_outside_conserving(self, capsys, quantum_point_file):
        code, report = run_cli(
            capsys, "membership", "--point", str(quantum_point_file),
            "--spin-doubled", "2", "--constrained",
        )
        assert code == 0
        assert report["tolerances"] == {
            "membership": FEAS_TOL,
            "correlator_slack": CORRELATOR_SLACK,
            "weight_floor": WEIGHT_FLOOR,
            "reconstruction": RECONSTRUCTION_TOL,
        }
        results = report["results"]
        assert results["inside"] is False
        assert results["functional_value_at_point"] < results["functional_bound"]

    def test_quantum_point_inside_standard(self, capsys, quantum_point_file):
        code, report = run_cli(
            capsys, "membership", "--point", str(quantum_point_file), "--spin-doubled", "2",
        )
        assert code == 0
        results = report["results"]
        assert results["inside"] is True
        assert results["reconstruction_residual"] <= 1e-7
        total = sum(w["weight"] for w in results["weights"])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_vertex_echoed_back(self, capsys, tmp_path):
        # (1,1,0) (x) (1,1,0) on the conserving polytope, and the all-ones product on the standard one
        path = tmp_path / "vertex.txt"
        cases = (("1 1 0\n1 1 0\n0 0 0\n", ["--constrained"], 72), ("1 1 1\n" * 3, [], 32))
        for text, flags, columns in cases:
            path.write_text(text)
            code, report = run_cli(capsys, "membership", "--point", str(path), "--spin-doubled", "2", *flags)
            assert code == 0
            results = report["results"]
            assert results["inside"] is True and len(results["weights"]) == 1, flags
            assert results["diagnostics"]["lp_columns"] == columns

    def test_infeasible_spin_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0 0 0 0 0 0 0 0\n")
        code, _ = run_cli(
            capsys, "membership", "--point", str(path), "--spin-doubled", "3", "--constrained",
        )
        assert code == 2

    def test_point_beyond_s_squared_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2 0 0 0 0 0 0 0 0\n")
        code = main(["membership", "--point", str(path), "--spin-doubled", "2", "--constrained"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", "error: correlators exceed s^2 = 1.0 for s = 1\n")

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "membership", "--point", "/nonexistent", "--spin-doubled", "2")
        assert code == 2

    def test_origin_reports_lp_effort(self, capsys, tmp_path):
        # the origin is half the first vertex and half the last, its negative, with no
        # LP; Bland's pivots on the same system are pinned in tests/test_simplex.py
        path = tmp_path / "zero.txt"
        path.write_text("0 0 0 0 0 0 0 0 0\n")
        code, report = run_cli(
            capsys, "membership", "--point", str(path), "--spin-doubled", "2", "--constrained"
        )
        assert code == 0
        results = report["results"]
        assert results["inside"] is True
        assert [(w["vertex_index"], w["weight"]) for w in results["weights"]] == [(0, 0.5), (71, 0.5)]
        assert results["weights"][1]["correlators"] == [-x for x in results["weights"][0]["correlators"]]
        assert results["reconstruction_residual"] == 0.0
        assert list(results)[-1] == "diagnostics"
        assert results["diagnostics"] == {"lp_columns": 72, "lp_pivots": 0, "lp_degenerate_pivots": 0}

    def test_outside_verdict_reports_lp_effort(self, capsys, quantum_point_file):
        code, report = run_cli(
            capsys, "membership", "--point", str(quantum_point_file),
            "--spin-doubled", "2", "--constrained",
        )
        assert code == 0
        diagnostics = report["results"]["diagnostics"]
        assert diagnostics["lp_columns"] == 72
        assert diagnostics["lp_pivots"] > 0
        assert 0 <= diagnostics["lp_degenerate_pivots"] <= diagnostics["lp_pivots"]

    @pytest.mark.parametrize(
        ("doubled", "stderr"),
        [
            (20, "simplex iteration limit reached after 20000 pivots (20000 degenerate)"),
            (40, "inside verdict but reconstruction residual 9.188e-03"),
        ],
        ids=["near-origin", "near-origin-40"],
    )
    def test_stall_exits_4_naming_its_effort(self, capsys, monkeypatch, tmp_path, doubled, stderr):
        # a quarter-integer point next to the constrained origin fails (ROADMAP item 2), through
        # main's NumericalFailure clause: at 2s = 20 every pivot is degenerate up to the full
        # iteration limit, and at 2s = 40 phase 1 ends feasible on a drifted tableau
        import spinhv.cli as cli_module

        raised = []
        solve = cli_module.membership

        def record(*args, **kwargs):
            try:
                return solve(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(cli_module, "membership", record)
        path = tmp_path / "p.txt"
        path.write_text("0.25 0 0 0 0 0 0 0 0\n")
        code = main(["membership", "--point", str(path), "--spin-doubled", str(doubled), "--constrained"])
        captured = capsys.readouterr()
        assert code == 4
        assert [type(exc) for exc in raised] == [LpNumericalFailure]
        assert isinstance(raised[0], NumericalFailure)
        assert captured.out == ""
        assert captured.err == f"numerical failure: {stderr}\n"

    @pytest.mark.parametrize(
        ("doubled", "inside", "columns"), [(1, True, 32), (2, False, 72), (4, False, 288)]
    )
    def test_corner_product_inside_only_at_2s_1(self, capsys, tmp_path, doubled, inside, columns):
        # the corner product with all nine entries s^2 is a vertex of the standard polytope;
        # the conserving one holds it only at 2s = 1, where the two coincide
        path = tmp_path / "corner.txt"
        path.write_text(f"{(doubled / 2) ** 2} " * 9)
        argv = ["membership", "--point", str(path), "--spin-doubled", str(doubled), "--constrained"]
        code, report = run_cli(capsys, *argv)
        assert code == 0
        results = report["results"]
        assert (results["inside"], results["diagnostics"]["lp_columns"]) == (inside, columns)

    def test_chsh_point_outside_standard(self, capsys, tmp_path):
        # 1 1 0 / 1 -1 0 / 0 0 0 at 2s = 2 lies below the CHSH bound -2
        path = tmp_path / "chsh.txt"
        path.write_text("1 1 0\n1 -1 0\n0 0 0\n")
        code, report = run_cli(capsys, "membership", "--point", str(path), "--spin-doubled", "2")
        results = report["results"]
        assert code == 0 and not results["inside"]
        assert results["diagnostics"]["lp_columns"] == 32
        assert results["functional_bound"] == -2.0
        assert results["functional_value_at_point"] < results["functional_bound"]

    @pytest.mark.parametrize("constrained", [(), ("--constrained",)], ids=["standard", "conserving"])
    def test_spin_cap(self, capsys, tmp_path, constrained):
        path = tmp_path / "p.txt"
        path.write_text("0 0 0 0 0 0 0 0 0\n")
        code, _ = run_cli(capsys, "membership", "--point", str(path), "--spin-doubled", "41", *constrained)
        assert code == 2


class TestBoundsCertificate:
    """The bounds command takes beta_q and the Schmidt coefficients from D's frame."""

    def test_never_rotates_back(self, capsys, monkeypatch):
        import spinhv.cli as cli_module
        import spinhv.quantum as quantum_module

        s = SpinValue(4)
        value, state = quantum_bound(EXAMPLE3, s)
        schmidt = schmidt_coefficients(state)

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the bounds path")

        for name in ("rotation_unitary", "bell_action", "schmidt_coefficients"):
            monkeypatch.setattr(quantum_module, name, forbidden)
        monkeypatch.setattr(cli_module, "expectation", forbidden)
        code, report = run_cli(capsys, "bounds", "--matrix", "example3", "--spin-doubled", "4")
        assert code == 0
        assert report["results"]["beta_quantum"] == value
        assert np.max(np.abs(np.array(report["results"]["optimal_state_schmidt"]) - schmidt)) <= 1e-12

    @pytest.mark.parametrize("size", [1e-7, 1e-3])
    def test_perturbed_svd_factor_exits_4(self, capsys, monkeypatch, size):
        # a perturbed P leaves sigma, and so D's eigenpair, untouched: only
        # the SVD gap sees it
        svd = np.linalg.svd

        def perturbed(a, *args, **kwargs):
            result = svd(a, *args, **kwargs)
            if np.shape(a) != (3, 3) or not kwargs.get("compute_uv", True):
                return result
            p, sigma, qt = result
            return p + size * np.arange(9.0).reshape(3, 3) / 8.0, sigma, qt

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        assert main(["bounds", "--matrix", "example1", "--spin-doubled", "2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: eigenpair residual ")
        assert "SVD gap" in err

    def test_slightly_perturbed_svd_factor_still_answers(self, capsys, monkeypatch):
        svd = np.linalg.svd
        reference = run_cli(capsys, "bounds", "--matrix", "example1", "--spin-doubled", "2")[1]

        def perturbed(a, *args, **kwargs):
            result = svd(a, *args, **kwargs)
            if np.shape(a) != (3, 3) or not kwargs.get("compute_uv", True):
                return result
            p, sigma, qt = result
            return p + 1e-14, sigma, qt

        monkeypatch.setattr(np.linalg, "svd", perturbed)
        code, report = run_cli(capsys, "bounds", "--matrix", "example1", "--spin-doubled", "2")
        assert code == 0
        assert report["results"]["beta_quantum"] == reference["results"]["beta_quantum"]


ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, SpinHvError)
]
# each family's exit code and stderr prefix
FAMILIES = {InvalidInput: (2, "error: "), NumericalFailure: (4, "numerical failure: ")}


class TestExitCodes:
    """main maps each error to its family's exit code, with no traceback."""

    @pytest.mark.parametrize(
        "cls", [cls for cls in ERROR_CLASSES if cls is not SpinHvError], ids=lambda cls: cls.__name__
    )
    def test_error_exits_with_its_family_code(self, capsys, monkeypatch, cls):
        import spinhv.cli as cli_module

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli_module, "cmd_feasibility", fail)
        code = main(["feasibility", "--spin-doubled", "2"])
        captured = capsys.readouterr()
        (family_code, prefix), = (FAMILIES[family] for family in FAMILIES if issubclass(cls, family))
        assert code == family_code
        assert (captured.out, captured.err) == ("", f"{prefix}boom\n")

    def test_every_error_belongs_to_exactly_one_family(self):
        bases = {SpinHvError, *FAMILIES}
        leaves = [cls for cls in ERROR_CLASSES if cls not in bases]
        assert len(leaves) == 8
        for cls in leaves:
            assert sum(issubclass(cls, family) for family in FAMILIES) == 1, cls.__name__


class TestParseNumbers:
    """Every token but p/q takes float(), an exact zero +0.0: every value is float(Fraction(token)).

    float() decides huge exponents too; Fraction would build 10**exp for them.
    """

    ACCEPTED = [
        "1", "-2.5", "+.5", "5.", "3e2", "1.5E+3", ".5e-3", "0.1", "1e-5", "1e308",
        "1.7976931348623157e308", "4e-320", "-4e-320", "5/2", "-3/4", "1/3", "٣.٥",
        # zeros keep Fraction's sign: "-0" gives 0.0, an underflow of a negative gives -0.0
        "0", "-0", "+0", "0.0", "-0.0", "0/7", "-0/3", "1e-400", "-1e-400",
    ]
    REJECTED = [
        "nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1/0", "0x10", "abc", "1e", "--1",
        "1e999999999", "-1e999999999",
    ]

    @pytest.mark.parametrize("token", ACCEPTED)
    def test_value_and_sign_as_by_fraction(self, token):
        value, = _parse_numbers(f"{token} # one entry", "m.txt")
        assert value.hex() == float(Fraction(token)).hex()

    @pytest.mark.parametrize(
        ("token", "expected"),
        [("1e-999999999", 0.0), ("-1e-999999999", -0.0), ("0e999999999", 0.0), ("-0e999999999", 0.0)],
    )
    def test_huge_exponent_without_fraction(self, token, expected):
        value, = _parse_numbers(token, "m.txt")
        assert value.hex() == expected.hex()

    @pytest.mark.parametrize("token", REJECTED)
    def test_rejected_as_before(self, token):
        with pytest.raises(InvalidInput, match=re.escape(f"m.txt: cannot parse {token!r} as a float")):
            _parse_numbers(f"0 {token}", "m.txt")


# |1/2, 1/2> (x) |1/2, 1/2>, a valid state of side 2
_UP_UP = np.diag([1.0, 0.0])


class TestLibraryInputErrors:
    """The library's own input checks raise InvalidInput members, still ValueErrors."""

    @pytest.mark.parametrize(
        "call, cls",
        [
            (lambda: classical_bound(np.zeros((2, 2)), SpinValue(2), True), DimensionMismatch),
            (lambda: expectation(_UP_UP, np.zeros((2, 3))), DimensionMismatch),
            (lambda: expectation(_UP_UP, np.full((3, 3), math.nan)), NonFiniteMatrix),
            (lambda: schmidt_coefficients(np.diag([math.inf, 0.0])), NonFiniteMatrix),
            (lambda: schmidt_coefficients(np.ones((2, 2))), InvalidInput),
            (lambda: solve_equality_lp(np.eye(2), np.ones(3)), DimensionMismatch),
            (lambda: is_sum_of_three_squares(-1), InvalidInput),
        ],
        ids=[
            "coefficient-shape", "expectation-coefficient-shape", "expectation-coefficient-nan",
            "state-inf", "state-norm", "lp-shapes", "negative-n",
        ],
    )
    def test_raises_invalid_input(self, call, cls):
        with pytest.raises(cls) as raised:
            call()
        assert isinstance(raised.value, InvalidInput) and isinstance(raised.value, ValueError)


class TestReportEncoding:
    @pytest.mark.parametrize(
        "argv",
        [
            ["feasibility", "--spin-doubled", "40"],
            ["bounds", "--matrix", "example3", "--spin-doubled", "4"],
            ["table1", "--max-spin-doubled", "8"],
        ],
        ids=["feasibility", "bounds", "table1"],
    )
    def test_stdout_is_the_json_dump_text(self, capsys, monkeypatch, argv):
        import spinhv.cli as cli_module

        reports = []
        build = cli_module._report

        def keep(*args):
            reports.append(build(*args))
            return reports[-1]

        monkeypatch.setattr(cli_module, "_report", keep)
        assert main(argv) == 0
        out = capsys.readouterr().out
        # a flag, not an assert on the texts: pytest's diff of long texts takes minutes
        identical = out == json.dumps(reports[0]) + "\n"
        assert identical, "stdout differs from the json.dumps text"
        assert out.count("\n") == 1


class TestReportShape:
    def test_deterministic_output(self, capsys):
        code1 = main(["bounds", "--matrix", "example2", "--spin-doubled", "2"])
        out1 = capsys.readouterr().out
        code2 = main(["bounds", "--matrix", "example2", "--spin-doubled", "2"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_field_order(self, capsys):
        _, report = run_cli(capsys, "feasibility", "--spin-doubled", "2")
        assert list(report) == ["command", "version", "timestamp", "inputs", "tolerances", "results"]


class TestReportSchema:
    """The keys of each command's report at version 0.2.0: a change to them bumps the version."""

    def keys(self, capsys, *argv):
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert list(report) == ["command", "version", "timestamp", "inputs", "tolerances", "results"]
        assert report["version"] == "0.2.0"
        return list(report["results"]), list(report["tolerances"])

    def test_feasibility(self, capsys):
        results, tolerances = self.keys(capsys, "feasibility", "--spin-doubled", "2")
        assert results == [
            "spin", "conserving_squared_sum", "feasible_by_formula", "feasible_by_enumeration",
            "agreement", "constrained_assignments", "squared_magnitude_classes",
        ]
        assert tolerances == []

    def test_bounds(self, capsys):
        results, tolerances = self.keys(capsys, "bounds", "--matrix", "example1", "--spin-doubled", "2")
        assert results == [
            "beta_constrained", "beta_unconstrained", "beta_quantum", "constrained_infeasible",
            "witness_constrained", "witness_unconstrained", "optimal_state_schmidt",
            "violates_constrained", "violates_unconstrained", "diagnostics",
        ]
        assert tolerances == ["witness_check", "eigen_residual", "schmidt_square_sum"]

    def test_table1(self, capsys):
        results, tolerances = self.keys(capsys, "table1", "--max-spin-doubled", "2")
        assert results == ["rows", "all_targets_passed"]
        assert tolerances == ["classical_target", "quantum_target"]

    def test_membership(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("0 0 0\n0 0 0\n0 0 0\n")
        inside, tolerances = self.keys(capsys, "membership", "--point", str(path), "--spin-doubled", "2")
        assert inside == ["inside", "weights", "reconstruction_residual", "diagnostics"]
        assert tolerances == ["membership", "correlator_slack", "weight_floor", "reconstruction"]
        path.write_text("1 1 1\n1 1 1\n1 1 1\n")
        outside, _ = self.keys(capsys, "membership", "--point", str(path), "--spin-doubled", "2", "--constrained")
        assert outside == [
            "inside", "separating_functional", "functional_bound", "functional_value_at_point", "diagnostics",
        ]
