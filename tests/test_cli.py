import io
import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinhv import (
    HermitianOperator,
    SpinValue,
    bell_operator,
    enumerate_constrained,
    expectation,
    quantum_bound,
    schmidt_coefficients,
    spin_operators,
    squared_magnitude_classes,
)
from spinhv.assignments import conserving_target_doubled
from spinhv.bounds import WITNESS_TOL
from spinhv.cli import TABLE1_CLASSICAL_TOL, TABLE1_QUANTUM_TOL, main
from spinhv.matrices import EXAMPLE1, EXAMPLE3
from spinhv.polytope import MEMBERSHIP_TOL
from spinhv.quantum import EIG_RESIDUAL_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


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
        assert report["tolerances"] == {"witness_check": WITNESS_TOL}

    def test_example3(self, capsys):
        code, report = run_cli(capsys, "bounds", "--matrix", "example3", "--spin-doubled", "4")
        assert code == 0
        results = report["results"]
        assert results["beta_constrained"] == pytest.approx(-20.0, abs=1e-9)
        assert results["beta_unconstrained"] == pytest.approx(-34.0, abs=1e-9)
        assert results["beta_quantum"] == pytest.approx(-20.1897, abs=5e-4)

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
        path = tmp_path / "big.txt"
        path.write_text("1e400 0 0\n0 0 0\n0 0 0\n")
        subcommand, option = command
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
            reference = np.linalg.eigvalsh(bell_operator(matrix, s).entries)[0]
            scale = max(1.0, float(np.linalg.norm(matrix)) * s.value * (s.value + 1.0))
            assert abs(report["results"]["beta_quantum"] - reference) <= EIG_RESIDUAL_TOL * scale

    def test_overflowing_scan_exits_4(self, capsys, tmp_path):
        # finite entries whose pair table overflows to inf - inf = nan
        path = tmp_path / "huge.txt"
        path.write_text("1e308 " * 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to exit 4
            code = main(["bounds", "--matrix", str(path), "--spin-doubled", "2"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: pair table overflows to non-finite values\n"
        )

    def test_huge_matrix_answers_with_finite_tolerance(self, capsys, tmp_path):
        # ||C||_F would overflow if its squares were summed directly
        s = SpinValue(7)
        unit = np.random.default_rng(3).normal(size=(3, 3))
        path = tmp_path / "huge.txt"
        np.savetxt(path, unit * 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_cli(capsys, "bounds", "--matrix", str(path), "--spin-doubled", "7")
            reference = np.linalg.eigvalsh(bell_operator(unit * 1e300, s).entries)[0]
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
        rows = report["results"]["rows"]
        assert [row["spin_doubled"] for row in rows] == list(range(1, 41))
        for row in rows:
            target = row["minus_s_s_plus_1"]
            assert abs(row["rotated_singlet_expectation"] - target) <= 1e-12 * abs(target)

    def test_target_mismatch_exits_3(self, capsys, monkeypatch):
        import spinhv.cli as cli_module

        broken = dict(cli_module.TABLE1_TARGETS)
        broken[2] = (broken[2][0], broken[2][1], -5.0)  # wrong quantum value
        monkeypatch.setattr(cli_module, "TABLE1_TARGETS", broken)
        code, report = run_cli(capsys, "table1", "--max-spin-doubled", "2")
        assert code == 3
        assert report["results"]["all_targets_passed"] is False


class TestMembershipCommand:
    @pytest.fixture
    def quantum_point_file(self, tmp_path):
        s = SpinValue(2)
        _, state = quantum_bound(EXAMPLE1, s)
        ops = [op.entries for op in spin_operators(s)]
        entries = np.zeros((3, 3))
        for k, l in itertools.product(range(3), repeat=2):
            entries[k, l] = expectation(state, HermitianOperator(np.kron(ops[k], ops[l])))
        path = tmp_path / "point.txt"
        path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in entries))
        return path

    def test_quantum_point_outside_conserving(self, capsys, quantum_point_file):
        code, report = run_cli(
            capsys, "membership", "--point", str(quantum_point_file),
            "--spin-doubled", "2", "--constrained",
        )
        assert code == 0
        assert report["tolerances"] == {"membership": MEMBERSHIP_TOL}
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
        path = tmp_path / "vertex.txt"
        path.write_text("1 1 0\n1 1 0\n0 0 0\n")  # (1,1,0) (x) (1,1,0)
        code, report = run_cli(
            capsys, "membership", "--point", str(path), "--spin-doubled", "2", "--constrained",
        )
        assert code == 0
        assert report["results"]["inside"] is True

    def test_infeasible_spin_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0 0 0 0 0 0 0 0\n")
        code, _ = run_cli(
            capsys, "membership", "--point", str(path), "--spin-doubled", "3", "--constrained",
        )
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "membership", "--point", "/nonexistent", "--spin-doubled", "2")
        assert code == 2

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
        schmidt = schmidt_coefficients(state, s)

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the bounds path")

        for name in ("euler_from_rotation", "rotation_unitary", "bell_action", "schmidt_coefficients"):
            monkeypatch.setattr(quantum_module, name, forbidden)
        monkeypatch.setattr(cli_module, "bell_action", forbidden)
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
        expected = io.StringIO()
        json.dump(reports[0], expected, indent=2)
        print(file=expected)
        # a flag, not an assert on the texts: pytest's diff of long texts takes minutes
        identical = capsys.readouterr().out == expected.getvalue()
        assert identical, "stdout differs from the json.dump text"


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
