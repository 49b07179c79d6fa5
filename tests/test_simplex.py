import numpy as np
import pytest

from spinhv import simplex
from spinhv.errors import LpNumericalFailure
from spinhv.number_theory import SpinValue
from spinhv.polytope import vertex_array_quadrupled
from spinhv.simplex import solve_equality_lp


def convex_hull_system(vertices: np.ndarray, point: np.ndarray):
    """Equality system asking for convex weights reproducing the point."""
    A = np.vstack([vertices.T, np.ones((1, len(vertices)))])
    b = np.append(point, 1.0)
    return A, b


class TestFeasibility:
    TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_point_inside(self):
        A, b = convex_hull_system(self.TRIANGLE, np.array([0.2, 0.3]))
        out = solve_equality_lp(A, b)
        assert out.feasible
        assert np.allclose(A @ out.x, b, atol=1e-9)
        assert np.all(out.x >= 0)

    def test_vertex_itself(self):
        A, b = convex_hull_system(self.TRIANGLE, np.array([1.0, 0.0]))
        out = solve_equality_lp(A, b)
        assert out.feasible
        assert out.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_point_outside_with_farkas(self):
        point = np.array([0.8, 0.8])
        A, b = convex_hull_system(self.TRIANGLE, point)
        out = solve_equality_lp(A, b)
        assert not out.feasible
        y = out.farkas
        assert np.all(y @ A <= 1e-9)
        assert y @ b > 1e-9

    def test_negative_rhs_rows(self):
        shifted = self.TRIANGLE - 2.0
        A, b = convex_hull_system(shifted, np.array([-1.8, -1.7]))
        out = solve_equality_lp(A, b)
        assert out.feasible
        assert np.allclose(A @ out.x, b, atol=1e-9)

    def test_redundant_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        out = solve_equality_lp(A, b)
        assert out.feasible
        assert np.allclose(A @ out.x, b, atol=1e-9)

    def test_infeasible_redundant_rows(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        out = solve_equality_lp(A, b)
        assert not out.feasible
        assert out.farkas @ b > 1e-9


class TestRandomized:
    def test_random_mixtures_are_feasible(self):
        rng = np.random.default_rng(51)
        vertices = rng.normal(size=(40, 6))
        for _ in range(20):
            weights = rng.dirichlet(np.ones(40))
            point = weights @ vertices
            A, b = convex_hull_system(vertices, point)
            out = solve_equality_lp(A, b)
            assert out.feasible
            assert np.allclose(A @ out.x, b, atol=1e-8)

    def test_far_points_get_certificates(self):
        rng = np.random.default_rng(53)
        vertices = rng.normal(size=(40, 6))
        for _ in range(20):
            point = vertices.max(axis=0) + rng.uniform(1.0, 3.0, size=6)
            A, b = convex_hull_system(vertices, point)
            out = solve_equality_lp(A, b)
            assert not out.feasible
            assert np.all(out.farkas @ A <= 1e-8)
            assert out.farkas @ b > 1e-8


def _row_loop_pivot(tableau, basis, row, col):
    """Reference pivot: the row-by-row elimination the rank-1 update replaced."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _list_iterate(tableau, basis, trail):
    """Reference loop: Bland's rule over index lists, the basis after each pivot in trail."""
    m = tableau.shape[0] - 1
    for _ in range(simplex.MAX_ITER):
        obj = tableau[m, :-1]
        entering = np.flatnonzero(obj < -simplex.PIVOT_TOL)
        if entering.size == 0:
            return
        col = int(entering[0])
        column = tableau[:m, col]
        rows = np.flatnonzero(column > simplex.PIVOT_TOL)
        if rows.size == 0:
            raise LpNumericalFailure("simplex pivot column is unbounded")
        ratios = np.maximum(tableau[rows, -1], 0.0) / column[rows]
        tied = rows[ratios <= ratios.min() + simplex.RATIO_TIE_TOL]
        row = int(tied[np.argmin([basis[i] for i in tied])])
        _row_loop_pivot(tableau, basis, row, col)
        trail.append(list(basis))
    raise LpNumericalFailure("simplex iteration limit reached")


def solve_against_reference(monkeypatch, A, b):
    """solve_equality_lp, with the reference run on a copy of its tableau.

    Both kernels must leave the same basis after every pivot and equal
    final tableaux, and stall together.  Returns the outcome.
    """
    pivot, iterate = simplex._pivot, simplex._iterate
    trail, reference_trail = [], []

    def recording_pivot(tableau, basis, row, col):
        pivot(tableau, basis, row, col)
        trail.append(basis.tolist())

    def checked_iterate(tableau, basis):
        reference, reference_basis = tableau.copy(), basis.tolist()
        stalls = []
        try:
            _list_iterate(reference, reference_basis, reference_trail)
        except LpNumericalFailure as exc:
            stalls.append(exc)
        try:
            counts = iterate(tableau, basis)
        except LpNumericalFailure as exc:
            stalls.append(exc)
        assert trail == reference_trail
        assert np.array_equal(tableau, reference)
        assert len(stalls) in (0, 2), stalls
        if stalls:
            raise stalls[-1]
        return counts

    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    monkeypatch.setattr(simplex, "_iterate", checked_iterate)
    outcome = solve_equality_lp(A, b)
    assert outcome.pivots == len(trail)
    return outcome


def polytope_system(doubled: int, constrained: bool, point: np.ndarray):
    vertices = vertex_array_quadrupled(SpinValue(doubled), constrained) / 4.0
    return convex_hull_system(vertices, point)


class TestReferenceKernel:
    """The array kernel takes the row loop's pivots and reaches its tableaux."""

    @pytest.mark.parametrize(
        "point", [[0.2, 0.3], [1.0, 0.0], [0.8, 0.8], [-0.1, 0.5]], ids=["inside", "vertex", "outside", "left"]
    )
    def test_triangle(self, monkeypatch, point):
        A, b = convex_hull_system(TestFeasibility.TRIANGLE, np.array(point))
        solve_against_reference(monkeypatch, A, b)

    def test_randomized(self, monkeypatch):
        rng = np.random.default_rng(51)
        vertices = rng.normal(size=(40, 6))
        for _ in range(10):
            mixture = rng.dirichlet(np.ones(40)) @ vertices
            far = vertices.max(axis=0) + rng.uniform(1.0, 3.0, size=6)
            for point in (mixture, far):
                solve_against_reference(monkeypatch, *convex_hull_system(vertices, point))

    # the vertex count of each origin system below
    ORIGIN_COLUMNS = {
        (2, True): 72, (4, True): 288, (4, False): 32, (5, True): 1152, (13, True): 4608, (18, True): 7200,
    }

    @pytest.mark.parametrize(
        ("doubled", "constrained", "pivots", "degenerate"),
        [
            (2, True, 43, 21),
            (4, True, 304, 222),
            (4, False, 20, 19),
            (5, True, 2183, 1166),
            (13, True, 4953, 3779),
            (18, True, 4490, 2969),
        ],
    )
    def test_origin(self, monkeypatch, doubled, constrained, pivots, degenerate):
        # Bland's pivots on the origin system, which membership answers without the LP:
        # they pin the kernel's pivot sequence, and at 2s = 13 and 18 the vertex order too
        A, b = polytope_system(doubled, constrained, np.zeros(9))
        outcome = solve_against_reference(monkeypatch, A, b)
        assert outcome.feasible
        columns = self.ORIGIN_COLUMNS[doubled, constrained]
        assert (A.shape[1], outcome.pivots, outcome.degenerate_pivots) == (columns, pivots, degenerate)

    @staticmethod
    def hand_tableau(column, rhs):
        """Three rows with basis columns 5, 3 and 4, column 0 the only improving one."""
        tableau = np.zeros((4, 7))
        tableau[:3, 0] = column
        tableau[[0, 1, 2], [5, 3, 4]] = 1.0
        tableau[:3, -1] = rhs
        tableau[3, 0] = -1.0
        return tableau, np.array([5, 3, 4])

    def test_ratio_tie_goes_to_smallest_basis_index(self):
        # ratios 1, 1 + 5e-13 and 1 tie within RATIO_TIE_TOL; row 1 holds basis index 3,
        # the smallest, though its ratio is not the least
        tableau, basis = self.hand_tableau([1.0, 1.0, 2.0], [1.0, 1.0 + 5e-13, 2.0])
        reference, reference_basis = tableau.copy(), basis.tolist()
        assert simplex._iterate(tableau, basis) == (1, 0)
        assert basis.tolist() == [5, 0, 4]
        _list_iterate(reference, reference_basis, [])
        assert reference_basis == [5, 0, 4]
        assert np.array_equal(tableau, reference)

    def test_drifted_negative_basic_value_reads_as_zero(self):
        # row 0's basic value has drifted to -1e-9; read as 0, it ties row 1 at ratio 0,
        # row 1 holds the smaller basis index 3, and the step is degenerate, not negative
        tableau, basis = self.hand_tableau([1.0, 1.0, 2.0], [-1e-9, 0.0, 2.0])
        reference, reference_basis = tableau.copy(), basis.tolist()
        assert simplex._iterate(tableau, basis) == (1, 1)
        assert basis.tolist() == [5, 0, 4]
        _list_iterate(reference, reference_basis, [])
        assert reference_basis == [5, 0, 4]
        assert np.array_equal(tableau, reference)

    def test_no_entry_above_pivot_tol_is_unbounded(self):
        tableau, basis = self.hand_tableau([0.0, -1.0, simplex.PIVOT_TOL], [1.0, 1.0, 1.0])
        with pytest.raises(LpNumericalFailure, match="simplex pivot column is unbounded"):
            simplex._iterate(tableau, basis)

    def test_outside_point(self, monkeypatch):
        A, b = polytope_system(2, True, np.ones(9))
        outcome = solve_against_reference(monkeypatch, A, b)
        assert not outcome.feasible
        assert (outcome.pivots, outcome.degenerate_pivots) == (4, 2)

    def test_iteration_limit(self, monkeypatch):
        # the constrained origin at 2s = 20 stalls; 300 pivots show both kernels stall alike
        monkeypatch.setattr(simplex, "MAX_ITER", 300)
        A, b = polytope_system(20, True, np.zeros(9))
        with pytest.raises(LpNumericalFailure, match=r"after 300 pivots \(300 degenerate\)"):
            solve_against_reference(monkeypatch, A, b)
