import numpy as np
import pytest

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
