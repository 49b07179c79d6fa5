import itertools

import numpy as np
import pytest

from spinhv import (
    DimensionMismatch,
    InfeasibleSpin,
    NonFiniteMatrix,
    SpinValue,
    classical_bound,
    enumerate_unconstrained,
    magnitude_feasible,
    membership,
)
from spinhv.assignments import extreme_assignments
from spinhv.matrices import EXAMPLE1
from spinhv.polytope import vertex_array_quadrupled
from spinhv.simplex import solve_equality_lp


def full_grid_products(doubled: int) -> np.ndarray:
    """Quadrupled products of every pair of spectrum-grid assignments, deduplicated.

    The standard polytope's generators before the corner reduction; an
    oracle only, (2s+1)^6 pairs.
    """
    D = enumerate_unconstrained(SpinValue(doubled))
    return np.unique(np.einsum("ik,jl->ijkl", D, D).reshape(-1, 9), axis=0)


def vertex_rows(s: SpinValue, constrained: bool) -> np.ndarray:
    """The polytope's (n, 9) correlator rows in canonical order."""
    return vertex_array_quadrupled(s, constrained) / 4.0


def certificate_is_sound(result, vertices: np.ndarray, point: np.ndarray) -> bool:
    values = vertices @ result.functional
    return bool(
        np.all(values >= result.functional_bound - 1e-8)
        and result.functional_value < result.functional_bound
        and abs(result.functional @ point - result.functional_value) <= 1e-12
    )


class TestVertexCorrelations:
    def test_spin_one_constrained_counts(self):
        from spinhv import enumerate_constrained

        assignments = enumerate_constrained(SpinValue(2))
        assert len(assignments) ** 2 == 144  # pairs before dedup
        assert len(vertex_rows(SpinValue(2), constrained=True)) == 72  # a(x)b = (-a)(x)(-b) halves the count

    def test_half_spin_counts_and_entries(self):
        rows = vertex_rows(SpinValue(1), constrained=False)
        assert len(rows) == 32  # 64 pairs, paired off by global sign
        for row in rows:
            assert set(np.abs(row)) == {0.25}

    def test_infeasible_spin(self):
        with pytest.raises(InfeasibleSpin):
            vertex_array_quadrupled(SpinValue(3), constrained=True)

    def test_deterministic_order(self):
        a = vertex_array_quadrupled(SpinValue(2), True)
        b = vertex_array_quadrupled(SpinValue(2), True)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.unique(a, axis=0))

    def test_exact_quarter_integers(self):
        quad = vertex_array_quadrupled(SpinValue(2), True)
        assert quad.dtype.kind == "i"
        # the correlators are quarter-integers, so dividing by 4 is exact
        assert np.array_equal(vertex_rows(SpinValue(2), True) * 4.0, quad)


def feasible_polytopes():
    """Every (s, constrained) with a polytope at 2s <= 40: 67 of them."""
    cases = [
        (SpinValue(doubled), constrained)
        for doubled in range(1, 41)
        for constrained in (False, True)
        if not constrained or magnitude_feasible(SpinValue(doubled))
    ]
    assert len(cases) == 67
    return cases


class TestSignPairing:
    """a (x) b = (-a) (x) (-b) is the only coincidence: n assignments give n^2 / 2 vertices,
    a set closed under negation, so every vertex v has its partner -v."""

    def test_half_the_pairs_and_closed_under_negation(self):
        for s, constrained in feasible_polytopes():
            n = len(extreme_assignments(s, constrained))
            vertices = vertex_array_quadrupled(s, constrained)
            where = f"2s = {s.doubled}, constrained = {constrained}"
            assert n % 2 == 0 and len(vertices) == n * n // 2, where
            assert np.array_equal(np.unique(-vertices, axis=0), vertices), where

    def test_first_half_times_all_is_the_full_dedup(self):
        # the sorted rows reversed are the rows negated, so the first half holds one of
        # each +- pair, and its products with all rows are every vertex once
        for s, constrained in feasible_polytopes():
            D = extreme_assignments(s, constrained)
            where = f"2s = {s.doubled}, constrained = {constrained}"
            assert np.array_equal(D[::-1], -D), where
            all_products = np.einsum("ik,jl->ijkl", D, D).reshape(-1, 9)
            assert np.array_equal(vertex_array_quadrupled(s, constrained), np.unique(all_products, axis=0)), where


class TestMembership:
    def test_vertices_are_inside(self):
        s = SpinValue(2)
        vertices = vertex_rows(s, constrained=True)
        for row in vertices[::7]:
            result = membership(row, s, constrained=True)
            assert result.inside
            assert np.max(np.abs(vertices.T @ result.weights - row)) <= 1e-7

    def test_extreme_vertex_gets_unit_weight(self):
        s = SpinValue(1)
        all_plus = [row for row in vertex_rows(s, constrained=False) if np.all(row == 0.25)]
        assert len(all_plus) == 1
        result = membership(all_plus[0], s, constrained=False)
        assert result.inside
        assert result.weights.max() == pytest.approx(1.0, abs=1e-9)

    def test_quantum_point_outside_conserving_polytope(self, example1_quantum_point):
        s = SpinValue(2)
        point = example1_quantum_point
        result = membership(point, s, constrained=True)
        assert not result.inside
        assert certificate_is_sound(result, vertex_rows(s, True), point.ravel())

    def test_quantum_point_inside_standard_polytope(self, example1_quantum_point):
        s = SpinValue(2)
        point = example1_quantum_point
        result = membership(point, s, constrained=False)
        assert result.inside
        vertices = vertex_rows(s, False)
        recon = vertices.T @ result.weights
        assert np.max(np.abs(recon - point.ravel())) <= 1e-7
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-8)
        # the result carries the rows its weights index and their residual
        assert np.array_equal(result.vertices, vertices)
        assert result.reconstruction_residual == float(np.max(np.abs(recon - point.ravel())))

    def test_example1_inequality_value_below_conserving_bound(self, example1_quantum_point):
        # the quantum point violates the inequality the matrix defines
        s = SpinValue(2)
        point = example1_quantum_point
        beta = classical_bound(EXAMPLE1, s, constrained=True)[0]
        assert float((EXAMPLE1 * point).sum()) < beta

    def test_random_mixtures_inside(self):
        rng = np.random.default_rng(61)
        for doubled in (1, 2, 4):
            s = SpinValue(doubled)
            vertices = vertex_rows(s, constrained=True)
            for _ in range(100):
                weights = rng.dirichlet(np.ones(len(vertices)))
                mix = (weights @ vertices).reshape(3, 3)
                assert membership(mix, s, constrained=True).inside

    def test_far_corner_outside(self):
        s = SpinValue(4)
        corner = np.full((3, 3), -4.0)  # all correlators at -s^2
        result = membership(corner, s, constrained=True)
        assert not result.inside
        assert certificate_is_sound(result, vertex_rows(s, True), corner.ravel())

    def test_entry_bound_validated(self):
        too_big = np.full((3, 3), 4.0)
        with pytest.raises(ValueError):
            membership(too_big, SpinValue(2), constrained=False)

    @pytest.mark.parametrize("shape", [(8,), (10,), (2, 2), (3, 4)])
    def test_point_without_nine_entries_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="expected nine correlators"):
            membership(np.zeros(shape), SpinValue(2), constrained=False)

    def test_non_finite_point_rejected(self):
        for value in (np.nan, np.inf):
            point = np.zeros(9)
            point[4] = value
            with pytest.raises(NonFiniteMatrix, match="correlation point has non-finite entries"):
                membership(point, SpinValue(2), constrained=False)

    def test_point_near_a_vertex_inside(self):
        s = SpinValue(5)
        vertices = vertex_rows(s, constrained=True)
        point = (1 - 1e-9) * vertices[588] + 1e-9 * vertices[867]
        result = membership(point, s, constrained=True)
        assert result.inside
        assert np.max(np.abs(vertices.T @ result.weights - point)) <= 1e-7

    def test_constrained_origin_inside_at_2s_18(self):
        # the closed form answers it; Bland's pivots on the same system (4490, 2969
        # degenerate) are pinned by tests/test_simplex.py::TestReferenceKernel::test_origin
        result = membership(np.zeros(9), SpinValue(18), constrained=True)
        assert result.inside
        assert result.reconstruction_residual <= 1e-7

    def test_origin_is_the_midpoint_of_the_first_and_last_rows(self):
        # at every feasible spin, including the origins whose LP stalls (2s = 20, 25,
        # 26, 29, 33-37) or drifts (2s = 40): row n-1 is -(row 0), and no LP runs
        for s, constrained in feasible_polytopes():
            result = membership(np.zeros((3, 3)), s, constrained)
            n = len(result.vertices)
            where = f"2s = {s.doubled}, constrained = {constrained}"
            assert result.inside, where
            assert result.reconstruction_residual == 0.0, where
            assert np.flatnonzero(result.weights).tolist() == [0, n - 1], where
            assert result.weights[[0, n - 1]].tolist() == [0.5, 0.5], where
            assert (result.lp.pivots, result.lp.degenerate_pivots) == (0, 0), where

    def test_exact_vertex_inside(self):
        # row 1313 at 2s = 13 ended on a drifted tableau in the LP, and row 4604 at
        # 2s = 40 took 16 213 pivots; an exact vertex is its own only decomposition
        point = np.array([-35, 77, -49, -55, 121, -77, 25, -55, 35]) / 4.0
        assert np.array_equal(vertex_rows(SpinValue(13), constrained=True)[1313], point)
        for doubled, row in ((13, 1313), (40, 4604)):
            s = SpinValue(doubled)
            result = membership(vertex_rows(s, constrained=True)[row], s, constrained=True)
            assert result.inside
            assert np.flatnonzero(result.weights).tolist() == [row]
            assert result.weights[row] == 1.0
            assert result.reconstruction_residual == 0.0
            assert result.lp.pivots == 0

    @staticmethod
    def assert_lp_path(point, s: SpinValue, constrained: bool):
        """membership's outcome is the simplex run's on the same system, bit for bit."""
        result = membership(point, s, constrained)
        A = np.vstack([result.vertices.T, np.ones((1, len(result.vertices)))])
        outcome = solve_equality_lp(A, np.append(point, 1.0))
        assert result.lp.pivots > 0
        assert (result.lp.pivots, result.lp.degenerate_pivots) == (outcome.pivots, outcome.degenerate_pivots)
        assert result.inside == outcome.feasible
        if result.inside:
            assert np.array_equal(result.weights, outcome.x)
        else:
            y = outcome.farkas[:9]
            assert np.array_equal(result.functional, -y / np.max(np.abs(y)))
        return result

    def test_vertex_nudged_by_1e_15_takes_the_lp(self):
        s = SpinValue(4)
        vertices = vertex_rows(s, constrained=True)
        for row in (0, 5, 96):
            for entry in (0, 4, 8):
                point = vertices[row].copy()
                point[entry] += 1e-15
                assert self.assert_lp_path(point, s, constrained=True).inside

    def test_quarter_integer_non_vertex_takes_the_lp(self):
        point = np.zeros(9)
        point[0] = 0.25
        for doubled in (2, 4):
            s = SpinValue(doubled)
            assert not np.any(np.all(vertex_rows(s, True) == point, axis=1))
            assert self.assert_lp_path(point, s, constrained=True).inside

    def test_mixtures_and_outside_points_take_the_lp(self):
        rng = np.random.default_rng(83)
        for doubled in (1, 2, 4, 6, 8):
            for constrained in (True, False):
                s = SpinValue(doubled)
                vertices = vertex_rows(s, constrained)
                box = s.value**2
                for _ in range(4):
                    chosen = vertices[rng.choice(len(vertices), size=3, replace=False)]
                    self.assert_lp_path(rng.dirichlet(np.ones(3)) @ chosen, s, constrained)
                    self.assert_lp_path(rng.uniform(-box, box, size=9), s, constrained)


def corner_facets() -> np.ndarray:
    """The 90 facets F of the standard polytope, F . T <= s^2 over 3x3 arrays.

    18 trivial ones, +-e_kl, and 72 of CHSH type: 1/2 of a signed sum over a
    2x2 submatrix, with an odd number of minus signs.
    """
    facets = []
    for (k, l), sign in itertools.product(itertools.product(range(3), repeat=2), (1.0, -1.0)):
        facet = np.zeros((3, 3))
        facet[k, l] = sign
        facets.append(facet)
    pairs = list(itertools.combinations(range(3), 2))
    for rows, cols in itertools.product(pairs, repeat=2):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            if signs.count(-1.0) % 2 == 1:
                facet = np.zeros((3, 3))
                facet[np.ix_(rows, cols)] = np.reshape(signs, (2, 2)) / 2.0
                facets.append(facet)
    return np.array(facets)


class TestCornerPolytope:
    def test_ninety_facets(self):
        # each facet is valid on the 32 corner products, tight on 9 affinely
        # independent ones, and its classical maximum is s^2
        facets = corner_facets()
        assert len(facets) == 90
        assert len({facet.tobytes() for facet in facets}) == 90
        for doubled in range(1, 9):
            s = SpinValue(doubled)
            corners = vertex_array_quadrupled(s, False) / 4.0
            for facet in facets:
                values = corners @ facet.ravel()
                assert np.all(values <= s.value**2)
                tight = corners[values == s.value**2]
                assert np.linalg.matrix_rank(np.hstack([tight, np.ones((len(tight), 1))])) == 9
                assert classical_bound(-facet, s, constrained=False)[0] == -s.value**2

    def test_corner_products_are_32_grid_products(self):
        for doubled in (1, 2, 3, 4, 7, 40):
            corners = vertex_array_quadrupled(SpinValue(doubled), False)
            assert len(corners) == 32
            assert np.all(np.abs(corners) == doubled * doubled)
        for doubled in (1, 2, 3):
            grid = set(map(tuple, full_grid_products(doubled).tolist()))
            assert set(map(tuple, vertex_array_quadrupled(SpinValue(doubled), False).tolist())) <= grid

    @pytest.mark.parametrize("doubled", [1, 2, 3, 4])
    def test_full_grid_products_inside(self, doubled):
        s = SpinValue(doubled)
        grid = full_grid_products(doubled)
        if doubled == 4:  # all 7351 take seconds; a seeded sample
            grid = grid[np.random.default_rng(71).choice(len(grid), size=200, replace=False)]
        for row in grid:
            result = membership(row / 4.0, s, constrained=False)
            assert result.inside
            assert result.reconstruction_residual <= 1e-7

    def test_outside_functionals_hold_on_full_grid(self):
        rng = np.random.default_rng(73)
        outside = 0
        for doubled in (1, 2, 3, 4):
            s = SpinValue(doubled)
            box = doubled * doubled / 4.0
            grid = full_grid_products(doubled) / 4.0
            for _ in range(20):
                point = rng.uniform(-box, box, size=(3, 3))
                result = membership(point, s, constrained=False)
                if not result.inside:
                    outside += 1
                    assert certificate_is_sound(result, grid, point.ravel())
        assert outside >= 40

    @pytest.mark.parametrize("doubled", [2, 4])
    def test_constrained_vertices_inside_standard(self, doubled):
        s = SpinValue(doubled)
        for row in vertex_rows(s, constrained=True):
            assert membership(row, s, constrained=False).inside

    def test_origin_inside_at_every_cli_spin(self):
        origin = np.zeros((3, 3))
        for doubled in range(1, 41):
            result = membership(origin, SpinValue(doubled), constrained=False)
            assert result.inside, doubled
            assert result.reconstruction_residual <= 1e-7
            assert result.weights.sum() == pytest.approx(1.0, abs=1e-8)


class TestClassicalBoundConsistency:
    def test_vertex_minimum_matches_classical_bound(self):
        rng = np.random.default_rng(67)
        for doubled in (1, 2, 4):
            s = SpinValue(doubled)
            for constrained in (True, False):
                vertices = vertex_rows(s, constrained)
                for _ in range(5):
                    C = rng.normal(size=(3, 3))
                    via_vertices = float((vertices @ C.reshape(9)).min())
                    via_bound = classical_bound(C, s, constrained)[0]
                    assert via_vertices == pytest.approx(via_bound, abs=1e-9)


class TestInclusion:
    """The conserving polytope equals the standard one at 2s = 1 and lies strictly inside it
    at every other feasible spin (the argument is in spinhv.polytope's docstring)."""

    @staticmethod
    def first_corner(s: SpinValue) -> np.ndarray:
        return vertex_rows(s, False)[0]

    def test_half_spin_polytopes_coincide(self):
        s = SpinValue(1)
        corners = vertex_rows(s, False)
        assert len(corners) == 32
        assert all(membership(row, s, constrained=True).inside for row in corners)

    def test_spin_one_strict(self):
        s = SpinValue(2)
        assert not membership(self.first_corner(s), s, constrained=True).inside

    def test_spin_one_all_ones_vertex_outside(self):
        # the product of two (1,1,1) assignments escapes the conserving hull
        point = np.ones((3, 3))
        result = membership(point, SpinValue(2), constrained=True)
        assert not result.inside

    def test_spin_two_strict(self):
        s = SpinValue(4)
        assert not membership(self.first_corner(s), s, constrained=True).inside

    def test_infeasible_spin(self):
        with pytest.raises(InfeasibleSpin):
            membership(self.first_corner(SpinValue(3)), SpinValue(3), constrained=True)

    def test_matches_the_corner_loop(self):
        # the first corner product is outside at every feasible 2s <= 16 but 1, with a
        # functional at or above its bound on every conserving vertex and below it there
        for doubled in range(2, 17):
            s = SpinValue(doubled)
            if not magnitude_feasible(s):
                continue
            point = self.first_corner(s)
            result = membership(point, s, constrained=True)
            assert not result.inside
            assert np.all(vertex_rows(s, True) @ result.functional >= result.functional_bound)
            assert float(result.functional @ point.ravel()) == result.functional_value
            assert result.functional_value < result.functional_bound
