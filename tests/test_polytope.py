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
from spinhv import polytope
from spinhv.assignments import extreme_assignments
from spinhv.errors import LpNumericalFailure
from spinhv.matrices import EXAMPLE1, ROTATION_Z45
from spinhv.polytope import RECONSTRUCTION_TOL, vertex_array_quadrupled
from spinhv.simplex import FEAS_TOL, PIVOT_TOL, solve_equality_lp


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


def assert_certified(result, s: SpinValue, constrained: bool, point) -> None:
    """The result's certificate holds against the full vertex list.

    Inside: nonnegative weights summing to 1 (to within FEAS_TOL) on vertices,
    reconstructing the point to the reported residual.  Outside: the functional
    is at or above its bound on every vertex and below it at the point, and the
    bound is the functional's exact classical minimum.
    """
    point = np.ravel(point)
    quadrupled = vertex_array_quadrupled(s, constrained)
    if result.inside:
        used = 4 * result.correlators
        assert np.array_equal(used, np.rint(used))
        assert set(map(tuple, used.astype(int).tolist())) <= set(map(tuple, quadrupled.tolist()))
        assert np.all(result.weights >= 0.0)
        assert result.weights.sum() == pytest.approx(1.0, abs=FEAS_TOL)
        residual = float(np.max(np.abs(result.weights @ result.correlators - point)))
        assert residual == result.reconstruction_residual <= RECONSTRUCTION_TOL
    else:
        assert certificate_is_sound(result, quadrupled / 4.0, point)
        assert float((quadrupled / 4.0 @ result.functional).min()) == result.functional_bound
        assert classical_bound(result.functional.reshape(3, 3), s, constrained)[0] == result.functional_bound


class TestMembership:
    def test_vertices_are_inside(self):
        s = SpinValue(2)
        vertices = vertex_rows(s, constrained=True)
        for row in vertices[::7]:
            result = membership(row, s, constrained=True)
            assert result.inside
            assert np.max(np.abs(result.weights @ result.correlators - row)) <= 1e-7

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
        recon = result.weights @ result.correlators
        assert np.max(np.abs(recon - point.ravel())) <= 1e-7
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-8)
        # the result carries the doubled pairs its weights index and their residual
        assert result.pairs.shape == (len(result.weights), 2, 3)
        a, b = result.pairs.transpose(1, 0, 2)
        assert np.array_equal(result.correlators, np.einsum("ik,il->ikl", a, b).reshape(-1, 9) / 4.0)
        assert result.reconstruction_residual == float(np.max(np.abs(recon - point.ravel())))
        assert_certified(result, s, False, point)

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
        assert np.max(np.abs(result.weights @ result.correlators - point)) <= 1e-7

    def test_constrained_origin_inside_at_2s_18(self):
        # the closed form answers it; Bland's pivots on the same system (4490, 2969
        # degenerate) are pinned by tests/test_simplex.py::TestReferenceKernel::test_origin
        result = membership(np.zeros(9), SpinValue(18), constrained=True)
        assert result.inside
        assert result.reconstruction_residual <= 1e-7

    def test_origin_is_the_midpoint_of_the_first_and_last_rows(self):
        # at every feasible spin: row n-1 of the assignments is -(row 0), so their products
        # with row 0 are a vertex and its negative, with no LP
        for s, constrained in feasible_polytopes():
            D = extreme_assignments(s, constrained)
            result = membership(np.zeros((3, 3)), s, constrained)
            where = f"2s = {s.doubled}, constrained = {constrained}"
            assert result.inside, where
            assert result.reconstruction_residual == 0.0, where
            assert np.array_equal(result.pairs, D[[[0, 0], [-1, 0]]]), where
            assert result.weights.tolist() == [0.5, 0.5], where
            effort = (result.gauge, result.rounds, result.pivots, result.degenerate_pivots)
            assert effort == (0.0, 0, 0, 0), where

    def test_exact_vertex_inside(self):
        # on the full-tableau LP row 1313 at 2s = 13 ended on a drifted tableau and row 4604
        # at 2s = 40 took 16 213 pivots; an exact vertex is its own only decomposition, found
        # in the integer pair table
        point = np.array([-35, 77, -49, -55, 121, -77, 25, -55, 35]) / 4.0
        assert np.array_equal(vertex_rows(SpinValue(13), constrained=True)[1313], point)
        for doubled, row in ((13, 1313), (40, 4604)):
            s = SpinValue(doubled)
            vertex = vertex_rows(s, constrained=True)[row]
            result = membership(vertex, s, constrained=True)
            assert result.inside
            assert result.weights.tolist() == [1.0]
            assert np.array_equal(result.correlators, [vertex])
            assert result.reconstruction_residual == 0.0
            assert (result.gauge, result.rounds, result.pivots) == (1.0, 0, 0)

    @pytest.mark.parametrize(("doubled", "row"), [(13, 1313), (40, 4604)])
    def test_gauge_lp_meets_the_exact_vertices_on_its_own(self, doubled, row):
        # without the lookup, column generation ends on a basis whose weights sum to 1
        s = SpinValue(doubled)
        D = extreme_assignments(s, True)
        vertex = vertex_rows(s, constrained=True)[row]
        basis, rounds, _ = polytope._gauge_lp(vertex, s, True)
        pairs = D[np.stack(np.divmod(basis, len(D)), axis=1)]
        columns = np.einsum("ik,il->ikl", pairs[:, 0], pairs[:, 1]).reshape(9, 9) / 4.0
        weights = np.linalg.solve(columns.T, vertex)
        assert rounds > 1
        assert weights.min() >= -1e-9
        assert weights.sum() == pytest.approx(1.0, abs=FEAS_TOL)

    @pytest.mark.parametrize(
        ("s", "constrained"),
        feasible_polytopes(),
        ids=lambda case: f"2s={case.doubled}" if isinstance(case, SpinValue) else ("conserving" if case else "standard"),
    )
    def test_first_basis_is_cached_read_only_and_never_flipped(self, s, constrained):
        # rows 0-2 open the sorted list on the face x = -max|x|, a circle of positive radius
        # holding at least four rows, and three points of a circle are not collinear
        D = extreme_assignments(s, constrained)
        assert np.all(D[:4, 0] == -np.abs(D[:, 0]).max())
        assert D.dtype.kind == "i" and D[0] @ np.cross(D[1], D[2]) != 0  # det(rows 0-2), exact

        # the first basis depends only on the vertex set; the LP flips the signs of copies of it
        inverse = polytope._first_basis(s.doubled, constrained)
        with pytest.raises(ValueError):
            inverse[0] = inverse[1]
        columns = polytope._products(np.repeat(D[:3], 3, axis=0), np.tile(D[:3], (3, 1)))
        assert np.max(np.abs(inverse @ columns.T - np.eye(9))) <= 1e-12
        before = inverse.copy()

        point = -columns[0] / 2.0  # half the negative of a basis vertex: its first weight is -1/2
        assert (inverse @ point).min() < 0.0
        result = membership(point, s, constrained)
        assert result.inside and result.rounds > 0
        assert polytope._first_basis(s.doubled, constrained) is inverse
        assert np.array_equal(inverse, before)

    def test_origin_closed_form_is_the_first_basis_answer(self):
        # the LP at the origin ends in its first round on the first basis, whose row-0 pair
        # (D[0], D[0]) and its negative are what the closed form returns without the LP
        for s, constrained in feasible_polytopes():
            D = extreme_assignments(s, constrained)
            where = f"2s = {s.doubled}, constrained = {constrained}"
            basis, rounds, degenerate = polytope._gauge_lp(np.zeros(9), s, constrained)
            assert (rounds, degenerate, int(basis[0])) == (1, 0, 0), where
            result = membership(np.zeros(9), s, constrained)
            assert np.array_equal(result.pairs, [[D[0], D[0]], [-D[0], D[0]]]), where
            assert result.weights.tolist() == [0.5, 0.5], where

    @pytest.mark.xfail(raises=LpNumericalFailure, strict=True)
    def test_near_vertex_point_at_2s_40_ends_on_the_boundary(self):
        # about 1e-9 from a vertex, so rounding may call it either side; today the rounds
        # reach MAX_ITER, 19 109 of the 20 000 pivots degenerate (ROADMAP item 3)
        point = [
            [15.999999824, -31.99999984, 20.000000236],
            [-31.999999888, 63.999999872000004, -40.00000008800001],
            [-159.99999994, 319.99999976000004, -199.99999964],
        ]
        result = membership(point, SpinValue(40), constrained=True)
        assert result.gauge == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def assert_gauge_lp(point, s: SpinValue, constrained: bool):
        """The gauge LP answers with a sound certificate and the full-tableau oracle's verdict.

        The oracle, Bland's phase 1 over every vertex column, must agree wherever it answers.
        Outside, y = gauge f / f(point) is the Bell inequality the rounds end on: its
        classical maximum is 1 and y . point = gauge.
        """
        result = membership(point, s, constrained)
        assert result.rounds > 0 and result.pivots == result.rounds - 1
        assert 0 <= result.degenerate_pivots <= result.pivots
        assert_certified(result, s, constrained, point)
        vertices = vertex_rows(s, constrained)
        if not result.inside:
            y = result.gauge * result.functional / result.functional_value
            assert result.gauge > 1.0 + FEAS_TOL
            assert -classical_bound(-y.reshape(3, 3), s, constrained)[0] == pytest.approx(1.0, abs=PIVOT_TOL)
        try:
            A = np.vstack([vertices.T, np.ones(len(vertices))])
            outcome = solve_equality_lp(A, np.append(point, 1.0))
        except LpNumericalFailure:
            return result, False
        assert result.inside == outcome.feasible
        return result, True

    def test_vertex_nudged_by_1e_15_takes_the_lp(self):
        s = SpinValue(4)
        vertices = vertex_rows(s, constrained=True)
        for row in (0, 5, 96):
            for entry in (0, 4, 8):
                point = vertices[row].copy()
                point[entry] += 1e-15
                result, _ = self.assert_gauge_lp(point, s, constrained=True)
                assert result.inside

    def test_quarter_integer_non_vertex_takes_the_lp(self):
        point = np.zeros(9)
        point[0] = 0.25
        for doubled in (2, 4):
            s = SpinValue(doubled)
            assert not np.any(np.all(vertex_rows(s, True) == point, axis=1))
            result, _ = self.assert_gauge_lp(point, s, constrained=True)
            assert result.inside

    def test_mixtures_and_outside_points_take_the_lp(self):
        rng = np.random.default_rng(83)
        for doubled in (1, 2, 4, 6, 8):
            for constrained in (True, False):
                s = SpinValue(doubled)
                vertices = vertex_rows(s, constrained)
                box = s.value**2
                for _ in range(4):
                    chosen = vertices[rng.choice(len(vertices), size=3, replace=False)]
                    self.assert_gauge_lp(rng.dirichlet(np.ones(3)) @ chosen, s, constrained)
                    self.assert_gauge_lp(rng.uniform(-box, box, size=9), s, constrained)

    def test_seeded_grid_matches_the_full_tableau_oracle(self):
        # every feasible 2s <= 16 on both polytopes: an edge midpoint, a mixture, a point
        # 1e-9 from a vertex, a quarter-integer point next to the origin and a point of the box
        rng = np.random.default_rng(89)
        compared = total = outside = 0
        for s, constrained in feasible_polytopes():
            if s.doubled > 16:
                continue
            vertices = vertex_rows(s, constrained)
            n = len(vertices)
            a = rng.integers(n)
            b = rng.choice(np.setdiff1d(np.arange(n), [a, n - 1 - a]))  # row n-1-a is -(row a)
            origin_step = np.zeros(9)
            origin_step[rng.integers(9)] = rng.choice([-0.25, 0.25])
            chosen = vertices[rng.choice(n, size=6, replace=False)]
            for point in (
                (vertices[a] + vertices[b]) / 2.0,
                rng.dirichlet(np.ones(6)) @ chosen,
                (1 - 1e-9) * vertices[a] + 1e-9 * vertices[b],
                origin_step,
                rng.uniform(-s.value**2, s.value**2, size=9),
            ):
                result, answered = self.assert_gauge_lp(point, s, constrained)
                compared += answered
                outside += not result.inside
                total += 1
        assert total == 140 and compared >= total - 5 and outside >= 20


class TestGauge:
    """gamma(Q) = min { sum w : sum w_v v = Q, w >= 0 }, the polytope's gauge."""

    @pytest.mark.parametrize(
        ("constrained", "visibilities"),
        [
            (True, [0.7071, 0.7836, 0.9749, 0.7071, 0.9703, 0.9933]),
            (False, [0.7071, 1.0607, 1.5152, 1.5910, 1.6971, 1.7356]),
        ],
        ids=["conserving", "standard"],
    )
    def test_rotated_singlet_visibility(self, constrained, visibilities):
        # the rotated singlet's correlations -s(s+1)/3 R45 survive mixing with noise down to
        # the visibility 1/gamma, at 2s = 1, 2, 5, 6, 8, 9
        found = []
        for doubled in (1, 2, 5, 6, 8, 9):
            s = SpinValue(doubled)
            result = membership(-s.value * (s.value + 1) / 3 * ROTATION_Z45, s, constrained)
            assert result.inside == (result.gauge <= 1.0)
            found.append(round(1.0 / result.gauge, 4))
        assert found == visibilities

    def test_scaling(self):
        # the gauge is positively homogeneous: gamma(t Q) = t gamma(Q)
        s = SpinValue(4)
        point = vertex_rows(s, True)[[3, 40, 77]].mean(axis=0)
        base = membership(point, s, True).gauge
        for t in (0.25, 0.5, 0.75):
            assert membership(t * point, s, True).gauge == pytest.approx(t * base, rel=1e-12)


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
