import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.spatial.distance import cdist

from polishkrige import (
    BiharmonicModel,
    DataError,
    DuplicateLocationError,
    GreenSingularityError,
    LinearMeanModel,
    Location2D,
    SingularSystemError,
    biharmonic_eval,
    biharmonic_fit,
    decompose,
    green_function,
    linear_mean_at,
)
from polishkrige.mean_surface import biharmonic_deletions, biharmonic_eval_many, linear_mean_many


class TestGreenFunction:
    @pytest.mark.parametrize(
        "m,r,want",
        [
            (2, 1.0, -1.0),
            (1, 2.0, 8.0),
            (3, 5.0, 5.0),
            (2, 0.0, 0.0),
        ],
    )
    def test_benchmark_values(self, m, r, want):
        assert green_function(m, r) == pytest.approx(want, abs=1e-12)

    def test_all_forms_at_a_generic_radius(self):
        r = 2.5
        assert green_function(1, r) == pytest.approx(r**3, rel=1e-15)
        assert green_function(2, r) == pytest.approx(r * r * (math.log(r) - 1), rel=1e-15)
        assert green_function(3, r) == pytest.approx(r, rel=1e-15)
        assert green_function(4, r) == pytest.approx(math.log(r), rel=1e-15)
        assert green_function(5, r) == pytest.approx(1 / r, rel=1e-15)
        assert green_function(6, r) == pytest.approx(1 / r**2, rel=1e-15)

    def test_origin_limit_for_bounded_forms(self):
        for m in (1, 2, 3):
            assert green_function(m, 0.0) == 0.0

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_origin_raises_for_unbounded_forms(self, m):
        with pytest.raises(GreenSingularityError):
            green_function(m, 0.0)
        with pytest.raises(GreenSingularityError):
            green_function(m, np.array([1.0, 0.0, 2.0]))

    def test_surface_form_minimum_at_sqrt_e(self):
        # d/dr of r^2 (ln r - 1) vanishes at r = e^(1/2), value -e/2
        r_star = math.exp(0.5)
        v_star = green_function(2, r_star)
        assert v_star == pytest.approx(-math.e / 2, abs=1e-12)
        assert green_function(2, r_star - 1e-3) > v_star
        assert green_function(2, r_star + 1e-3) > v_star

    def test_array_matches_scalars(self):
        r = np.array([0.0, 0.5, 1.0, 3.75])
        got = green_function(2, r)
        want = [green_function(2, v) for v in r]
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_negative_radius_rejected(self):
        with pytest.raises(DataError):
            green_function(1, -0.1)

    @pytest.mark.parametrize("m", [0, 7, 2.5])
    def test_unknown_form_rejected(self, m):
        with pytest.raises(DataError):
            green_function(m, 1.0)


class TestBiharmonicFit:
    def test_one_dimensional_two_point_strengths(self):
        # G = [[0, 1], [1, 0]] for phi_1 = r^3, so values (0, 1) need (1, 0)
        model = biharmonic_fit([0.0, 1.0], [0.0, 1.0])
        assert model.dimension == 1
        np.testing.assert_allclose(model.strengths, [1.0, 0.0], atol=1e-14)

    def test_interpolates_exactly_in_2d(self, rng):
        coords = rng.uniform(0, 10, size=(40, 2))
        values = rng.normal(size=40)
        model = biharmonic_fit(coords, values)
        got = biharmonic_eval_many(model, coords)
        np.testing.assert_allclose(got, values, atol=1e-8 * np.abs(values).max())

    def test_strength_round_trip(self, rng):
        # synthesize a spline, sample it at the centers, refit
        coords = rng.uniform(0, 10, size=(25, 2))
        strengths = rng.normal(size=25)
        synth = biharmonic_eval_many(BiharmonicModel(2, coords, strengths), coords)
        refit = biharmonic_fit(coords, synth)
        np.testing.assert_allclose(refit.strengths, strengths, rtol=1e-7, atol=1e-9)

    def test_translation_invariance(self, rng):
        coords = rng.uniform(0, 5, size=(15, 2))
        values = rng.normal(size=15)
        queries = rng.uniform(-1, 6, size=(8, 2))
        base = biharmonic_eval_many(biharmonic_fit(coords, values), queries)
        shift = np.array([123.0, -45.0])
        moved = biharmonic_eval_many(biharmonic_fit(coords + shift, values), queries + shift)
        np.testing.assert_allclose(moved, base, rtol=1e-9, atol=1e-9)

    def test_single_zero_center_gives_zero_spline(self):
        model = biharmonic_fit(np.array([[1.0, 2.0]]), [0.0])
        assert biharmonic_eval(model, Location2D(5.0, 5.0)) == 0.0

    def test_single_nonzero_center_is_singular(self):
        with pytest.raises(SingularSystemError):
            biharmonic_fit(np.array([[1.0, 2.0]]), [3.0])

    def test_duplicate_centers_rejected(self):
        with pytest.raises(DuplicateLocationError):
            biharmonic_fit(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), [1.0, 2.0, 3.0])

    def test_regularization_drops_exactness(self, rng):
        coords = rng.uniform(0, 10, size=(20, 2))
        values = rng.normal(size=20)
        rough = biharmonic_fit(coords, values, regularization=0.5)
        got = biharmonic_eval_many(rough, coords)
        assert not np.allclose(got, values, atol=1e-6)

    def test_negative_regularization_rejected(self):
        with pytest.raises(DataError):
            biharmonic_fit(np.array([[0.0, 0.0], [1.0, 0.0]]), [1.0, 2.0], regularization=-1e-3)

    @pytest.mark.parametrize("regularization", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        lambda c, eps: biharmonic_fit(c, [1.0, 2.0, 4.0], eps),
        lambda c, eps: biharmonic_fit(c, [0.0, 0.0, 0.0], eps),
        lambda c, eps: biharmonic_deletions(c, eps),
        lambda c, eps: BiharmonicModel(2, c, [1.0, -2.0, 1.0], eps),
    ], ids=["fit", "fit-zero-values", "deletions", "model"])
    def test_non_finite_regularization_rejected(self, build, regularization):
        with pytest.raises(DataError):
            build(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), regularization)

    def test_dimension_override(self, rng):
        coords = rng.uniform(0, 10, size=(10, 2))
        values = rng.normal(size=10)
        model = biharmonic_fit(coords, values, dimension=3)
        assert model.dimension == 3
        got = biharmonic_eval_many(model, coords)
        np.testing.assert_allclose(got, values, atol=1e-9)

    def test_scalar_queries_in_1d(self):
        model = biharmonic_fit([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
        v = biharmonic_eval(model, 1.0)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_query_dimension_mismatch_rejected(self):
        model = biharmonic_fit(np.array([[0.0, 0.0], [1.0, 1.0]]), [1.0, 2.0])
        with pytest.raises(DataError):
            biharmonic_eval(model, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("regularization", [0.0, 0.25])
    def test_strengths_equal_a_factorization_of_a_copy(self, rng, regularization):
        coords = rng.uniform(0, 10, size=(60, 2))
        values = rng.normal(size=60)
        r = cdist(coords, coords)
        g = np.where(r == 0, 0.0, r * r * (np.log(np.where(r == 0, 1.0, r)) - 1.0))
        g += regularization * np.eye(60)
        want = lu_solve(lu_factor(g), values)
        got = biharmonic_fit(coords, values, regularization).strengths
        np.testing.assert_array_equal(got, want)

    def test_fit_holds_one_green_matrix(self):
        # the n x n Green matrix is built, regularized and factored in place:
        # the fit's peak stays below two such matrices
        ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
        coords = np.column_stack([xs.ravel(), ys.ravel()])
        values = np.sin(coords[:, 0]) + np.cos(0.7 * coords[:, 1])
        n = len(coords)
        tracemalloc.start()
        try:
            biharmonic_fit(coords, values, regularization=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8


class TestLinearMean:
    def test_node_values_match_polish_means(self, small_table):
        fit = decompose(small_table)
        model = LinearMeanModel(fit, small_table.lattice)
        means = fit.node_mean_grid()
        for k in range(fit.p):
            for l in range(fit.q):
                s = small_table.lattice.node(k, l)
                assert linear_mean_at(model, s) == pytest.approx(means[k, l], abs=1e-12)

    def test_separable_midpoint_average(self, small_table):
        fit = decompose(small_table)
        model = LinearMeanModel(fit, small_table.lattice)
        means = fit.node_mean_grid()
        # midpoint of a cell edge averages the two adjacent nodes
        mid_x = Location2D(1.5, 1.0)
        assert linear_mean_at(model, mid_x) == pytest.approx((means[0, 0] + means[0, 1]) / 2, abs=1e-12)
        # a cell centre averages all four corners under a separable surface
        centre = Location2D(2.5, 2.5)
        want = means[1:3, 1:3].mean()
        assert linear_mean_at(model, centre) == pytest.approx(want, abs=1e-12)

    def test_extrapolation_continues_boundary_line(self, small_table):
        fit = decompose(small_table)
        model = LinearMeanModel(fit, small_table.lattice)
        pts = np.array([[0.0, 2.0], [1.0, 2.0], [2.0, 2.0]])
        v = linear_mean_many(model, pts)
        # one step outside continues the first-pair slope
        assert v[0] == pytest.approx(2 * v[1] - v[2], abs=1e-12)

    def test_shape_mismatch_rejected(self, small_table, holey_table):
        fit = decompose(small_table)
        with pytest.raises(DataError):
            LinearMeanModel(fit, holey_table.lattice)

    def test_point_array_shape_checked(self, small_table):
        fit = decompose(small_table)
        model = LinearMeanModel(fit, small_table.lattice)
        with pytest.raises(DataError):
            linear_mean_many(model, np.zeros((3, 3)))
