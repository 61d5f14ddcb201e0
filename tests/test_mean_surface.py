import math
import tracemalloc
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.spatial.distance import cdist

from conftest import mp_spline
from polishkrige import (
    BiharmonicModel,
    DataError,
    DuplicateLocationError,
    GridLattice,
    GridTable,
    LinearMeanModel,
    SingularSystemError,
    VariogramModel,
    biharmonic_fit,
    decompose,
    fit,
    green_function,
    predict_many,
)
from polishkrige.mean_surface import (
    _green_system,
    biharmonic_deletions,
    biharmonic_eval_many,
    linear_mean_many,
)
from polishkrige.numerics import RCOND_FLOOR


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

    def test_origin_limit_for_bounded_forms(self):
        for m in (1, 2, 3):
            assert green_function(m, 0.0) == 0.0

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

    @pytest.mark.parametrize("m", [0, 4, 7, 2.5])
    def test_unknown_form_rejected(self, m):
        with pytest.raises(DataError):
            green_function(m, 1.0)


class TestBiharmonicFit:
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
        synth = biharmonic_eval_many(BiharmonicModel(coords, strengths), coords)
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
        assert biharmonic_eval_many(model, np.array([[5.0, 5.0]]))[0] == 0.0

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
        lambda c, eps: BiharmonicModel(c, [1.0, -2.0, 1.0], eps),
    ], ids=["fit", "fit-zero-values", "deletions", "model"])
    def test_non_finite_regularization_rejected(self, build, regularization):
        with pytest.raises(DataError):
            build(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), regularization)

    @pytest.mark.parametrize("call", [
        lambda: biharmonic_fit([0.0, 1.0, 3.0], [1.0, 2.0, 4.0]),
        lambda: biharmonic_fit([[0.0], [1.0], [3.0]], [1.0, 2.0, 4.0]),
        lambda: biharmonic_fit(np.eye(3), [1.0, 2.0, 4.0]),
        # a 1-D array of two coordinates is no single centre
        lambda: BiharmonicModel([0.0, 1.0], [1.0]),
        lambda: BiharmonicModel([[0.0], [1.0], [3.0]], [1.0, -2.0, 1.0]),
        lambda: BiharmonicModel(np.eye(3), [1.0, -2.0, 1.0]),
        # the points are checked before the model is read: here a stand-in
        # for a model of 3-D centres, with the dimension such models had
        lambda: biharmonic_eval_many(
            SimpleNamespace(centers=np.eye(3), strengths=np.ones(3), dimension=3), np.eye(3)),
    ], ids=["fit-1d", "fit-n1", "fit-n3", "model-1d", "model-n1", "model-n3", "eval-m3"])
    def test_centres_and_points_are_planar(self, call):
        with pytest.raises(DataError):
            call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_non_finite_centre_rejected(self, bad, value):
        # a typed error, whether or not the values need a solve
        with pytest.raises(DataError):
            biharmonic_fit([[0.0, 0.0], [1.0, bad], [2.0, 1.0]], [value, 0.0, 0.0])

    def test_query_dimension_mismatch_rejected(self):
        model = biharmonic_fit(np.array([[0.0, 0.0], [1.0, 1.0]]), [1.0, 2.0])
        with pytest.raises(DataError):
            biharmonic_eval_many(model, np.array([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize("regularization", [0.0, 0.25])
    def test_strengths_equal_a_factorization_of_a_copy(self, rng, regularization):
        coords = rng.uniform(0, 10, size=(60, 2))
        values = rng.normal(size=60)
        r = cdist(coords, coords)
        g = np.where(r == 0, 0.0, r * r * (np.log(np.where(r == 0, 1.0, r)) - 1.0))
        g += regularization * np.eye(60)
        # LAPACK's Bunch-Kaufman LDL^T of a copy, with the queried workspace
        sytrf, lwork, sytrs = get_lapack_funcs(("sytrf", "sytrf_lwork", "sytrs"), (g,))
        ldl, ipiv, info = sytrf(g.copy(), lower=1, lwork=int(lwork(60, lower=1)[0]))
        assert info == 0
        want = sytrs(ldl, ipiv, values, lower=1)[0]
        got = biharmonic_fit(coords, values, regularization).strengths
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("delta, above", [(1.5e-6, True), (7e-7, False)],
                             ids=["above", "below"])
    def test_green_system_across_the_floor(self, delta, above):
        # a 7 x 8 unit lattice and one more centre delta from its origin: the
        # Green system's rcond falls with delta, and these two take it across
        # RCOND_FLOOR within a factor 3 either side
        ys, xs = np.mgrid[0:7, 0:8].astype(np.float64)
        centers = np.vstack([np.column_stack([xs.ravel(), ys.ravel()]), [[delta, 0.0]]])
        values = np.random.default_rng(11).normal(size=57)
        if not above:
            with pytest.raises(SingularSystemError) as info:
                biharmonic_fit(centers, values)
            assert RCOND_FLOOR / 3 < info.value.condition < RCOND_FLOOR
            return
        assert RCOND_FLOOR <= _green_system(centers, 0.0)[1] < 3 * RCOND_FLOOR
        spline = biharmonic_fit(centers, values)
        assert np.isfinite(biharmonic_eval_many(spline, centers + 0.5)).all()

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


class TestSplineAgainstTheOracle:
    """The impk spline on a 7 x 8 lattice of spacing 0.3, which is no power
    of two, against conftest's 50-digit solve of its Green system: off the
    centres, as biharmonic_eval_many and as the mean of a dense predict_many
    call, and by deletion.  Each must be within eps / rcond max|w| of it,
    with rcond the Green system's and w the spline's data (at most 0.05 of
    that measured)."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(11)
        grid = GridTable(GridLattice(0.3 * np.arange(8.0), 0.3 * np.arange(7.0)),
                         rng.normal(size=(7, 8)) + np.sin(np.arange(8.0)))
        model = fit(grid, "impk", variogram=VariogramModel("exponential", 0.1, 1.0, 0.9))
        spline = model.mean_component
        rows, cols = np.nonzero(grid.present_mask)
        w = model.polish.row_effects[rows] + model.polish.col_effects[cols]
        bound = np.finfo(float).eps / _green_system(spline.centers, 0.0)[1] * np.abs(w).max()
        return model, w, bound

    def test_off_the_centres(self, case):
        model, w, bound = case
        spline, spacing = model.mean_component, model.source_grid.lattice.spacing
        oracle = mp_spline(spline.centers, w)
        # 132 >= n targets, so predict_many takes the product with L^-1
        tx, ty = np.meshgrid(0.3 * np.linspace(-0.5, 7.5, 12), 0.3 * np.linspace(-0.5, 6.5, 11))
        points = np.column_stack([tx.ravel(), ty.ravel()])
        want = np.array([float(oracle(mp.mpf(x) / spacing, mp.mpf(y) / spacing))
                         for x, y in points])
        np.testing.assert_allclose(biharmonic_eval_many(spline, points / spacing), want,
                                   rtol=0, atol=bound)
        values, _ = predict_many(model, points)
        mean = values - model._system.predict_many(points)[0] - model.polish.overall
        np.testing.assert_allclose(mean, want, rtol=0, atol=bound)

    @pytest.mark.parametrize("cell", [0, 27])
    def test_deletions(self, case, cell):
        model, w, bound = case
        centers = model.mean_component.centers
        oracle = mp_spline(np.delete(centers, cell, axis=0), np.delete(w, cell))
        got = biharmonic_deletions(centers)(cell, w)
        assert got == pytest.approx(float(oracle(*centers[cell])), rel=0, abs=bound)


class TestLinearMean:
    def test_node_values_match_polish_means(self, small_table):
        fit = decompose(small_table)
        model = LinearMeanModel(fit, small_table.lattice)
        means = fit.node_mean_grid()
        for k in range(fit.p):
            for l in range(fit.q):
                s = small_table.lattice.node(k, l)
                got = linear_mean_many(model, np.array([[s.x, s.y]]))[0]
                assert got == pytest.approx(means[k, l], abs=1e-12)

    def test_separable_midpoint_average(self, small_table):
        fit = decompose(small_table)
        model = LinearMeanModel(fit, small_table.lattice)
        means = fit.node_mean_grid()
        # midpoint of a cell edge averages the two adjacent nodes
        mid_x, centre = linear_mean_many(model, np.array([[1.5, 1.0], [2.5, 2.5]]))
        assert mid_x == pytest.approx((means[0, 0] + means[0, 1]) / 2, abs=1e-12)
        # a cell centre averages all four corners under a separable surface
        assert centre == pytest.approx(means[1:3, 1:3].mean(), abs=1e-12)

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
