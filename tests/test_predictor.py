import collections
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import DATA_DIR
from polishkrige import (
    CvReport,
    DataError,
    FitConfig,
    GridLattice,
    GridTable,
    Location2D,
    PolishKrigeError,
    PredictionGrid,
    VariogramModel,
    covariance,
    cross_validate,
    decompose,
    fit,
    green_function,
    load_observations_csv,
    loocv,
    ok_predict,
    predict,
    predict_grid,
    predict_many,
    rmse,
    to_grid,
)
from polishkrige import kriging, mean_surface, predictor, spatial_core
from polishkrige.kriging import (
    FAMILIES,
    KrigingSystem,
    _semivariogram_stack,
    _variogram_fit_stack,
    empirical_semivariogram,
    fit_variogram,
)
from polishkrige.mean_surface import BiharmonicModel, biharmonic_eval_many, linear_mean_many
from polishkrige.median_polish import residuals_as_scatter
from polishkrige.predictor import SurfaceModel, _folds


def thin_row_table():
    """3 x 3 with a singleton row: one fold empties it, corner folds leave
    too few lags for a variogram fit."""
    lat = GridLattice([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    cells = np.array([[1.0, 2.0, 3.0], [4.0, np.nan, np.nan], [5.0, 6.0, 7.0]])
    return GridTable(lat, cells)


def overflowing_table():
    """3 x 3, every cell finite and present, whose median polish overflows
    to NaN."""
    big = 1.7e308
    return GridTable(GridLattice([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]),
                     [[big, -big, -big], [-9e307, -big, big], [big, 2.0, -big]])


def singular_ridge(grid, drop=None):
    """A spline ridge that makes the Green system of the present cells (less
    present cell drop) singular to rounding: minus its lowest eigenvalue."""
    centers = np.delete(grid.to_scatter().coords / grid.lattice.spacing,
                        [] if drop is None else [drop], axis=0)
    return -np.linalg.eigvalsh(green_function(2, cdist(centers, centers)))[0]


def refit_folds(grid, method, config):
    """Per present cell (row-major): the prediction of a full refit without
    it, or the reason the fold is skipped."""
    frozen = fit(grid, method, config).variogram if config.freeze_variogram else None
    present = grid.present_mask
    out = []
    for k, l in zip(*np.nonzero(present)):
        if present[k].sum() < 2:
            out.append(f"deletion empties row {k}")
        elif present[:, l].sum() < 2:
            out.append(f"deletion empties column {l}")
        else:
            try:
                model = fit(grid.drop_cell(k, l), method, config, variogram=frozen)
                out.append((predict(model, grid.lattice.node(k, l)), model.polish.converged))
            except PolishKrigeError as exc:
                out.append(f"{exc.category}: {exc}")
    return out


def report_folds(report, grid):
    """The report's folds in row-major cell order: records and skip reasons."""
    by_node = {r.location: r for r in report.per_point}
    by_node.update({s.location: s.reason for s in report.skipped})
    return [by_node[grid.lattice.node(k, l)] for k, l in zip(*np.nonzero(grid.present_mask))]


def zero_nugget_like(model):
    v = model.variogram
    return VariogramModel(v.family, 0.0, max(v.partial_sill, 1e-6), v.range)


class TestFitBasics:
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_fit_populates_components(self, holey_table, method):
        model = fit(holey_table, method)
        assert model.method == method
        assert model.residual_scatter.n == holey_table.n_present
        assert model.variogram.sill >= 0

    def test_unknown_method_rejected(self, small_table):
        with pytest.raises(DataError):
            fit(small_table, "idw")

    def test_methods_share_mean_at_observed_nodes(self, holey_table):
        mpk = fit(holey_table, "mpk")
        impk = fit(holey_table, "impk")
        rows, cols = np.nonzero(holey_table.present_mask)
        nodes = np.column_stack(
            [holey_table.lattice.x_coords[cols], holey_table.lattice.y_coords[rows]]
        )
        np.testing.assert_allclose(
            impk.mean_at(nodes), mpk.mean_at(nodes), rtol=1e-6, atol=1e-9
        )

    def test_methods_differ_off_lattice(self, holey_table):
        mpk = fit(holey_table, "mpk")
        impk = fit(holey_table, "impk")
        pts = np.array([[0.5, 0.5], [2.3, 1.7], [4.4, 3.2]])
        assert not np.allclose(impk.mean_at(pts), mpk.mean_at(pts), atol=1e-8)

    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_predict_takes_an_xy_pair(self, holey_table, method):
        model = fit(holey_table, method)
        at = predict(model, Location2D(2.3, 1.7))
        assert predict(model, np.array([2.3, 1.7])) == at
        assert predict(model, (2.3, 1.7)) == at
        for not_one in (np.array([2.3, 1.7, 0.0]), np.array([[2.3, 1.7], [0.5, 0.5]]),
                        np.array([[2.3], [1.7]]), np.array([[[2.3, 1.7]]]), 2.3):
            with pytest.raises(DataError):
                predict(model, not_one)

    @pytest.mark.parametrize("neighborhood", [None, 3])
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_predict_many_refuses_wrong_shaped_targets(self, holey_table, method, neighborhood):
        model = fit(holey_table, method, FitConfig(neighborhood=neighborhood))
        for targets in (np.array([[2.3, 1.7, 0.0]]), np.array([2.3, 1.7, 0.0])):
            with pytest.raises(DataError, match="targets must be"):
                predict_many(model, targets)

    def test_point_functions_share_one_validator(self, holey_table):
        mpk, impk = fit(holey_table, "mpk"), fit(holey_table, "impk")
        evaluators = [lambda p: linear_mean_many(mpk.mean_component, p),
                      lambda p: biharmonic_eval_many(impk.mean_component, p),
                      mpk.mean_at, impk.mean_at,
                      lambda p: predict_many(mpk, p), lambda p: predict_many(impk, p)]
        for points, match in ((np.ones((3, 2, 2)), "targets must be"),
                              ([[np.nan, 1.0]], "non-finite target coordinate"),
                              (np.ones(3), "targets must be")):
            for evaluate in evaluators:
                with pytest.raises(DataError, match=match):
                    evaluate(points)

    def test_overflowing_polish_names_its_residuals(self):
        grid = overflowing_table()
        with np.errstate(all="ignore"):
            assert np.isnan(decompose(grid).row_effects).all()
            with pytest.raises(DataError, match="9 median-polish residuals are not finite"):
                fit(grid, "mpk")

    def test_impk_spline_is_built_once(self, holey_table, monkeypatch):
        built = []
        post_init = BiharmonicModel.__post_init__
        monkeypatch.setattr(BiharmonicModel, "__post_init__",
                            lambda self: built.append(post_init(self)))
        model = fit(holey_table, "impk")
        assert len(built) == 1
        polish = decompose(holey_table)
        again = SurfaceModel(holey_table, model.config, polish, model.variogram,
                             model.mean_component.strengths)
        np.testing.assert_array_equal(again.mean_component.strengths,
                                      model.mean_component.strengths)
        assert again.mean_component.regularization == model.mean_component.regularization

    def test_supplied_variogram_is_used_verbatim(self, small_table):
        frozen = VariogramModel("exponential", 0.05, 0.4, 2.5)
        model = fit(small_table, "mpk", variogram=frozen)
        assert model.variogram is frozen


class TestPredictionInvariants:
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_zero_nugget_reproduces_data(self, holey_table, method):
        base = fit(holey_table, method)
        model = fit(holey_table, method, variogram=zero_nugget_like(base))
        rows, cols = np.nonzero(holey_table.present_mask)
        for k, l in zip(rows, cols):
            node = holey_table.lattice.node(k, l)
            pred = predict(model, node)
            want = holey_table.cells[k, l]
            assert pred.value == pytest.approx(want, rel=1e-6)

    def test_shift_equivariance_mpk_everywhere(self, holey_table):
        shift = 42.5
        shifted = GridTable(holey_table.lattice, holey_table.cells + shift)
        pts = np.array([[0.7, 1.1], [3.0, 2.0], [4.6, 3.9]])
        base_v, base_s2 = predict_many(fit(holey_table, "mpk"), pts)
        got_v, got_s2 = predict_many(fit(shifted, "mpk"), pts)
        np.testing.assert_allclose(got_v, base_v + shift, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got_s2, base_s2, rtol=0, atol=1e-6)

    def test_shift_equivariance_impk_at_nodes(self, holey_table):
        shift = 42.5
        shifted = GridTable(holey_table.lattice, holey_table.cells + shift)
        rows, cols = np.nonzero(holey_table.present_mask)
        pts = np.column_stack(
            [holey_table.lattice.x_coords[cols], holey_table.lattice.y_coords[rows]]
        )
        base_v, _ = predict_many(fit(holey_table, "impk"), pts)
        got_v, _ = predict_many(fit(shifted, "impk"), pts)
        np.testing.assert_allclose(got_v, base_v + shift, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("method", ["mpk", "impk"])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_shift_equivariance_on_coal_ash(self, coal_ash_grid, method, family):
        lat = coal_ash_grid.lattice
        dx = lat.x_coords[1] - lat.x_coords[0]
        dy = lat.y_coords[1] - lat.y_coords[0]
        gx, gy = np.meshgrid(np.linspace(lat.x_coords[0] - dx, lat.x_coords[-1] + dx, 23),
                             np.linspace(lat.y_coords[0] - dy, lat.y_coords[-1] + dy, 29))
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        config = FitConfig(family=family)
        base, _ = predict_many(fit(coal_ash_grid, method, config), pts)
        spread = np.nanmax(coal_ash_grid.cells) - np.nanmin(coal_ash_grid.cells)
        for shift in (100.0, -3.0):
            shifted = GridTable(lat, coal_ash_grid.cells + shift)
            got, _ = predict_many(fit(shifted, method, config), pts)
            # not exact: the shifted polish differs from the unshifted one in
            # the last bits, and the flat gaussian profile turns that into
            # about 1e-7 of prediction
            np.testing.assert_allclose(got, base + shift, rtol=0, atol=1e-6 * spread)

    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_prediction_decomposes_into_mean_plus_kriged_residual(self, holey_table, method):
        model = fit(holey_table, method)
        pts = np.array([[1.3, 2.2], [3.9, 0.4]])
        values, variances = predict_many(model, pts)
        for i, (x, y) in enumerate(pts):
            resid = ok_predict(model.residual_scatter, model.variogram, Location2D(x, y))
            mean = float(model.mean_at(np.array([[x, y]]))[0])
            assert values[i] == pytest.approx(mean + resid.value, rel=1e-12, abs=1e-12)
            assert variances[i] == pytest.approx(resid.variance, rel=1e-12, abs=1e-12)

    def test_constant_table_predicts_the_constant(self):
        lat = GridLattice(np.arange(5.0), np.arange(4.0))
        grid = GridTable(lat, np.full((4, 5), 3.25))
        off_lattice = np.array([[0.5, 0.5], [3.7, 2.1]])
        nodes = np.array([[1.0, 2.0], [4.0, 0.0]])

        mpk = fit(grid, "mpk")
        assert mpk.variogram.degenerate
        values, variances = predict_many(mpk, np.vstack([off_lattice, nodes]))
        np.testing.assert_allclose(values, 3.25, atol=1e-12)
        np.testing.assert_allclose(variances, 0.0, atol=0)

        # the spline mean reproduces the constant at its nodes
        impk = fit(grid, "impk")
        assert impk.variogram.degenerate
        values, variances = predict_many(impk, nodes)
        np.testing.assert_allclose(values, 3.25, atol=1e-9)
        np.testing.assert_allclose(variances, 0.0, atol=0)

    def test_variance_is_method_independent(self, holey_table):
        pts = np.array([[0.7, 1.1], [2.5, 2.5], [4.6, 3.9]])
        _, var_mpk = predict_many(fit(holey_table, "mpk"), pts)
        _, var_impk = predict_many(fit(holey_table, "impk"), pts)
        np.testing.assert_allclose(var_mpk, var_impk, rtol=0, atol=0)


class TestPredictGrid:
    def test_lattice_spans_source_extent(self, holey_table):
        model = fit(holey_table, "mpk")
        out = predict_grid(model, (7, 9))
        assert out.values.shape == (7, 9)
        assert out.variances.shape == (7, 9)
        assert out.lattice.x_coords[0] == holey_table.lattice.x_coords[0]
        assert out.lattice.x_coords[-1] == holey_table.lattice.x_coords[-1]
        assert out.lattice.y_coords[-1] == holey_table.lattice.y_coords[-1]

    def test_row_major_layout(self, holey_table):
        model = fit(holey_table, "impk")
        out = predict_grid(model, (3, 4))
        direct, _ = predict_many(model, np.array([[out.lattice.x_coords[2], out.lattice.y_coords[1]]]))
        assert out.values[1, 2] == pytest.approx(direct[0], abs=1e-12)

    def test_too_small_resolution_rejected(self, holey_table):
        model = fit(holey_table, "mpk")
        with pytest.raises(DataError):
            predict_grid(model, (1, 5))

    def test_negative_variance_rejected_in_container(self, holey_table):
        lat = GridLattice([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DataError):
            PredictionGrid(lat, np.zeros((2, 2)), np.array([[0.0, -1.0], [0.0, 0.0]]))


class TestLoocv:
    def test_report_structure(self, holey_table):
        report = loocv(holey_table, "mpk")
        assert isinstance(report, CvReport)
        assert report.method == "mpk"
        assert report.n_folds + len(report.skipped) == holey_table.n_present
        errors = [r.error for r in report.per_point]
        assert report.rmse == pytest.approx(rmse(errors))

    def test_row_major_fold_order(self, holey_table):
        report = loocv(holey_table, "impk")
        seen = [(r.location.y, r.location.x) for r in report.per_point]
        assert seen == sorted(seen)

    def test_thin_row_and_failed_folds_are_reported(self):
        lat = GridLattice([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        cells = np.array([[1.0, 2.0, 3.0], [4.0, np.nan, np.nan], [5.0, 6.0, 7.0]])
        report = loocv(GridTable(lat, cells), "mpk")
        reasons = {(s.location.x, s.location.y): s.reason for s in report.skipped}
        # deleting the lone cell of row 1 would empty it
        assert "row" in reasons[(0.0, 1.0)]
        # corner deletions leave too few distinct lags for a variogram fit;
        # those folds fail inside the pipeline and are captured with their
        # error category rather than aborting the run
        assert reasons[(0.0, 0.0)].startswith("bad-input")
        assert report.n_folds + len(report.skipped) == 7
        assert report.n_folds == 2

    def test_runs_are_deterministic(self, holey_table):
        a = loocv(holey_table, "impk")
        b = loocv(holey_table, "impk")
        assert a == b

    def test_freeze_variogram_uses_one_model(self, holey_table):
        frozen = loocv(holey_table, "mpk", FitConfig(freeze_variogram=True))
        free = loocv(holey_table, "mpk")
        assert frozen.config.freeze_variogram
        assert frozen.n_folds == free.n_folds
        # refitting per fold moves the variogram at least a little
        assert frozen.rmse != free.rmse


class TestRmseAndConfig:
    def test_two_point_example(self):
        assert rmse([3.0, 4.0]) == pytest.approx(3.535534, abs=5e-7)

    def test_sign_does_not_matter(self):
        assert rmse([-3.0, 4.0]) == rmse([3.0, -4.0])

    def test_empty_errors_rejected(self):
        with pytest.raises(DataError):
            rmse([])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="krige"),
            dict(family="linear"),
            dict(n_bins=0),
            dict(max_sweeps=0),
            dict(epsilon=-0.5),
            dict(max_lag=0.0),
            dict(mp_tol=-1e-9),
            dict(neighborhood=0),
            dict(epsilon=np.nan),
            dict(epsilon=np.inf),
            dict(max_lag=np.nan),
            dict(max_lag=np.inf),
            dict(mp_tol=np.nan),
            dict(mp_tol=np.inf),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(DataError):
            FitConfig(**kwargs)


class TestResidualEngine:
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    @pytest.mark.parametrize("b", [1e-6, 1e4, 1e6])
    def test_value_scale(self, coal_ash_grid, method, b):
        scaled = GridTable(coal_ash_grid.lattice, coal_ash_grid.cells * b)
        assert fit(scaled, method).variogram.sill > 0

        base = fit(coal_ash_grid, method)
        v = base.variogram
        model = fit(scaled, method, variogram=VariogramModel(
            v.family, v.nugget * b * b, v.partial_sill * b * b, v.range))
        lat = coal_ash_grid.lattice
        pts = np.column_stack([
            np.linspace(lat.x_coords[0], lat.x_coords[-1], 37) + 0.3,
            np.linspace(lat.y_coords[-1], lat.y_coords[0], 37) + 0.2,
        ])
        base_v, base_s2 = predict_many(base, pts)
        got_v, got_s2 = predict_many(model, pts)
        np.testing.assert_allclose(got_v, base_v * b, rtol=1e-9)
        np.testing.assert_allclose(got_s2, base_s2 * b * b, rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 14])
    def test_neighbourhood_ties_follow_scatter_order(self, k):
        # on a regular lattice the k-th nearest distance is shared by a whole
        # ring of points at every node and cell centre; the neighbourhood is
        # the k smallest by np.hypot distance, ties to the lower scatter index
        rng = np.random.default_rng(5)
        cells = rng.normal(size=(10, 10))
        cells[rng.random((10, 10)) < 0.1] = np.nan
        grid = GridTable(GridLattice(np.arange(10.0), np.arange(10.0)), cells)
        model = fit(grid, "mpk", FitConfig(neighborhood=k),
                    variogram=VariogramModel("exponential", 0.05, 1.0, 4.0))
        xs = np.arange(10.0)
        centres = np.arange(9.0) + 0.5
        pts = np.vstack([np.stack(np.meshgrid(a, a), -1).reshape(-1, 2)
                         for a in (xs, centres)])
        values, variances = predict_many(model, pts)

        sc = model.residual_scatter
        v = model.variogram
        for i, (x, y) in enumerate(pts):
            d = np.hypot(sc.coords[:, 0] - x, sc.coords[:, 1] - y)
            idx = np.sort(np.argsort(d, kind="stable")[:k])
            sub = sc.coords[idx]
            a = np.ones((k + 1, k + 1))
            a[:k, :k] = covariance(v, cdist(sub, sub))
            a[k, k] = 0.0
            rhs = np.append(covariance(v, d[idx]), 1.0)
            sol = np.linalg.solve(a, rhs)
            resid = sol[:k] @ sc.values[idx]
            var = v.sill - sol[:k] @ rhs[:k] - sol[k]
            mean = model.mean_at(pts[i:i + 1])[0]
            assert values[i] == pytest.approx(mean + resid, abs=1e-10)
            assert variances[i] == pytest.approx(var, abs=1e-10)

    @staticmethod
    def peak(model, resolution):
        tracemalloc.start()
        try:
            predict_grid(model, resolution)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_surface_memory_does_not_grow_with_grid(self, coal_ash_grid):
        # what grows with the grid is 6 floats per target: the points, the
        # meshgrid, and the values and variances; the chunk scratch besides
        # them must not (1.3 MiB for mpk and 1.8 MiB for impk measured)
        for method in ("mpk", "impk"):
            model = fit(coal_ash_grid, method)
            for resolution in ((100, 100), (300, 300)):
                targets = resolution[0] * resolution[1]
                assert self.peak(model, resolution) - 48 * targets < 2.5 * 2**20

    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_global_scratch_is_bounded(self, coal_ash_grid, method):
        # n = 208: one W = L^-1 per call and chunks of 315 targets, whose
        # distance and spline buffers hold 2**16 floats each; the 90,000
        # targets and their results hold 4.1 MiB (5.5 and 6.0 MiB measured)
        model = fit(coal_ash_grid, method)
        assert self.peak(model, (300, 300)) < 2**20 * 8

    def test_wide_neighbourhood_memory_does_not_grow_with_grid(self, coal_ash_grid):
        # 100 of 208 neighbours: the stacked systems, not the scatter size,
        # set the memory per target
        model = fit(coal_ash_grid, "impk", FitConfig(neighborhood=100))
        assert self.peak(model, (40, 40)) < 1.5 * self.peak(model, (20, 20))

    def test_neighbourhood_impk_scratch_is_bounded(self):
        # about 2,800 sites, k = 16: chunks are sized by the spline's distances
        # to every centre, the larger need, so scratch stays near 2**20 floats
        rng = np.random.default_rng(3)
        cells = rng.normal(size=(55, 55)) + 0.1 * np.arange(55.0)[:, None]
        cells[rng.random((55, 55)) < 0.05] = np.nan
        grid = GridTable(GridLattice(np.arange(55.0), np.arange(55.0)), cells)
        config = FitConfig(method="impk", neighborhood=16)
        model = SurfaceModel(grid, config, decompose(grid),
                             VariogramModel("exponential", 0.05, 1.0, 8.0),
                             rng.normal(size=grid.n_present))
        points = rng.uniform(-2.0, 56.0, size=(3000, 2))
        tracemalloc.start()
        try:
            predict_many(model, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 * 8

    def test_wide_neighbourhood_mpk_scratch_is_bounded(self, coal_ash_grid):
        # 100 neighbours and no spline: the systems' scratch per target in
        # KrigingSystem._chunking alone sizes the chunks, so it must count
        # every k x k array the systems hold
        model = fit(coal_ash_grid, "mpk", FitConfig(neighborhood=100))
        assert self.peak(model, (60, 60)) < 2 * 2**20 * 8

    def test_direct_neighbourhood_call_scratch_is_bounded(self, coal_ash_grid):
        # k = 16 over n = 208: a direct KrigingSystem call, with no mean,
        # chunks its 30,000 targets as predict_many does, 2**20 // (12 k +
        # 3 k^2) at a time (8.3 MB measured)
        system = fit(coal_ash_grid, "mpk", FitConfig(neighborhood=16))._system
        lat = coal_ash_grid.lattice
        points = np.random.default_rng(6).uniform(
            [lat.x_coords[0], lat.y_coords[0]], [lat.x_coords[-1], lat.y_coords[-1]],
            size=(30000, 2))
        tracemalloc.start()
        try:
            system.predict_many(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 * 8

    def test_cross_validation_memory_is_bounded(self, coal_ash_grid):
        # the 208 coal-ash folds are polished as one stack and their
        # variograms fitted by blocks of 2**15 floats per (folds, 64, bins)
        # array, so the polish stack sets the peak (4.4 MB measured); four
        # times as many variograms in one fit hold no more scratch
        def traced_peak(call, *args):
            tracemalloc.start()
            try:
                call(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(cross_validate, coal_ash_grid, ("mpk", "impk")) < 6e6
        scatter = fit(coal_ash_grid, "mpk").residual_scatter
        emps = _semivariogram_stack(scatter.coords, np.tile(scatter.values, (scatter.n, 1)),
                                    15, None, dropped=np.arange(scatter.n))
        one = traced_peak(_variogram_fit_stack, emps, "spherical")
        assert traced_peak(_variogram_fit_stack, emps * 4, "spherical") < 1.25 * one


def count_calls(monkeypatch):
    """From here on, log every distances call of kriging and mean_surface and
    every LAPACK routine kriging takes from get_lapack_funcs, as (name,
    length of the first argument)."""
    log = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append((name, len(args[0])))
            return fn(*args, **kwargs)
        return wrapper

    for module in (kriging, mean_surface):
        name = module.__name__.rsplit(".", 1)[1] + ".distances"
        monkeypatch.setattr(module, "distances", logged(name, module.distances))
    lapack = kriging.get_lapack_funcs
    monkeypatch.setattr(kriging, "get_lapack_funcs", lambda names, arrays: tuple(
        logged(name, f) for name, f in zip(names, lapack(names, arrays))))
    return log


class TestDensePath:
    """The one predict loop, KrigingSystem.predict_many: on the global path
    one distance pass per chunk serves the mean, the values and the
    variances; on every path a call equals calls of its chunks."""

    @staticmethod
    def targets(lattice, scale):
        """1,000 targets over and just beyond the lattice: for n = 208, three
        chunks of 315 and a partial fourth."""
        gx, gy = np.meshgrid(
            np.linspace(lattice.x_coords[0] - 0.7 * scale, lattice.x_coords[-1] + 0.4 * scale, 40),
            np.linspace(lattice.y_coords[0] - 0.3 * scale, lattice.y_coords[-1] + 0.6 * scale, 25))
        return np.column_stack([gx.ravel(), gy.ravel()])

    # at scale 0.3 the spacing is no power of two, so d / spacing rounds
    # otherwise than the distances of points / spacing to the spline centres
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_matches_small_calls_and_mean_plus_residual(self, coal_ash_grid, scale, method,
                                                        family):
        lat = coal_ash_grid.lattice
        grid = GridTable(GridLattice(lat.x_coords * scale, lat.y_coords * scale),
                         coal_ash_grid.cells)
        model = fit(grid, method, FitConfig(family=family))
        points = self.targets(grid.lattice, scale)
        n, sill = model.residual_scatter.n, model.variogram.sill
        values, variances = predict_many(model, points)
        solved = [predict_many(model, points[lo:lo + n - 1]) for lo in range(0, len(points), n - 1)]
        resid, kriged = KrigingSystem(model.residual_scatter, model.variogram).predict_many(points)
        bound = 10 * np.finfo(float).eps / model._system.rcond * sill
        # the spline's terms are far larger than its value, so the summation
        # order of a chunk moves an impk value by up to 7e-13 of it
        for want_values, want_variances in ([np.concatenate(part) for part in zip(*solved)],
                                            [model.mean_at(points) + resid, kriged]):
            np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(variances, want_variances, rtol=0, atol=bound)

    @pytest.mark.parametrize("bad", [np.zeros((400, 3)),
                                     np.vstack([np.ones((399, 2)), [[np.nan, 1.0]]])],
                             ids=["three-columns", "non-finite-last"])
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_bad_targets_are_refused_before_any_chunk(self, coal_ash_grid, method, bad,
                                                      monkeypatch):
        model = fit(coal_ash_grid, method)
        log = count_calls(monkeypatch)
        with pytest.raises(DataError):
            predict_many(model, bad)
        assert log == []

    def test_one_distance_pass_per_chunk_and_one_inverse_per_call(self, coal_ash_grid,
                                                                 monkeypatch):
        model = fit(coal_ash_grid, "impk")
        log = count_calls(monkeypatch)
        predict_grid(model, (400, 400))
        n = model.residual_scatter.n
        rows = 2**16 // n
        assert collections.Counter(name for name, _ in log) == {
            "kriging.distances": -(-400 * 400 // rows), "trtri": 1}
        assert ({size for name, size in log if name == "kriging.distances"}
                == {rows, 400 * 400 % rows})

    def test_large_global_model_solves_in_full_size_chunks(self, monkeypatch):
        # n = 1,056 sites: W would hold n^2 > 2**20 floats, so a call of
        # 2,500 >= n targets solves with L, 2**20 // n targets at a time
        rng = np.random.default_rng(4)
        grid = GridTable(GridLattice(np.arange(33.0), np.arange(32.0)), rng.normal(size=(32, 33)))
        model = fit(grid, "mpk", variogram=VariogramModel("exponential", 0.1, 1.0, 5.0))
        points = rng.uniform(-1.0, 33.0, size=(2500, 2))
        log = count_calls(monkeypatch)
        values, variances = predict_many(model, points)
        rows = 2**20 // model.residual_scatter.n
        assert log == [("kriging.distances", rows), ("kriging.distances", rows),
                       ("kriging.distances", 2500 - 2 * rows)]
        monkeypatch.undo()
        # each call of one chunk's targets solves that chunk alone; calls of
        # other widths may differ in the last bits, as a threaded BLAS splits
        # the columns of a solve by their count
        small = [predict_many(model, points[lo:lo + rows]) for lo in range(0, 2500, rows)]
        np.testing.assert_array_equal(values, np.concatenate([v for v, _ in small]))
        np.testing.assert_array_equal(variances, np.concatenate([s for _, s in small]))

    def test_neighbourhood_call_solves_in_full_size_chunks(self, coal_ash_grid, monkeypatch):
        # k = 16 over n = 208: a chunk holds 2**20 // (12 k + 3 k^2) targets,
        # solved as one stack of systems
        system = fit(coal_ash_grid, "mpk", FitConfig(neighborhood=16))._system
        points = self.targets(coal_ash_grid.lattice, 1.0)[np.arange(2500) % 1000]
        stacks, solve = [], KrigingSystem._solve
        monkeypatch.setattr(KrigingSystem, "_solve",
                            lambda self, targets: stacks.append(len(targets)) or solve(self, targets))
        values, variances = system.predict_many(points)
        rows = 2**20 // (12 * 16 + 3 * 16**2)
        assert stacks == [rows, rows, 2500 - 2 * rows]
        monkeypatch.undo()
        small = [system.predict_many(points[lo:lo + rows]) for lo in range(0, 2500, rows)]
        np.testing.assert_array_equal(values, np.concatenate([v for v, _ in small]))
        np.testing.assert_array_equal(variances, np.concatenate([s for _, s in small]))

    @pytest.mark.parametrize("k", [None, 16], ids=["global", "k=16"])
    def test_surface_is_one_engine_call(self, coal_ash_grid, k, monkeypatch):
        # KrigingSystem.predict_many is the one predict loop: a surface hands
        # it every target at once, with the mean
        model = fit(coal_ash_grid, "impk", FitConfig(neighborhood=k))
        calls, engine = [], KrigingSystem.predict_many
        monkeypatch.setattr(KrigingSystem, "predict_many", lambda self, targets, mean=None: (
            calls.append((len(targets), mean is not None)) or engine(self, targets, mean)))
        predict_grid(model, (60, 70))
        assert calls == [(60 * 70, True)]


class TestCrossValidate:
    """One fold pass for both methods equals a full refit per fold."""

    @staticmethod
    def assert_matches_refits(grid, config):
        reports = cross_validate(grid, ("mpk", "impk"), config)
        assert [r.method for r in reports] == ["mpk", "impk"]
        for report in reports:
            assert report.config == replace(config, method=report.method)
            want = refit_folds(grid, report.method, report.config)
            got = report_folds(report, grid)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if isinstance(w, str):
                    assert g == w
                    continue
                pred, _ = w
                assert g.predicted == pytest.approx(pred.value, rel=1e-9, abs=1e-12)
                assert g.error == g.predicted - g.observed
                assert g.variance == pytest.approx(pred.variance, rel=1e-9, abs=1e-12)
            assert report.unconverged == sum(1 for w in want if not isinstance(w, str)
                                             and not w[1])
        return reports

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_holey_table_matches_refits(self, holey_table, family, freeze):
        config = FitConfig(family=family, freeze_variogram=freeze)
        mpk, impk = self.assert_matches_refits(holey_table, config)
        # the methods share the residual model
        assert [r.variance for r in mpk.per_point] == [r.variance for r in impk.per_point]

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_thin_row_table_matches_refits(self, family, freeze):
        mpk, impk = self.assert_matches_refits(
            thin_row_table(), FitConfig(family=family, freeze_variogram=freeze))
        assert mpk.n_folds == impk.n_folds == 2
        assert len(mpk.skipped) == len(impk.skipped) == 5

    @pytest.mark.parametrize("drop", [7, None], ids=["singular-fold", "singular-full-set"])
    def test_spline_deletion_guard_falls_back(self, holey_table, drop):
        config = FitConfig(epsilon=singular_ridge(holey_table, drop))
        mpk, impk = self.assert_matches_refits(holey_table, config)
        assert mpk.n_folds == holey_table.n_present
        if drop is None:
            assert impk.n_folds == holey_table.n_present
        else:
            assert [s.reason.split(" (")[0] for s in impk.skipped] == [
                "singular-system: green-function system is numerically singular"]

    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_overflowing_fold_is_skipped_for_its_refits_reason(self, method):
        # every fold's polish overflows to NaN: cv skips fold 0 for what a
        # refit without its cell raises, not for the stacked variogram's error
        grid = overflowing_table()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError) as refit:
                fit(grid.drop_cell(0, 0), method)
            with pytest.raises(DataError) as cv:
                cross_validate(grid, (method,))
        assert str(cv.value).endswith(f"at (0, 0): {refit.value.category}: {refit.value}")

    @pytest.mark.parametrize("knobs", [{}, {"n_bins": 2}, {"max_lag": 0.5}],
                             ids=["default", "two-bins", "short-max-lag"])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    @pytest.mark.parametrize("survey", ["coal-ash", "holey"])
    def test_batched_variograms_match_one_by_one(self, coal_ash_grid, holey_table, survey,
                                                  family, knobs):
        # one pass estimates and fits every fold's variogram; each must be
        # what empirical_semivariogram and fit_variogram give its fold alone
        grid = coal_ash_grid if survey == "coal-ash" else holey_table
        config = FitConfig(family=family, **knobs)
        rows, cols = np.nonzero(grid.present_mask)
        dropped = np.arange(len(rows))
        folds = list(_folds(grid, dropped, config))
        emps = _semivariogram_stack(grid.to_scatter().coords,
                                    np.array([p.residuals[rows, cols] for p, _ in folds]),
                                    config.n_bins, config.max_lag, dropped)
        for (polish, fitted), emp in zip(folds, emps):
            scatter = residuals_as_scatter(polish, grid.lattice)
            try:
                want_emp = empirical_semivariogram(scatter, config.n_bins, config.max_lag)
                want = fit_variogram(want_emp, family)
            except DataError as exc:
                assert isinstance(fitted, DataError)
                assert f"{fitted.category}: {fitted}" == f"{exc.category}: {exc}"
                continue
            for name in ("lag_centers", "gamma", "pair_counts", "max_lag"):
                np.testing.assert_array_equal(getattr(emp, name), getattr(want_emp, name))
            assert fitted == want
        if survey == "coal-ash" and not knobs:
            # the folds that delete an end of the longest pair bin by their own max_lag
            assert len({emp.max_lag for emp in emps}) == 2

    def test_one_method_is_loocv(self, holey_table):
        both = cross_validate(holey_table, ("mpk", "impk"))
        assert [loocv(holey_table, "mpk"), loocv(holey_table, "impk")] == both

    def test_coal_ash_reports_unconverged_folds(self, coal_ash_grid):
        reports = cross_validate(coal_ash_grid, ("mpk", "impk"))
        assert [r.unconverged for r in reports] == [2, 2]
        assert [r.n_folds for r in reports] == [208, 208]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fold_systems_share_one_site_geometry(self, coal_ash_grid, family, monkeypatch):
        # each fold system starts from the pass's site distances less the
        # deleted node's row and column; it must be, bit for bit, the system
        # built from scratch on the same fold scatter
        built = []

        def record(*args, **kwargs):
            built.append((KrigingSystem(*args, **kwargs), kwargs.get("_distances") is not None))
            return built[-1][0]
        monkeypatch.setattr(predictor, "KrigingSystem", record)
        config = FitConfig(family=family)
        cross_validate(coal_ash_grid, ("mpk",), config)
        monkeypatch.undo()
        assert len(built) == coal_ash_grid.n_present
        assert all(shared for _, shared in built)
        rows, cols = np.nonzero(coal_ash_grid.present_mask)
        for i in (0, 103, len(rows) - 1):
            system = built[i][0]
            polish, variogram = next(_folds(coal_ash_grid, np.array([i]), config))
            scatter = residuals_as_scatter(polish, coal_ash_grid.lattice)
            assert (system.scatter, system.model) == (scatter, variogram)
            fresh = KrigingSystem(scatter, variogram)
            assert system.rcond == fresh.rcond
            np.testing.assert_array_equal(system._chol, fresh._chol)
            node = coal_ash_grid.lattice.node(rows[i], cols[i])
            xy = np.array([[node.x, node.y]])
            for got, want in zip(system.predict_many(xy), fresh.predict_many(xy)):
                np.testing.assert_array_equal(got, want)

    def test_one_site_geometry_per_pass(self, monkeypatch):
        # a grid's sites are checked for duplicates once, when first read,
        # and no fold re-checks them or measures their distances afresh; each
        # pass starts from a freshly loaded grid, whose site set is not built
        checks, square = [], []
        for module in (spatial_core, mean_surface):
            def counted(coords, tol, _closest=module._closest_pair_within):
                checks.append(len(coords))
                return _closest(coords, tol)
            monkeypatch.setattr(module, "_closest_pair_within", counted)
        for module in (kriging, mean_surface, predictor):
            def logged(a, b=None, *args, _distances=module.distances, **kwargs):
                if b is not None and len(a) == len(b) > 1:
                    square.append(len(a))
                return _distances(a, b, *args, **kwargs)
            monkeypatch.setattr(module, "distances", logged)

        def fresh_grid():
            grid = to_grid(load_observations_csv(DATA_DIR / "coal_ash.csv"))
            checks.clear()
            square.clear()
            return grid

        reports = cross_validate(fresh_grid(), ("mpk", "impk"))
        assert [r.n_folds for r in reports] == [208, 208]
        # the folds' sites, the impk spline's centres and the variogram pass's
        # coordinates are the one checked site set of the survey's 208 cells;
        # the square matrices are the sites' distances and the spline's
        assert checks == [208]
        assert square == [208] * 2
        # the frozen variogram's full-data fit reads the same site set
        cross_validate(fresh_grid(), ("mpk", "impk"), FitConfig(freeze_variogram=True))
        assert checks == [208]
        # an impk fit checks the sites once, and the spline its centres twice
        # (biharmonic_fit and BiharmonicModel)
        fit(fresh_grid(), "impk")
        assert checks == [208] * 3

    def test_msse_by_hand(self, holey_table):
        report = loocv(holey_table, "impk")
        folds = [w for w in refit_folds(holey_table, "impk", FitConfig(method="impk"))
                 if not isinstance(w, str)]
        observed = holey_table.cells[holey_table.present_mask]
        ratios = [(pred.value - obs) ** 2 / pred.variance
                  for (pred, _), obs in zip(folds, observed)]
        assert len(ratios) == report.n_folds == holey_table.n_present
        assert report.msse == pytest.approx(sum(ratios) / len(ratios), rel=1e-9)


def test_mean_error_order_on_an_additive_field():
    # The paper's central claim at its order: on f = sin 2x + cos 1.5y over
    # n x n lattices on [0, pi]^2, median polish recovers the table exactly,
    # so the mean surface's error at the cell centres is pure interpolation
    # error.  mpk's linear mean is O(h^2) everywhere; impk's spline is O(h^4)
    # in the interior (the middle half of each axis).  At the lattice edge the
    # spline's error falls only 3.41 and 3.61 times per halving (9 -> 17 ->
    # 33), the free-boundary behaviour of surface splines, so impk's advantage
    # shrinks there; those ratios are recorded, not asserted.
    errors = {"mpk": [], "impk": []}
    for n in (9, 17, 33):
        nodes = np.linspace(0.0, np.pi, n)
        grid = GridTable(GridLattice(nodes, nodes),
                         np.sin(2 * nodes)[None, :] + np.cos(1.5 * nodes)[:, None])
        centres = (nodes[:-1] + nodes[1:]) / 2
        points = np.column_stack([c.ravel() for c in np.meshgrid(centres, centres)])
        truth = np.sin(2 * points[:, 0]) + np.cos(1.5 * points[:, 1])
        inside = np.all(np.abs(points - np.pi / 2) <= np.pi / 4, axis=1)
        for method, where in (("mpk", slice(None)), ("impk", inside)):
            error = np.abs(fit(grid, method).mean_at(points) - truth)
            errors[method].append(error[where].max())
    for method, least in (("mpk", 1.9), ("impk", 3.5)):
        orders = np.log2(np.array(errors[method][:-1]) / errors[method][1:])
        assert np.all(orders >= least), (method, orders)
