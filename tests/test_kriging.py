import copy
import math
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import mp_ok_reference, random_scatter
from polishkrige import (
    DataError,
    EmpiricalVariogram,
    FitConfig,
    KrigingSystem,
    Location2D,
    ScatterSet,
    SingularSystemError,
    VariogramModel,
    covariance,
    empirical_semivariogram,
    fit,
    fit_variogram,
    ok_predict,
    ok_solve,
    predict_many,
    semivariance,
)
from polishkrige.kriging import _variogram_fit_stack
from polishkrige.numerics import RCOND_FLOOR, cholesky_checked


class TestEmpiricalVariogram:
    def brute_force(self, scatter, n_bins, max_lag):
        coords, values = scatter.coords, scatter.values
        n = scatter.n
        width = max_lag / n_bins
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins, dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                d = math.hypot(*(coords[i] - coords[j]))
                if d == 0 or d > max_lag:
                    continue
                b = min(int(math.ceil(d / width)) - 1, n_bins - 1)
                sums[b] += (values[i] - values[j]) ** 2
                counts[b] += 1
        keep = counts > 0
        centers = (np.flatnonzero(keep) + 0.5) * width
        return centers, sums[keep] / (2 * counts[keep]), counts[keep]

    def test_matches_direct_enumeration(self, rng):
        scatter = random_scatter(rng, 30)
        emp = empirical_semivariogram(scatter, n_bins=8, max_lag=6.0)
        centers, gamma, counts = self.brute_force(scatter, 8, 6.0)
        np.testing.assert_allclose(emp.lag_centers, centers, atol=1e-12)
        np.testing.assert_allclose(emp.gamma, gamma, rtol=1e-12)
        np.testing.assert_array_equal(emp.pair_counts, counts)

    def test_default_max_lag_is_half_the_diameter(self):
        scatter = ScatterSet([(0.0, 0.0), (10.0, 0.0), (0.0, 4.0)], [1.0, 2.0, 3.0])
        emp = empirical_semivariogram(scatter)
        assert emp.max_lag == pytest.approx(math.hypot(10.0, 4.0) / 2)

    def test_empty_bins_are_dropped(self):
        # two tight clusters far apart leave a hole in the middle
        scatter = ScatterSet(
            [(0.0, 0.0), (1.0, 0.0), (20.0, 0.0), (21.0, 0.0)], [1.0, 2.0, 3.0, 4.0]
        )
        emp = empirical_semivariogram(scatter, n_bins=10, max_lag=21.0)
        assert emp.n_bins < 10
        assert (emp.pair_counts > 0).all()

    def test_single_point_has_no_pairs(self):
        with pytest.raises(DataError):
            empirical_semivariogram(ScatterSet([(0.0, 0.0)], [1.0]))

    @pytest.mark.parametrize("max_lag", [np.inf, np.nan, 0.0, -1.0])
    def test_max_lag_must_be_finite_and_positive(self, rng, max_lag):
        with pytest.raises(DataError):
            empirical_semivariogram(random_scatter(rng, 10), max_lag=max_lag)

    def test_lattice_bins_do_not_depend_on_coordinate_scale(self, coal_ash_grid):
        # many coal-ash lattice pair distances sit exactly on a bin edge
        scatter = fit(coal_ash_grid, "mpk").residual_scatter
        base = empirical_semivariogram(scatter)
        for c in (1e-2, 0.1, 1e3):
            got = empirical_semivariogram(ScatterSet(c * scatter.coords, scatter.values))
            np.testing.assert_array_equal(got.pair_counts, base.pair_counts)
            np.testing.assert_array_equal(got.gamma, base.gamma)


    def test_large_scatter_holds_only_its_distances_and_bins(self):
        # 3,240 sites: the condensed pair distances (8 bytes a pair), their
        # bins (8) and an edge mask (1), plus scratch of a few blocks of
        # about 2**16 floats; a pair index array would add 16 bytes a pair
        ys, xs = np.mgrid[0:54, 0:60].astype(float)
        scatter = ScatterSet(np.column_stack([xs.ravel(), ys.ravel()]),
                             np.sin(xs.ravel() / 4) * np.cos(ys.ravel() / 5))
        pairs = scatter.n * (scatter.n - 1) // 2
        tracemalloc.start()
        try:
            empirical_semivariogram(scatter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * pairs + 16 * 2**16 * 8

    @pytest.mark.parametrize("edit,message", [
        (dict(gamma=[0.2, np.nan, 0.5, 0.6]), "need finite lags, finite gamma"),
        (dict(gamma=[0.2, np.inf, 0.5, 0.6]), "need finite lags, finite gamma"),
        (dict(gamma=[0.2, -0.1, 0.5, 0.6]), "need finite lags, finite gamma >= 0"),
        (dict(lag_centers=[0.5, 1.5, np.inf, 3.5]), "need finite lags"),
        (dict(pair_counts=[0, 0, 0, 0]), "pair counts >= 1"),
        (dict(pair_counts=[4, 0, 4, 4]), "pair counts >= 1"),
        (dict(max_lag=np.inf), "0 < max_lag < inf"),
        (dict(max_lag=np.nan), "0 < max_lag < inf"),
        (dict(max_lag=0.0), "0 < max_lag < inf"),
        (dict(gamma=[0.2, 0.4, 0.5]), "differ in length"),
        (dict(pair_counts=[4, 4, 4, 4, 4]), "differ in length"),
    ], ids=["nan-gamma", "inf-gamma", "negative-gamma", "inf-lag", "zero-counts",
            "one-zero-count", "inf-max-lag", "nan-max-lag", "zero-max-lag",
            "short-gamma", "long-counts"])
    def test_inconsistent_estimates_rejected(self, edit, message):
        # unchecked, NaN gamma or all-zero counts would fit the zero model,
        # and inf gamma or max_lag an infinite sill or range
        kwargs = dict(lag_centers=[0.5, 1.5, 2.5, 3.5], gamma=[0.2, 0.4, 0.5, 0.6],
                      pair_counts=[4, 4, 4, 4], max_lag=4.0) | edit
        with pytest.raises(DataError, match=message):
            fit_variogram(EmpiricalVariogram(**{k: np.asarray(v) for k, v in kwargs.items()}))

    def test_overflowing_values_are_a_data_error(self, rng):
        scatter = random_scatter(rng, 10)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="finite gamma"):
            empirical_semivariogram(ScatterSet(scatter.coords, 1e200 * scatter.values))


class TestVariogramModel:
    model = VariogramModel("spherical", 0.1, 0.9, 2.0)

    def test_hand_computed_spherical_point(self):
        # gamma(1) = 0.1 + 0.9 (1.5 u - 0.5 u^3) at u = 1/2 -> 0.71875
        assert semivariance(self.model, 1.0) == pytest.approx(0.71875, abs=1e-15)
        assert covariance(self.model, 1.0) == pytest.approx(0.28125, abs=1e-15)

    def test_zero_lag_is_exact(self):
        assert semivariance(self.model, 0.0) == 0.0
        assert covariance(self.model, 0.0) == self.model.sill == pytest.approx(1.0)

    def test_spherical_saturates_at_range(self):
        assert semivariance(self.model, 2.0) == pytest.approx(1.0)
        assert semivariance(self.model, 5.0) == pytest.approx(1.0)
        assert covariance(self.model, 5.0) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_form(self):
        m = VariogramModel("exponential", 0.2, 0.8, 3.0)
        h = 1.7
        want = 0.2 + 0.8 * (1 - math.exp(-3 * h / 3.0))
        assert semivariance(m, h) == pytest.approx(want, rel=1e-15)

    def test_gaussian_form(self):
        m = VariogramModel("gaussian", 0.0, 1.0, 2.0)
        h = 1.3
        want = 1 - math.exp(-3 * (h / 2.0) ** 2)
        assert semivariance(m, h) == pytest.approx(want, rel=1e-15)

    def test_practical_range_means_95_percent(self):
        for family in ("exponential", "gaussian"):
            m = VariogramModel(family, 0.0, 1.0, 4.0)
            assert semivariance(m, 4.0) == pytest.approx(0.95, abs=0.002)

    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_semivariance_and_covariance_share_one_formula(self, family):
        m = VariogramModel(family, 0.3, 1.7, 2.5)
        # spherical lags at and past the range included
        h = np.concatenate([np.linspace(1e-3, 2.5, 101), [3.0, 10.0, 1e3]])
        np.testing.assert_allclose(semivariance(m, h) + covariance(m, h), m.sill,
                                   rtol=0, atol=1e-15 * m.sill)
        assert semivariance(m, 0.0) == 0.0
        assert covariance(m, 0.0) == m.sill

    def test_array_evaluation(self):
        h = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        got = semivariance(self.model, h)
        want = [semivariance(self.model, v) for v in h]
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="cubic", nugget=0.0, partial_sill=1.0, range=1.0),
            dict(family="spherical", nugget=-0.1, partial_sill=1.0, range=1.0),
            dict(family="spherical", nugget=0.0, partial_sill=-1.0, range=1.0),
            dict(family="spherical", nugget=0.0, partial_sill=1.0, range=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(DataError):
            VariogramModel(**kwargs)

    def test_negative_lag_rejected(self):
        with pytest.raises(DataError):
            semivariance(self.model, -0.5)

    @pytest.mark.parametrize("name", ["nugget", "partial_sill", "range"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_parameters_rejected(self, name, value):
        # the message must name the fault: an infinite value is not negative
        with pytest.raises(DataError, match="must be finite"):
            replace(self.model, **{name: value})


class TestFitVariogram:
    def synth(self, model, lags, counts):
        gamma = np.array([semivariance(model, h) for h in lags])
        return EmpiricalVariogram(np.asarray(lags), gamma, np.asarray(counts), max_lag=max(lags) * 1.05)

    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_recovers_clean_parameters(self, family):
        truth = VariogramModel(family, 0.15, 0.85, 3.5)
        lags = np.linspace(0.3, 6.0, 12)
        emp = self.synth(truth, lags, np.full(12, 40))
        fitted = fit_variogram(emp, family=family)
        assert fitted.nugget == pytest.approx(truth.nugget, abs=2e-3)
        assert fitted.partial_sill == pytest.approx(truth.partial_sill, abs=2e-3)
        assert fitted.range == pytest.approx(truth.range, abs=2e-2)
        assert not fitted.degenerate

    def test_pure_nugget_data_fits_flat(self):
        # a flat curve has many equally-good parameterizations (zero partial
        # sill, or any range shorter than the first lag); what must hold is
        # the fitted curve itself
        lags = np.linspace(0.5, 5.0, 10)
        emp = EmpiricalVariogram(lags, np.full(10, 0.7), np.full(10, 25), max_lag=5.5)
        fitted = fit_variogram(emp)
        assert fitted.sill == pytest.approx(0.7, abs=5e-3)
        got = semivariance(fitted, lags)
        np.testing.assert_allclose(got, 0.7, atol=5e-3)

    def test_degenerate_all_zero_semivariance(self):
        lags = np.linspace(0.5, 5.0, 6)
        emp = EmpiricalVariogram(lags, np.zeros(6), np.full(6, 10), max_lag=5.5)
        fitted = fit_variogram(emp)
        assert fitted.degenerate
        assert fitted.sill == 0.0

    def test_too_few_bins_rejected(self):
        emp = EmpiricalVariogram(np.array([1.0, 2.0]), np.array([0.5, 0.8]), np.array([4, 4]), max_lag=3.0)
        with pytest.raises(DataError):
            fit_variogram(emp)

    @pytest.mark.parametrize("range_", [1.7, 3.5, 5.2])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_interior_range_to_the_tolerance(self, family, range_):
        # noise-free estimates put the profile minimum at the true range, which
        # the search must find to its absolute tolerance of 1e-10 max_lag
        truth = VariogramModel(family, 0.15, 0.85, range_)
        emp = self.synth(truth, np.linspace(0.3, 6.0, 12), np.full(12, 40))
        assert abs(fit_variogram(emp, family).range - range_) <= 1e-10 * emp.max_lag

    @pytest.mark.parametrize("level", [
        0.25, 0.7, 2.0, 123.4,
        pytest.param(1e-3, marks=pytest.mark.xfail(strict=True, reason=(
            "the relative tie rule cannot tie SSEs whose minimum is exactly 0: "
            "rounding alone then picks the range"))),
    ])
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_constant_estimates_take_the_largest_range(self, family, level):
        # every range fits a flat curve equally well, so the tie rule decides
        lags = np.linspace(0.5, 5.0, 10)
        emp = EmpiricalVariogram(lags, np.full(10, level), np.full(10, 25), max_lag=5.5)
        fitted = fit_variogram(emp, family)
        assert (fitted.nugget, fitted.partial_sill, fitted.range) == (level, 0.0, 5.5)

    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_stacked_fits_are_the_fits_alone(self, family):
        # brackets at an end of the range grid narrow faster than interior
        # ones; each variogram of a stack still stops on its own spacing
        counts = np.full(12, 40)
        emps = [EmpiricalVariogram(lags, semivariance(VariogramModel(family, 0.15, 0.85, r), lags),
                                   counts, max_lag=6.3)
                for lags in (np.linspace(0.01, 0.2, 12), np.linspace(0.3, 6.2, 12))
                for r in (0.03, 0.05, 0.08, 1.7, 6.25, 6.29)]
        emps.append(EmpiricalVariogram(emps[-1].lag_centers, np.full(12, 0.7), counts, max_lag=6.3))
        assert _variogram_fit_stack(emps, family) == [fit_variogram(e, family) for e in emps]

    def test_weighting_prefers_heavy_bins(self):
        # an outlier bin with negligible pair support should barely move the fit
        truth = VariogramModel("spherical", 0.1, 0.9, 3.0)
        lags = np.linspace(0.3, 6.0, 12)
        gamma = np.array([semivariance(truth, h) for h in lags])
        gamma[3] += 5.0
        heavy = EmpiricalVariogram(lags, gamma, np.array([200] * 3 + [1] + [200] * 8), max_lag=6.3)
        fitted = fit_variogram(heavy)
        assert fitted.range == pytest.approx(3.0, abs=0.25)
        assert fitted.nugget == pytest.approx(0.1, abs=0.05)


def profile_minimum(emp, family, n_ranges=4001):
    """Least weighted SSE over a dense range grid, each range with the exact
    (nugget, partial sill) optimum over the box [0, 2 max gamma]^2: the
    unconstrained least-squares point if feasible, else the best of the
    four faces (one parameter on a bound, the other solved and clipped)."""
    root_w = np.sqrt(emp.pair_counts.astype(np.float64))
    y = root_w * emp.gamma
    top = 2.0 * emp.gamma.max()
    ranges = np.linspace(1e-3 * emp.max_lag, emp.max_lag, n_ranges)
    shapes = np.array([semivariance(VariogramModel(family, 0.0, 1.0, r), emp.lag_centers) for r in ranges])
    x = np.stack([np.broadcast_to(root_w, shapes.shape), root_w * shapes], axis=-1)
    candidates = [np.linalg.pinv(x) @ y]
    for fixed in (0, 1):
        free = 1 - fixed
        for value in (0.0, top):
            c = np.full((n_ranges, 2), value)
            c[:, free] = (np.einsum("rb,rb->r", x[..., free], y - value * x[..., fixed])
                          / np.einsum("rb,rb->r", x[..., free], x[..., free]))
            candidates.append(c)
    best = np.inf
    for c in candidates:
        resid = y - np.einsum("rbk,rk->rb", x, np.clip(c, 0.0, top))
        best = min(best, float((resid * resid).sum(axis=1).min()))
    return best


class TestFitVariogramOnCoalAsh:
    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_scale_equivariance(self, coal_ash_grid, family):
        scatter = fit(coal_ash_grid, "mpk").residual_scatter
        emp = empirical_semivariogram(scatter)
        base = fit_variogram(emp, family)
        for b in (1e-3, 1e4):
            got = fit_variogram(empirical_semivariogram(ScatterSet(scatter.coords, b * scatter.values)), family)
            assert got.range == pytest.approx(base.range, rel=1e-7)
            assert got.nugget == pytest.approx(b * b * base.nugget, rel=1e-7)
            assert got.partial_sill == pytest.approx(b * b * base.partial_sill, rel=1e-7)
        for c in (1e-2, 1e3):
            scaled = EmpiricalVariogram(c * emp.lag_centers, emp.gamma, emp.pair_counts, c * emp.max_lag)
            got = fit_variogram(scaled, family)
            assert got.range == pytest.approx(c * base.range, rel=1e-7)
            assert got.nugget == pytest.approx(base.nugget, rel=1e-7)
            assert got.partial_sill == pytest.approx(base.partial_sill, rel=1e-7)

    # the full survey with upper bounds on its SSE, and the LOOCV folds
    # (deleted row, column) where a Nelder-Mead refinement of a coarse grid
    # stops 3-6% above the optimal gaussian SSE
    @pytest.mark.parametrize(
        "family,deleted,sse_bound",
        [
            ("spherical", None, 6370.073300),
            ("exponential", None, 8249.700822),
            ("gaussian", None, 6194.856188),
            ("gaussian", (3, 13), None),
            ("gaussian", (4, 3), None),
            ("gaussian", (5, 1), None),
            ("gaussian", (13, 5), None),
        ],
    )
    def test_reaches_profile_minimum(self, coal_ash_grid, family, deleted, sse_bound):
        grid = coal_ash_grid if deleted is None else coal_ash_grid.drop_cell(*deleted)
        emp = empirical_semivariogram(fit(grid, "mpk", FitConfig(family=family)).residual_scatter)
        resid = emp.gamma - semivariance(fit_variogram(emp, family), emp.lag_centers)
        sse = float(np.dot(emp.pair_counts, resid * resid))
        assert sse <= profile_minimum(emp, family) * (1 + 1e-9)
        if sse_bound is not None:
            assert sse <= sse_bound


def augmented_reference(scatter, model, targets):
    """Ordinary kriging over all of scatter by one dense solve of the system
    [[C, 1], [1^T, 0]]: weights (n, m), multipliers (m,), values and
    variances (m,) at (m, 2) targets."""
    n = scatter.n
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = covariance(model, cdist(scatter.coords, scatter.coords))
    a[n, n] = 0.0
    b = np.ones((n + 1, len(targets)))
    b[:n] = covariance(model, cdist(scatter.coords, targets))
    sol = np.linalg.solve(a, b)
    lam, mu = sol[:n], sol[n]
    values = lam.T @ scatter.values
    variances = model.sill - np.einsum("nm,nm->m", lam, b[:n]) - mu
    return lam, mu, values, variances


class TestOrdinaryKriging:
    def params(self, rng):
        family = ("spherical", "exponential", "gaussian")[rng.integers(3)]
        nugget = float(rng.uniform(0.0, 0.5))
        psill = float(rng.uniform(0.2, 2.0))
        rng_ = float(rng.uniform(1.0, 8.0))
        return VariogramModel(family, nugget, psill, rng_)

    def test_weights_sum_to_one(self, rng):
        for _ in range(10):
            scatter = random_scatter(rng, int(rng.integers(2, 9)))
            model = self.params(rng)
            target = Location2D(*rng.uniform(0, 10, size=2))
            w = ok_solve(scatter, model, target)
            assert abs(w.weights.sum() - 1.0) <= 1e-10

    def test_against_extended_precision_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            scatter = random_scatter(rng, n)
            model = self.params(rng)
            target = Location2D(*rng.uniform(0, 10, size=2))
            w = ok_solve(scatter, model, target)
            pred = ok_predict(scatter, model, target)
            lam, mu, value, var = mp_ok_reference(
                scatter.coords, scatter.values, model.family, model.nugget,
                model.partial_sill, model.range, (target.x, target.y),
            )
            np.testing.assert_allclose(w.weights, [float(v) for v in lam], rtol=1e-9, atol=1e-12)
            assert w.lagrange == pytest.approx(float(mu), rel=1e-9, abs=1e-12)
            assert pred.value == pytest.approx(float(value), rel=1e-9, abs=1e-12)
            assert pred.variance == pytest.approx(float(var), rel=1e-7, abs=1e-10)

    def test_exact_at_observed_site(self, rng):
        scatter = random_scatter(rng, 6)
        model = VariogramModel("spherical", 0.0, 1.0, 3.0)
        i = 4
        target = Location2D(*scatter.coords[i])
        pred = ok_predict(scatter, model, target)
        assert pred.value == pytest.approx(scatter.values[i], rel=1e-9)
        assert pred.variance == pytest.approx(0.0, abs=1e-9)

    def test_system_reuse_matches_one_shot(self, rng):
        scatter = random_scatter(rng, 12)
        model = self.params(rng)
        system = KrigingSystem(scatter, model)
        targets = rng.uniform(0, 10, size=(5, 2))
        values, variances = system.predict_many(targets)
        for t, v, s2 in zip(targets, values, variances):
            pred = ok_predict(scatter, model, Location2D(*t))
            assert v == pytest.approx(pred.value, rel=1e-12, abs=1e-12)
            assert s2 == pytest.approx(pred.variance, rel=1e-12, abs=1e-12)

    def test_neighborhood_limits_nonzero_weights(self, rng):
        scatter = random_scatter(rng, 15)
        model = self.params(rng)
        target = Location2D(5.0, 5.0)
        w = ok_solve(scatter, model, target, neighborhood=6)
        assert np.count_nonzero(w.weights) <= 6
        assert abs(w.weights.sum() - 1.0) <= 1e-10
        # the kept sites are the nearest ones
        d = np.hypot(scatter.coords[:, 0] - 5.0, scatter.coords[:, 1] - 5.0)
        kept = np.flatnonzero(w.weights != 0.0)
        assert set(kept) <= set(np.argsort(d, kind="stable")[:6])

    def test_full_neighborhood_equals_global(self, rng):
        scatter = random_scatter(rng, 9)
        model = self.params(rng)
        target = Location2D(3.0, 7.0)
        full = ok_solve(scatter, model, target)
        capped = ok_solve(scatter, model, target, neighborhood=9)
        np.testing.assert_allclose(capped.weights, full.weights, atol=1e-12)

    def test_degenerate_covariance_is_singular(self, rng):
        scatter = random_scatter(rng, 5)
        # a gaussian variogram with a huge range makes C nearly constant
        model = VariogramModel("gaussian", 0.0, 1.0, 1e8)
        with pytest.raises(SingularSystemError) as info:
            ok_solve(scatter, model, Location2D(1.0, 1.0))
        assert info.value.condition is not None

    def test_degenerate_neighbourhood_is_singular(self, rng):
        scatter = random_scatter(rng, 12)
        model = VariogramModel("gaussian", 0.0, 1.0, 1e8)
        system = KrigingSystem(scatter, model, neighborhood=5)
        with pytest.raises(SingularSystemError) as info:
            system.predict_many([(1.0, 1.0), (5.0, 5.0)])
        assert info.value.condition is not None

    def test_zero_sill_needs_zero_values(self, rng):
        scatter = random_scatter(rng, 6)
        model = VariogramModel("spherical", 0.0, 0.0, 5.0)
        assert model.degenerate
        with pytest.raises(SingularSystemError):
            ok_predict(scatter, model, Location2D(1.0, 1.0))
        flat = ScatterSet(scatter.coords, np.zeros(6))
        pred = ok_predict(flat, model, Location2D(1.0, 1.0))
        assert (pred.value, pred.variance) == (0.0, 0.0)

    @pytest.mark.parametrize("k", [None, 16], ids=["global", "k=16"])
    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_no_targets_give_empty_results(self, coal_ash_grid, method, k):
        model = fit(coal_ash_grid, method, FitConfig(neighborhood=k))
        for values, variances in (model._system.predict_many(np.empty((0, 2))),
                                  predict_many(model, np.empty((0, 2)))):
            assert values.shape == variances.shape == (0,)

    def test_variance_never_negative(self, rng):
        scatter = random_scatter(rng, 10)
        model = self.params(rng)
        system = KrigingSystem(scatter, model)
        targets = np.vstack([scatter.coords, rng.uniform(0, 10, size=(20, 2))])
        _, variances = system.predict_many(targets)
        assert (variances >= 0).all()


class TestDualKriging:
    """The Cholesky dual-kriging global path against the augmented system."""

    @pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
    def test_matches_augmented_solve_on_coal_ash(self, coal_ash_grid, family):
        model = fit(coal_ash_grid, "impk", FitConfig(family=family))
        scatter, variogram = model.residual_scatter, model.variogram
        lat = coal_ash_grid.lattice
        # a surface lattice whose corners and some nodes are observed sites
        gx, gy = np.meshgrid(np.linspace(lat.x_coords[0], lat.x_coords[-1], 31),
                             np.linspace(lat.y_coords[0], lat.y_coords[-1], 23))
        targets = np.column_stack([gx.ravel(), gy.ravel()])
        assert (cdist(targets, scatter.coords) == 0).any()
        lam, mu, want_values, want_variances = augmented_reference(scatter, variogram, targets)
        system = KrigingSystem(scatter, variogram)
        n = scatter.n
        # one call of 713 >= n targets multiplies by L^-1; calls of 100 < n solve
        chunks = [system.predict_many(targets[lo:lo + 100]) for lo in range(0, len(targets), 100)]
        for values, variances in [system.predict_many(targets),
                                  [np.concatenate(part) for part in zip(*chunks)]]:
            np.testing.assert_allclose(values, want_values, rtol=1e-10,
                                       atol=1e-10 * np.abs(scatter.values).max())
            np.testing.assert_allclose(variances, np.maximum(want_variances, 0.0), rtol=1e-10,
                                       atol=1e-10 * variogram.sill)
        below, at = system.predict_many(targets[:n - 1]), system.predict_many(targets[:n])
        np.testing.assert_allclose(at[1][:n - 1], below[1], rtol=0, atol=1e-12 * variogram.sill)
        for j in (0, 17, len(targets) - 1):
            w = ok_solve(scatter, variogram, Location2D(*targets[j]))
            np.testing.assert_allclose(w.weights, lam[:, j], rtol=1e-9, atol=1e-12)
            assert w.lagrange == pytest.approx(mu[j], rel=1e-9, abs=1e-12)

    @staticmethod
    def near_floor(range_):
        """A zero-nugget gaussian of the given range on a 7 x 8 unit lattice,
        and 132 targets over and just beyond it: the range sweep 2 to 6 takes
        rcond from 6.9e-3 to 1.1e-12, two decades above RCOND_FLOOR."""
        gx, gy = np.meshgrid(np.arange(8.0), np.arange(7.0))
        values = np.random.default_rng(11).normal(size=56)
        scatter = ScatterSet(np.column_stack([gx.ravel(), gy.ravel()]), values)
        tx, ty = np.meshgrid(np.linspace(-0.5, 7.5, 12), np.linspace(-0.5, 6.5, 11))
        system = KrigingSystem(scatter, VariogramModel("gaussian", 0.0, 1.0, range_))
        return system, np.column_stack([tx.ravel(), ty.ravel()])

    @pytest.mark.parametrize("range_", [2.0, 3.0, 4.0, 5.0, 6.0])
    def test_dense_and_small_calls_agree_near_the_floor(self, range_):
        # one call of 132 >= n targets multiplies by L^-1, which is accurate
        # to about eps kappa(L) = eps / sqrt(rcond); calls of n - 1 solve
        system, targets = self.near_floor(range_)
        n = system.scatter.n
        _, dense = system.predict_many(targets)
        small = np.concatenate([system.predict_many(targets[lo:lo + n - 1])[1]
                                for lo in range(0, len(targets), n - 1)])
        bound = 10 * np.finfo(float).eps / system.rcond * system.model.sill
        np.testing.assert_allclose(dense, small, rtol=0, atol=bound)

    def test_worst_range_against_the_oracle(self):
        system, targets = self.near_floor(6.0)
        assert system.rcond < 1e-11
        picked = [0, 61]  # a corner beyond the lattice and a point inside it
        dense = [out[picked] for out in system.predict_many(targets)]
        small = system.predict_many(targets[picked])
        scatter, eps = system.scatter, np.finfo(float).eps
        for j, target in enumerate(targets[picked]):
            _, _, value, variance = mp_ok_reference(scatter.coords, scatter.values,
                                                    "gaussian", 0.0, 1.0, 6.0, target)
            for values, variances in (dense, small):
                assert values[j] == pytest.approx(
                    float(value), abs=10 * eps / system.rcond * np.abs(scatter.values).max())
                assert variances[j] == pytest.approx(
                    max(float(variance), 0.0), abs=10 * eps / system.rcond)

    def test_zero_pivot_of_the_inverse_factor_is_singular(self, rng):
        system = copy.copy(KrigingSystem(random_scatter(rng, 6),
                                         VariogramModel("spherical", 0.1, 1.0, 4.0)))
        system._chol = system._chol.copy(order="F")
        system._chol[2, 2] = 0.0
        with pytest.raises(SingularSystemError) as info:
            system.predict_many(rng.uniform(0, 10, size=(6, 2)))
        assert info.value.condition == 0.0

    def test_not_positive_definite_covariance_is_singular(self, rng):
        scatter = random_scatter(rng, 12)
        with pytest.raises(SingularSystemError) as info:
            KrigingSystem(scatter, VariogramModel("gaussian", 0.0, 1.0, 1e8))
        assert info.value.condition == 0.0
        assert "not positive definite" in str(info.value)

    def test_global_rcond_is_that_of_the_covariance(self, rng):
        scatter = random_scatter(rng, 9)
        h = cdist(scatter.coords, scatter.coords)
        unit = covariance(VariogramModel("exponential", 0.2 / 1.7, 1.5 / 1.7, 4.0), h)
        rcond = KrigingSystem(scatter, VariogramModel("exponential", 0.2, 1.5, 4.0)).rcond
        assert isinstance(rcond, float)
        # LAPACK estimates the exact 1-norm value from above, within a small factor
        exact = 1.0 / np.linalg.cond(unit, 1)
        assert exact * (1 - 1e-9) <= rcond <= 10 * exact

    @pytest.mark.parametrize("matrix, condition", [
        ([[1.0, 2.0], [2.0, 1.0]], 0.0),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], None),
    ])
    def test_cholesky_check(self, matrix, condition):
        with pytest.raises(SingularSystemError) as info:
            cholesky_checked(np.array(matrix), "test matrix")
        if condition is None:
            assert 0.0 < info.value.condition < 1e-14
        else:
            assert info.value.condition == condition


class TestRcondFloor:
    """Just below RCOND_FLOOR a kriging system raises SingularSystemError,
    never a number; just above it, it predicts finite values.  The range of
    a zero-nugget gaussian of sill 1 takes the system's rcond across the
    floor, within a factor 3 either side: on a 7 x 8 unit lattice for the
    global path, and on a 5 x 5 one for k = 16, where the target (1.5, 1.5)
    selects the 4 x 4 block of nodes at the origin."""

    @staticmethod
    def lattice(p, q):
        gx, gy = np.meshgrid(np.arange(float(q)), np.arange(float(p)))
        return ScatterSet(np.column_stack([gx.ravel(), gy.ravel()]),
                          np.random.default_rng(11).normal(size=p * q))

    @pytest.mark.parametrize("neighborhood, range_, above", [
        (None, 7.0, True), (None, 7.3, False), (16, 21.5, True), (16, 23.5, False),
    ], ids=["global-above", "global-below", "k16-above", "k16-below"])
    def test_singular_below_and_finite_above(self, neighborhood, range_, above):
        scatter = self.lattice(7, 8) if neighborhood is None else self.lattice(5, 5)
        model = VariogramModel("gaussian", 0.0, 1.0, range_)
        targets = np.array([[1.5, 1.5]])
        if not above:
            with pytest.raises(SingularSystemError) as info:
                KrigingSystem(scatter, model, neighborhood).predict_many(targets)
            assert RCOND_FLOOR / 3 < info.value.condition < RCOND_FLOOR
            return
        system = KrigingSystem(scatter, model, neighborhood)
        if neighborhood is None:
            rcond = system.rcond
        else:
            block = scatter.coords[(scatter.coords < 4).all(axis=1)]
            rcond = 1 / np.linalg.cond(covariance(model, cdist(block, block)), 1)
        assert RCOND_FLOOR <= rcond < 3 * RCOND_FLOOR
        assert np.isfinite(system.predict_many(targets)).all()


class TestNearestSelection:
    """KD-tree k-nearest selection equals the stable-argsort reference."""

    @staticmethod
    def reference(scatter, targets, k):
        """The first k of a stable argsort of the distances, with those within
        1e-9 relative of the k-th set equal to it."""
        d = np.hypot(scatter.coords[:, 0] - targets[:, :1], scatter.coords[:, 1] - targets[:, 1:])
        kth = np.sort(d, axis=1)[:, k - 1:k]
        d = np.where(np.abs(d - kth) <= 1e-9 * kth, kth, d)
        return np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)

    @staticmethod
    def lattice(rng, shift=0.0, scale=1.0):
        """A 9 x 11 unit lattice less about a tenth of its nodes, and targets
        at its nodes, cell centres and edge midpoints: exact distance ties."""
        ys, xs = np.mgrid[0:9, 0:11].astype(np.float64)
        keep = rng.random(xs.size) > 0.1
        scatter = ScatterSet(np.column_stack([xs.ravel(), ys.ravel()])[keep] * scale + shift,
                             rng.normal(size=int(keep.sum())))
        ty, tx = np.mgrid[-1:9.5:0.5, -1:11.5:0.5]
        return scatter, np.column_stack([tx.ravel(), ty.ravel()]) * scale + shift

    def assert_matches(self, scatter, targets, k):
        system = KrigingSystem(scatter, VariogramModel("exponential", 0.1, 1.0, 5.0),
                               neighborhood=k)
        np.testing.assert_array_equal(system._nearest(targets),
                                      self.reference(scatter, targets, k))

    @pytest.mark.parametrize("k", [1, 4, 5, 16, 37])
    def test_matches_argsort_with_exact_ties(self, rng, k):
        scatter, targets = self.lattice(rng)
        d = np.hypot(scatter.coords[:, 0] - targets[:, :1], scatter.coords[:, 1] - targets[:, 1:])
        kth = np.sort(d, axis=1)[:, k - 1:k]
        assert ((d <= kth).sum(axis=1) > k).any()
        self.assert_matches(scatter, targets, k)

    def test_equidistant_ring_doubles_the_candidates_up_to_all_points(self):
        # the 36 integer points at distance exactly 65 from the origin, and four
        # farther sites: every candidate set short of all 40 points is all ties
        ring = [(x, y) for x in range(-65, 66) for y in range(-65, 66) if x * x + y * y == 65**2]
        coords = np.array(ring + [(100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0)])
        assert len(ring) == 36
        scatter = ScatterSet(coords, np.arange(len(coords), dtype=np.float64))
        targets = np.array([[0.0, 0.0], [65.0, 1.0], [0.5, 0.0]])
        k = 4
        system = KrigingSystem(scatter, VariogramModel("exponential", 0.1, 1.0, 50.0),
                               neighborhood=k)
        tree, candidates = system._tree, []

        class Spy:
            def query(self, t, c):
                candidates.append((len(t), c))
                return tree.query(t, c)

        system._tree = Spy()
        got = system._nearest(targets)
        np.testing.assert_array_equal(got, self.reference(scatter, targets, k))
        # the origin is retried at 16 and 32 candidates, then takes all 40 points
        assert candidates == [(3, 8), (1, 16), (1, 32)]
        assert got[0].tolist() == [0, 1, 2, 3]

    def test_all_but_one_point(self, rng):
        scatter, targets = self.lattice(rng)
        self.assert_matches(scatter, targets, scatter.n - 1)

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_targets_on_sites_and_far_outside(self, rng, k):
        scatter, _ = self.lattice(rng)
        # at 1e200 the tree's squared distances overflow to inf and bound nothing
        far = np.array([[-1e4, 3.0], [5.0, 1e4], [1e6, -1e6], [-40.0, -40.0], [1e200, -3.0]])
        self.assert_matches(scatter, np.vstack([scatter.coords, far]), k)

    @pytest.mark.parametrize("shift,scale", [(0.0, 1e-6), (0.0, 1e6), (1e6, 1.0)])
    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_scaled_and_translated_coordinates(self, rng, shift, scale, k):
        # the moved lattice rounds its exact ties apart, but they stay within
        # the tie band, so it selects what the unit lattice selects
        unit = self.lattice(copy.deepcopy(rng))
        scatter, targets = self.lattice(rng, shift, scale)
        self.assert_matches(scatter, targets, k)
        np.testing.assert_array_equal(self.reference(scatter, targets, k),
                                      self.reference(*unit, k))

    @pytest.mark.parametrize("k", [None, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_is_a_data_error(self, rng, k, bad):
        scatter, _ = self.lattice(rng)
        system = KrigingSystem(scatter, VariogramModel("exponential", 0.1, 1.0, 5.0),
                               neighborhood=k)
        with pytest.raises(DataError):
            system.predict_many([[1.0, 2.0], [bad, 3.0]])

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("targets", [[[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0], [[[1.0, 2.0]]]],
                             ids=["1x3", "3", "1x1x2"])
    def test_wrong_shaped_targets_are_a_data_error(self, rng, k, targets):
        scatter, _ = self.lattice(rng)
        system = KrigingSystem(scatter, VariogramModel("exponential", 0.1, 1.0, 5.0),
                               neighborhood=k)
        with pytest.raises(DataError, match="targets must be"):
            system.predict_many(np.array(targets))

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_ok_solve_weights_on_the_reference_neighbourhood(self, rng, k):
        scatter, targets = self.lattice(rng)
        targets = targets[::7]
        model = VariogramModel("spherical", 0.1, 1.0, 5.0)
        values, variances = KrigingSystem(scatter, model, neighborhood=k).predict_many(targets)
        for j, idx in enumerate(self.reference(scatter, targets, k)):
            hood = ScatterSet(scatter.coords[idx], scatter.values[idx])
            lam, mu, want_value, want_variance = augmented_reference(hood, model, targets[j:j + 1])
            w = ok_solve(scatter, model, Location2D(*targets[j]), neighborhood=k)
            assert not np.delete(w.weights, idx).any()
            np.testing.assert_allclose(w.weights[idx], lam[:, 0], rtol=1e-10, atol=1e-12)
            assert w.lagrange == pytest.approx(mu[0], rel=1e-9, abs=1e-12)
            assert values[j] == pytest.approx(want_value[0], rel=1e-10)
            assert variances[j] == pytest.approx(want_variance[0], rel=1e-10)

    def test_ill_conditioned_neighbourhood_against_the_oracle(self, rng):
        # a nugget-free gaussian with a long range: each 16-point C has rcond
        # below 1e-9, where an explicit inverse alone misses the variance
        scatter, targets = self.lattice(rng)
        targets = targets[::41]
        model = VariogramModel("gaussian", 0.0, 1.0, 15.0)
        values, variances = KrigingSystem(scatter, model, neighborhood=16).predict_many(targets)
        for j, idx in enumerate(self.reference(scatter, targets, 16)):
            assert np.linalg.cond(covariance(model, cdist(scatter.coords[idx],
                                                          scatter.coords[idx])), 1) > 1e9
            _, _, value, variance = mp_ok_reference(scatter.coords[idx], scatter.values[idx],
                                                    "gaussian", 0.0, 1.0, 15.0, targets[j])
            assert values[j] == pytest.approx(float(value), abs=1e-4)
            assert variances[j] == pytest.approx(max(float(variance), 0.0), abs=1e-12)

    @pytest.mark.parametrize("range_", [3.0, 6.0, 10.0, 14.0, 18.0, 20.0, 21.5])
    def test_k16_sweep_towards_the_floor_against_the_oracle(self, range_):
        # the 4 x 4 block of a 5 x 5 unit lattice is every target's 16
        # nearest; a zero-nugget gaussian takes its rcond from 2.9e-4
        # (range 3) to 1.9e-14 (range 21.5).  The refined weights stay within
        # eps / rcond max|value| of the 50-digit solve, and the variance
        # within eps / rcond; the explicit inverse alone exceeds the first
        ys, xs = np.mgrid[0:5, 0:5].astype(np.float64)
        coords = np.column_stack([xs.ravel(), ys.ravel()])
        rng = np.random.default_rng(7)
        scatter = ScatterSet(coords, rng.normal(size=25))
        targets = 1.5 + rng.uniform(-0.12, 0.12, size=(6, 2))
        block = np.flatnonzero((coords < 3.5).all(axis=1))
        model = VariogramModel("gaussian", 0.0, 1.0, range_)
        system = KrigingSystem(scatter, model, neighborhood=16)
        np.testing.assert_array_equal(system._nearest(targets), np.tile(block, (6, 1)))
        cov = mp.matrix(covariance(model, cdist(coords[block], coords[block])).tolist())
        rcond = float(1 / (mp.mnorm(cov, 1) * mp.mnorm(cov**-1, 1)))
        assert RCOND_FLOOR < rcond < 3e-4
        bound = np.finfo(float).eps / rcond
        values, variances = system.predict_many(targets)
        for j, target in enumerate(targets):
            _, _, value, variance = mp_ok_reference(coords[block], scatter.values[block],
                                                    "gaussian", 0.0, 1.0, range_, target)
            assert values[j] == pytest.approx(
                float(value), rel=0, abs=bound * np.abs(scatter.values[block]).max())
            assert variances[j] == pytest.approx(max(float(variance), 0.0), rel=0, abs=bound)
