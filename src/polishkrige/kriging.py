"""Semivariogram estimation and ordinary kriging on a 2-D scatter.

The empirical semivariogram is the method-of-moments estimator on distance
bins; parametric models (spherical, exponential, gaussian) are fitted by
pair-count-weighted least squares.  Ordinary kriging weights sum to one
(a Lagrange multiplier enforces it), so predictions are unbiased for an
unknown constant mean.

KrigingSystem is the one engine behind ok_solve, ok_predict and the surface
predictors, on the sill-scaled covariance C, which it solves alone instead of
the system bordered by ones (Cressie 1993, ch. 3): with u = C^-1 1, the
weights at a target of covariances c are C^-1 c + k u and the multiplier is
-k, k = (1 - u . c) / (1 . u).  Over all points this is dual kriging: one
Cholesky factor C = L L^T gives the generalized-least-squares mean m and the
dual weights alpha = C^-1 (z - m), so a value is m + alpha . c in O(n) per
target and a variance needs one triangular solve L^-1 c.  Over the k nearest
points (a KD-tree finds them), one inverse of each target's k x k C gives its
weights, refined once against C, and its exact 1-norm condition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import DataError, PolishKrigeError, SingularSystemError
from .numerics import checked_rcond, cholesky_checked, row_blocks
from .spatial_core import _frozen

FAMILIES = ("spherical", "exponential", "gaussian")


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned method-of-moments semivariance estimates.

    Bins with no pairs are dropped, so the three arrays have equal length
    with pair_counts >= 1 everywhere; max_lag is the binning cutoff.
    """

    lag_centers: np.ndarray
    gamma: np.ndarray
    pair_counts: np.ndarray
    max_lag: float

    def __post_init__(self):
        object.__setattr__(self, "lag_centers", _frozen(self.lag_centers))
        object.__setattr__(self, "gamma", _frozen(self.gamma))
        counts = np.ascontiguousarray(self.pair_counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "pair_counts", counts)

    @property
    def n_bins(self):
        return len(self.lag_centers)


@dataclass(frozen=True)
class VariogramModel:
    """A stationary isotropic semivariogram with sill nugget + partial_sill.

    range is the practical range for the exponential and gaussian families
    (95% of the sill is reached at h = range) and the exact range for the
    spherical.  A zero sill marks the degenerate fit returned for data with
    no variability; it is a warning, not an error.
    """

    family: str
    nugget: float
    partial_sill: float
    range: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown variogram family {self.family!r}")
        if not (self.nugget >= 0 and self.partial_sill >= 0):
            raise DataError("nugget and partial sill must be nonnegative")
        if not self.range > 0:
            raise DataError("variogram range must be positive")

    @property
    def sill(self):
        return self.nugget + self.partial_sill

    @property
    def degenerate(self):
        return self.sill == 0


@dataclass(frozen=True)
class KrigingWeights:
    weights: np.ndarray
    lagrange: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))


@dataclass(frozen=True)
class KrigingPrediction:
    value: float
    variance: float


def empirical_semivariogram(scatter, n_bins=15, max_lag=None):
    """Bin squared value differences by pair distance.

    gamma[b] = sum of (z_i - z_j)^2 over pairs in bin b, divided by twice the
    pair count.  Bins are equal-width over (0, max_lag]; centers are bin
    midpoints; empty bins are dropped.

    Args:
        scatter: ScatterSet with n >= 2.
        n_bins: number of distance bins (>= 1).
        max_lag: binning cutoff; default is half the largest pair distance.

    Raises:
        DataError: fewer than 2 points, bad parameters, or no pair within
            max_lag.
    """
    if scatter.n < 2:
        raise DataError("variogram needs at least 2 observations")
    if n_bins < 1:
        raise DataError("n_bins must be at least 1")

    d = pdist(scatter.coords)
    if max_lag is None:
        max_lag = 0.5 * float(d.max())
    if not 0 < max_lag < np.inf:
        raise DataError("max_lag must be finite and positive")

    width = max_lag / n_bins
    # a pair within 1e-9 bin widths of an edge, max_lag included, goes to the
    # lower bin, so lattice pairs on an edge keep their bin when coordinates
    # scale; the distances become bin positions in place, so that one array
    # over all pairs is held at a time
    keep = d > 0
    d /= width
    np.round(d, 9, out=d)
    keep &= d <= n_bins
    if not keep.any():
        raise DataError(f"no point pair within max_lag {max_lag:g}")
    d = d[keep]
    idx = np.ceil(d, out=d).astype(int)
    del d
    idx -= 1
    np.clip(idx, 0, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    sq = pdist(scatter.values[:, None], metric="sqeuclidean")[keep]
    sums = np.bincount(idx, weights=sq, minlength=n_bins)

    retained = counts > 0
    centers = (np.flatnonzero(retained) + 0.5) * width
    gamma = sums[retained] / (2.0 * counts[retained])
    return EmpiricalVariogram(centers, gamma, counts[retained], float(max_lag))


def semivariance(model, h):
    """gamma(h) = sill - covariance(model, h) for a fitted model; gamma(0) = 0,
    limit h->0+ = nugget."""
    return model.sill - covariance(model, h)


def covariance(model, h):
    """C(h) = sill - gamma(h); C(0) is the full sill including the nugget."""
    h = np.array(h, dtype=np.float64)
    if np.any(h < 0):
        raise DataError("negative lag distance")
    c = _covariance_over(model, h)
    return c if c.ndim else float(c)


def _correlation_over(family, u):
    """The family's correlation rho(u), the semivariance shape being 1 - rho,
    at lags u = h / range >= 0, overwriting u, with temporaries only of one
    block of rows (numerics.row_blocks) for the spherical family."""
    if family == "spherical":
        # rho = 1 - 1.5 u + 0.5 u^3 = (1 - u)^2 (1 + u / 2), exactly 0 from u = 1 on
        np.minimum(u, 1.0, out=u)
        for block in row_blocks(u):
            tail = np.subtract(1.0, block)
            tail *= tail
            block *= 0.5
            block += 1.0
            block *= tail
    else:
        if family == "gaussian":
            np.square(u, out=u)
        u *= -3.0
        np.exp(u, out=u)
    return u


def _covariance_over(model, h):
    """covariance(model, h) for a float array of distances h >= 0 that this
    module computed itself: h is overwritten and returned.  Away from 0 the
    covariance is psill * rho(h / range); a distance of exactly 0 gets the
    full sill."""
    zero = h == 0 if model.nugget else None
    np.divide(h, model.range, out=h)
    _correlation_over(model.family, h)
    h *= model.partial_sill
    if zero is not None:
        h[zero] = model.sill
    return h


def fit_variogram(emp, family="spherical"):
    """Fit a variogram model to binned estimates by weighted least squares.

    The objective is sum over bins of pair_count * (gamma_hat - gamma_model)^2
    over nugget and partial sill in [0, 2 max gamma_hat] and range in
    [1e-3 max_lag, max_lag].  At a fixed range it is a convex quadratic in
    (nugget, partial sill), minimized exactly over that box; the profile over
    range is searched on a 64-point grid, then by bounded Brent around the
    best grid point to a tolerance relative to max_lag.  SSEs within 1e-9
    relative count as tied, so that rounding on a flat profile does not pick
    the range: the largest tied grid range wins, and Brent's point must beat
    it by more than that.  The fit is deterministic and equivariant under
    value and coordinate scaling.

    All-zero estimates short-circuit to the degenerate zero model (zero
    sill); any other fit has a positive sill.  Raises DataError for an
    unknown family or fewer than 3 occupied bins.
    """
    # imported here: loading a model and predicting never fit a variogram
    from scipy.optimize import minimize_scalar

    if family not in FAMILIES:
        raise DataError(f"unknown variogram family {family!r}")
    if np.all(emp.gamma == 0):
        return VariogramModel(family, 0.0, 0.0, emp.max_lag)
    if emp.n_bins < 3:
        raise DataError(f"variogram fit needs at least 3 occupied bins, got {emp.n_bins}")

    g = emp.gamma
    w = emp.pair_counts.astype(np.float64)
    top = 2.0 * float(g.max())
    m_w = float(w.sum())
    m_g = float(np.dot(w, g))

    def profile(ranges):
        """Least weighted SSE with its (nugget, psill) at each range: the box
        optimum is the interior stationary point or an edge optimum, and
        clipping makes every candidate feasible."""
        s = 1.0 - _correlation_over(family, emp.lag_centers / ranges[:, None])
        m_s, m_ss, m_gs = s @ w, (s * s) @ w, s @ (w * g)
        det = m_w * m_ss - m_s * m_s
        zero, full = np.zeros_like(m_s), np.full_like(m_s, top)
        with np.errstate(divide="ignore", invalid="ignore"):
            nuggets = [(m_g * m_ss - m_s * m_gs) / det, zero, full,
                       zero + m_g / m_w, (m_g - top * m_s) / m_w]
            psills = [(m_w * m_gs - m_s * m_g) / det, m_gs / m_ss,
                      (m_gs - top * m_s) / m_ss, zero, full]
        nug = np.clip(np.nan_to_num(nuggets), 0.0, top)
        psill = np.clip(np.nan_to_num(psills), 0.0, top)
        resid = g - nug[..., None] - psill[..., None] * s
        sse = (resid * resid) @ w
        best = np.argmin(sse, axis=0)
        cols = np.arange(len(ranges))
        return sse[best, cols], nug[best, cols], psill[best, cols]

    ranges = np.linspace(1e-3 * emp.max_lag, emp.max_lag, 64)
    sse = profile(ranges)[0]
    i = int(np.flatnonzero(sse <= sse.min() * (1 + 1e-9))[-1])
    refined = minimize_scalar(
        lambda r: profile(np.array([r]))[0][0],
        bounds=(ranges[max(i - 1, 0)], ranges[min(i + 1, len(ranges) - 1)]),
        method="bounded",
        options={"xatol": 1e-10 * emp.max_lag},
    )
    ranges = np.array([ranges[i], refined.x])
    sse, nug, psill = profile(ranges)
    j = int(sse[1] < sse[0] * (1 - 1e-9))
    return VariogramModel(family, float(nug[j]), float(psill[j]), float(ranges[j]))


_ZERO_SILL = "zero-sill model has no unique kriging weights"


class KrigingSystem:
    """The ordinary-kriging engine for one scatter and model.  Read-only.

    Everything is solved on the sill-scaled covariance C = covariance / sill,
    so the systems and their condition do not depend on the units of the
    values, and rcond is always the 1-norm reciprocal condition number of C
    itself.  Without a neighborhood below n, C is Cholesky-factored here for
    dual kriging (see the module docstring) and rcond is LAPACK's estimate;
    a C that is not positive definite, or has rcond below RCOND_FLOOR,
    raises SingularSystemError.  Otherwise rcond is None and each predict
    call inverts the C of every target's k nearest points (np.hypot
    distance, ties within 1e-9 relative to the lower scatter index), raising
    SingularSystemError if any exact rcond is below RCOND_FLOOR or an inverse
    does not exist.
    target_floats bounds the float64 scratch per target of a predict call.
    A zero-sill model predicts zero only for zero values.
    """

    def __init__(self, scatter, model, neighborhood=None):
        if neighborhood is not None and neighborhood < 1:
            raise DataError("neighborhood must be at least 1")
        n = scatter.n
        self.scatter = scatter
        self.model = model
        self.neighborhood = None if neighborhood is None or neighborhood >= n else neighborhood
        # global: the target covariances, which the triangular solve overwrites;
        # neighbourhood: about six arrays over the 2k candidates (tree distances
        # and indices, coordinate differences, np.hypot, the partition, the tie
        # count), then three k x k arrays (the x and y differences, later the
        # covariance, its inverse and the inverse's absolute values).  Only a
        # target with k + 1 or more points at its k-th distance, to rounding,
        # is retried with more.
        self.target_floats = (12 * self.neighborhood + 3 * self.neighborhood ** 2
                              if self.neighborhood else n)
        self.rcond = None
        if model.sill == 0:
            return
        self._unit = replace(model, nugget=model.nugget / model.sill,
                             partial_sill=model.partial_sill / model.sill)
        if self.neighborhood is not None:
            self._tree = cKDTree(scatter.coords)
            return
        xy = scatter.coords
        self._chol, self.rcond = cholesky_checked(
            _covariance_over(self._unit, cdist(xy, xy)), "kriging covariance matrix")
        self._u = self._lower_solve(np.ones(n))
        self._uu = float(self._u @ self._u)
        w = self._lower_solve(scatter.values)
        self._mean = float(self._u @ w) / self._uu
        self._alpha = self._lower_solve(w - self._mean * self._u, trans="T")

    def _lower_solve(self, b, trans="N", overwrite=False):
        """L^-1 b, or L^-T b with trans="T"."""
        return solve_triangular(self._chol, b, trans=trans, lower=True,
                                overwrite_b=overwrite, check_finite=False)

    def _target_covariance(self, targets):
        """Unit-sill covariances (n, m), Fortran-ordered, at (m, 2) targets."""
        return _covariance_over(self._unit, cdist(targets, self.scatter.coords)).T

    def _nearest(self, targets):
        """(m, k) indices of every target's k nearest points, ascending: the
        points closer than the k-th np.hypot distance by more than 1e-9 of
        it, then those within 1e-9 relative of it, lowest index first.  The
        tie band is relative so that a coordinate scale, which rounds exactly
        tied distances apart, selects the same points.

        The rule is applied to each target's c = 2k nearest candidates from
        the tree, taken in index order and measured again by np.hypot.  No
        point outside them is closer than the tree's c-th distance, so a
        target is settled once that distance exceeds the k-th by more than
        the tie band and rounding can explain (2e-9 relative); the others are
        retried with twice as many candidates, and at c >= n the candidates
        are all the points.
        """
        k, xy, n = self.neighborhood, self.scatter.coords, self.scatter.n
        out = np.empty((len(targets), k), dtype=np.intp)
        todo, c = np.arange(len(targets)), 2 * k
        while len(todo):
            t = targets[todo]
            if c < n:
                far, cand = self._tree.query(t, c)
                # a squared distance that overflows comes back as index n at
                # distance inf; such a target is never settled here
                np.minimum(cand, n - 1, out=cand)
                cand.sort(axis=1)
            else:
                cand = np.broadcast_to(np.arange(n), (len(t), n))
            d = np.hypot(xy[cand, 0] - t[:, :1], xy[cand, 1] - t[:, 1:])
            kth = np.partition(d, k - 1, axis=1)[:, [k - 1]]
            near = d < kth * (1 - 1e-9)
            tie = ~near & (d <= kth * (1 + 1e-9))
            need = k - np.count_nonzero(near, axis=1)[:, None]
            near |= tie & (np.cumsum(tie, axis=1) <= need)
            settled = (np.ones(len(t), dtype=bool) if c >= n else
                       (far[:, -1] > kth[:, 0] * (1 + 2e-9)) & (far[:, -1] < np.inf))
            out[todo[settled]] = cand[settled][near[settled]].reshape(-1, k)
            todo, c = todo[~settled], 2 * c
        return out

    def _solve(self, targets):
        """Neighbourhood indices (m, k), or (1, n) for the global system,
        weights (m, k), unit-sill Lagrange multipliers (m,) and unit-sill
        target covariances (m, k) at an (m, 2) target array."""
        if self.model.sill == 0:
            raise SingularSystemError(_ZERO_SILL, 0.0)
        if self.neighborhood is None:
            # weights C^-1 (c + k 1) = L^-T (v + k u) with v = L^-1 c, here
            # u = L^-1 1, and multiplier -k, k = (1 - u.v) / u.u
            c = self._target_covariance(targets)
            v = self._lower_solve(c)
            k = (1.0 - self._u @ v) / self._uu
            lam = self._lower_solve(v + k * self._u[:, None], trans="T")
            return np.arange(self.scatter.n)[None, :], lam.T, -k, c.T

        # the module docstring's identities on each target's unit-sill C^-1
        idx = self._nearest(targets)
        x, y = self.scatter.coords[idx, 0], self.scatter.coords[idx, 1]
        dx = x[:, :, None] - x[:, None]
        cov = _covariance_over(self._unit, np.hypot(dx, y[:, :, None] - y[:, None], out=dx))
        c = _covariance_over(self._unit, np.hypot(x - targets[:, :1], y - targets[:, 1:]))
        try:
            inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError:
            inv = np.full_like(cov, np.nan)  # an exactly singular C
        # C >= 0 entrywise, so its 1-norm is its largest column sum; NaN is rcond 0
        norms = cov.sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
        checked_rcond(np.nan_to_num(np.min(1.0 / norms)), "neighbourhood kriging system")
        u = inv.sum(axis=2)
        k = (1.0 - np.einsum("mk,mk->m", u, c)) / u.sum(axis=1)
        lam = np.einsum("mij,mj->mi", inv, c) + k[:, None] * u
        # the explicit inverse alone loses accuracy as C nears singularity: one
        # step of iterative refinement by the same identities, then the
        # multiplier lam.(C lam - c), at which the variance, c0 - 2 lam.c +
        # lam.C lam when the weights sum to 1, is stationary in lam
        r = c - np.einsum("mij,mj->mi", cov, lam) + k[:, None]
        k = (1.0 - lam.sum(axis=1) - np.einsum("mk,mk->m", u, r)) / u.sum(axis=1)
        lam += np.einsum("mij,mj->mi", inv, r) + k[:, None] * u
        k = np.einsum("mi,mi->m", lam, np.einsum("mij,mj->mi", cov, lam) - c)
        return idx, lam, -k, c

    def predict_many(self, targets):
        """Predicted values and variances at an (m, 2) target array of finite
        coordinates (DataError otherwise)."""
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if targets.ndim != 2 or targets.shape[1] != 2:
            raise DataError(f"targets must be (m, 2), got {targets.shape}")
        if not np.isfinite(targets).all():
            raise DataError("non-finite target coordinate")
        if self.model.sill == 0:
            if self.scatter.values.any():
                raise SingularSystemError(_ZERO_SILL, 0.0)
            return np.zeros(len(targets)), np.zeros(len(targets))
        c0 = self._unit.sill
        if self.neighborhood is None:
            c = self._target_covariance(targets)
            values = self._mean + self._alpha @ c
            v = self._lower_solve(c, overwrite=True)
            k = (1.0 - self._u @ v) / self._uu
            unit_var = c0 - np.einsum("nm,nm->m", v, v) + k * k * self._uu
        else:
            idx, lam, mu, c = self._solve(targets)
            values = np.einsum("mk,mk->m", lam,
                               np.broadcast_to(self.scatter.values[idx], lam.shape))
            unit_var = c0 - np.einsum("mk,mk->m", lam, c) - mu
        variances = self.model.sill * unit_var
        bad = unit_var < -1e-9
        if bad.any():
            raise PolishKrigeError(
                f"negative kriging variance {variances[bad].min():.3e} "
                "(inconsistent covariance model)"
            )
        return values, np.maximum(variances, 0.0)


def ok_solve(scatter, model, target, neighborhood=None):
    """Ordinary-kriging weights for one target.

    neighborhood, if given, restricts the system to the k nearest scatter
    points (weights for excluded points are zero).  Raises
    SingularSystemError when the system is not solvable (duplicate
    geometry, or a nearly constant or zero-sill covariance model).
    """
    system = KrigingSystem(scatter, model, neighborhood)
    idx, lam, mu, _ = system._solve(np.array([[target.x, target.y]]))
    weights = np.zeros(scatter.n)
    weights[idx[0]] = lam[0]
    return KrigingWeights(weights=weights, lagrange=float(mu[0]) * model.sill)


def ok_predict(scatter, model, target, neighborhood=None):
    """Ordinary-kriging value and variance at one target location."""
    system = KrigingSystem(scatter, model, neighborhood)
    values, variances = system.predict_many([(target.x, target.y)])
    return KrigingPrediction(value=float(values[0]), variance=float(variances[0]))
