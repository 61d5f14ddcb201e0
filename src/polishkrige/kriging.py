"""Semivariogram estimation and ordinary kriging on a 2-D scatter.

The empirical semivariogram is the method-of-moments estimator on distance
bins; parametric models (spherical, exponential, gaussian) are fitted by
pair-count-weighted least squares.  Ordinary kriging solves the augmented
covariance system with a Lagrange multiplier enforcing weights that sum to
one, so predictions are unbiased for an unknown constant mean.

KrigingSystem is the one engine behind ok_solve, ok_predict and the surface
predictors: a sill-scaled system, factored once globally or solved per
target over its k nearest points in stacked batches of targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_solve
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist, pdist

from .errors import DataError, PolishKrigeError, SingularSystemError
from .numerics import RCOND_FLOOR, factor_checked
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
    spherical.  degenerate flags the all-zero fit returned for data with no
    variability; it is a warning marker, not an error.
    """

    family: str
    nugget: float
    partial_sill: float
    range: float
    degenerate: bool = False

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
    sq = pdist(scatter.values[:, None], metric="sqeuclidean")
    if max_lag is None:
        max_lag = 0.5 * float(d.max())
    if not max_lag > 0:
        raise DataError("max_lag must be positive")

    keep = (d > 0) & (d <= max_lag)
    if not keep.any():
        raise DataError(f"no point pair within max_lag {max_lag:g}")

    width = max_lag / n_bins
    idx = np.minimum(np.ceil(d[keep] / width).astype(int) - 1, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=sq[keep], minlength=n_bins)

    retained = counts > 0
    centers = (np.flatnonzero(retained) + 0.5) * width
    gamma = sums[retained] / (2.0 * counts[retained])
    return EmpiricalVariogram(centers, gamma, counts[retained], float(max_lag))


def _model_gamma(family, nugget, psill, rng, h):
    u = h / rng
    if family == "spherical":
        shape = np.where(u >= 1.0, 1.0, 1.5 * u - 0.5 * u**3)
    elif family == "exponential":
        shape = 1.0 - np.exp(-3.0 * u)
    else:
        shape = 1.0 - np.exp(-3.0 * u**2)
    return nugget + psill * shape


def semivariance(model, h):
    """gamma(h) for a fitted model; gamma(0) = 0, limit h->0+ = nugget."""
    h = np.asarray(h, dtype=np.float64)
    if np.any(h < 0):
        raise DataError("negative lag distance")
    g = np.where(
        h == 0,
        0.0,
        _model_gamma(model.family, model.nugget, model.partial_sill, model.range, h),
    )
    return g if g.ndim else float(g)


def covariance(model, h):
    """C(h) = sill - gamma(h); C(0) is the full sill including the nugget."""
    return model.sill - semivariance(model, h)


def fit_variogram(emp, family="spherical"):
    """Fit a variogram model to binned estimates by weighted least squares.

    The objective is sum over bins of pair_count * (gamma_hat - gamma_model)^2
    over nugget and partial sill in [0, 2 max gamma_hat] and range in
    [1e-3 max_lag, max_lag].  At a fixed range it is a convex quadratic in
    (nugget, partial sill), minimized exactly over that box; the profile over
    range is searched on a 64-point grid, then by bounded Brent around the
    best grid point to a tolerance relative to max_lag.  The fit is
    deterministic and equivariant under value and coordinate scaling.

    All-zero estimates short-circuit to the degenerate zero model with the
    warning flag set.  Raises DataError for an unknown family or fewer than
    3 occupied bins.
    """
    if family not in FAMILIES:
        raise DataError(f"unknown variogram family {family!r}")
    if np.all(emp.gamma == 0):
        return VariogramModel(family, 0.0, 0.0, emp.max_lag, degenerate=True)
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
        s = _model_gamma(family, 0.0, 1.0, ranges[:, None], emp.lag_centers)
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
    i = int(np.argmin(profile(ranges)[0]))
    refined = minimize_scalar(
        lambda r: profile(np.array([r]))[0][0],
        bounds=(ranges[max(i - 1, 0)], ranges[min(i + 1, len(ranges) - 1)]),
        method="bounded",
        options={"xatol": 1e-10 * emp.max_lag},
    )
    # Brent never evaluates its bounds, so the grid point stays a candidate
    # and wins ties
    ranges = np.array([ranges[i], refined.x])
    sse, nug, psill = profile(ranges)
    j = int(np.argmin(sse))
    return VariogramModel(family, float(nug[j]), float(psill[j]), float(ranges[j]))


class KrigingSystem:
    """The ordinary-kriging engine for one scatter and model.  Read-only.

    Systems are [[C / sill, 1], [1^T, 0]], so they and their condition do
    not depend on the units of the values.  Without a neighborhood below n,
    one global system is LU-factored here and rcond is its estimate.
    Otherwise rcond is None and each predict call stacks the systems over
    every target's k nearest points (np.hypot distance, ties to the lower
    scatter index), raising SingularSystemError if any rcond is below
    RCOND_FLOOR.  target_floats is the float64 scratch per target of a
    predict call.  A zero-sill model predicts zero only for zero values.
    """

    def __init__(self, scatter, model, neighborhood=None):
        if neighborhood is not None and neighborhood < 1:
            raise DataError("neighborhood must be at least 1")
        n = scatter.n
        self.scatter = scatter
        self.model = model
        self.neighborhood = None if neighborhood is None or neighborhood >= n else neighborhood
        self.target_floats = n + 2 * (self.neighborhood + 1) ** 2 if self.neighborhood else n
        self.rcond = None
        if model.sill == 0:
            return
        self._unit = replace(model, nugget=model.nugget / model.sill,
                             partial_sill=model.partial_sill / model.sill)
        if self.neighborhood is not None:
            return
        a = np.empty((n + 1, n + 1))
        a[:n, :n] = covariance(self._unit, cdist(scatter.coords, scatter.coords))
        a[n, :n] = 1.0
        a[:n, n] = 1.0
        a[n, n] = 0.0
        self._lu, self.rcond = factor_checked(a, "ordinary-kriging system")

    def _solve(self, targets):
        """Neighbourhood indices (m, k), or (1, n) for the global system,
        weights (m, k), unit-sill Lagrange multipliers (m,) and unit-sill
        target covariances (m, k) at an (m, 2) target array."""
        if self.model.sill == 0:
            raise SingularSystemError("zero-sill model has no unique kriging weights", 0.0)
        xy = self.scatter.coords
        if self.neighborhood is None:
            n = self.scatter.n
            b = np.empty((n + 1, len(targets)))
            b[:n] = covariance(self._unit, cdist(xy, targets))
            b[n] = 1.0
            sol = lu_solve(self._lu, b, check_finite=False)
            return np.arange(n)[None, :], sol[:n].T, sol[n], b[:n].T

        k = self.neighborhood
        d = np.hypot(xy[:, 0] - targets[:, :1], xy[:, 1] - targets[:, 1:])
        idx = np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)
        pts = xy[idx]
        a = np.ones((len(targets), k + 1, k + 1))
        pair_d = np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1)
        a[:, :k, :k] = covariance(self._unit, pair_d)
        a[:, k, k] = 0.0
        b = np.ones((len(targets), k + 1))
        b[:, :k] = covariance(self._unit, np.linalg.norm(pts - targets[:, None], axis=-1))
        rcond = float(np.min(1.0 / np.linalg.cond(a, 1)))
        if not rcond >= RCOND_FLOOR:
            raise SingularSystemError(
                f"neighbourhood kriging system is numerically singular (rcond {rcond:.3e})",
                condition=rcond,
            )
        sol = np.linalg.solve(a, b[..., None])[..., 0]
        return idx, sol[:, :k], sol[:, k], b[:, :k]

    def predict_many(self, targets):
        """Predicted values and variances at an (m, 2) target array."""
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        if self.model.sill == 0 and not self.scatter.values.any():
            return np.zeros(len(targets)), np.zeros(len(targets))
        idx, lam, mu, c = self._solve(targets)
        values = np.einsum("mk,mk->m", lam, np.broadcast_to(self.scatter.values[idx], lam.shape))
        unit_var = covariance(self._unit, 0.0) - np.einsum("mk,mk->m", lam, c) - mu
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
    SingularSystemError when the augmented matrix is not solvable (duplicate
    geometry, or a constant or zero-sill covariance model).
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
