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
target and a variance needs v = L^-1 c.  Over the k nearest points (a
KD-tree finds them), one inverse of each target's k x k C gives its weights,
refined once against C, and its exact 1-norm condition.  That KD-tree is the
package's one use of scipy.spatial, imported only by a k-nearest system; the
global path's distances and the variogram's pair distances come from
numerics.distances, which does the arithmetic of scipy's cdist and pdist.

One loop, KrigingSystem.predict_many, predicts on every path in chunks and
adds a caller's mean surface to each (the surface predictors pass theirs).
A global call reuses one buffer for a chunk's distances to the points, which
the mean may read too.  One of n or more targets, when n^2 <= 2**20, forms
W = L^-1 once (LAPACK trtri) and multiplies each chunk by it (BLAS trmm),
which runs at matrix-multiply speed and is accurate to about eps kappa(L) =
eps sqrt(kappa(C)) (Higham 2002, ch. 8 and 14), in chunks of about 2**16
floats that stay in cache (Goto & van de Geijn 2008); any other global call
solves for v, in chunks of about 2**20 floats.  A k-nearest or zero-sill
chunk holds about 2**20 floats over the larger need per target: its systems'
scratch, or the n distances to the points that a mean may compute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs, solve_triangular

from .errors import DataError, PolishKrigeError, SingularSystemError
from .numerics import checked_rcond, cholesky_checked, distances, row_blocks
from .spatial_core import _frozen

FAMILIES = ("spherical", "exponential", "gaussian")
# ranges per level of fit_variogram's nested grid search
_LEVEL_SIZE = 17


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned method-of-moments semivariance estimates.

    Bins with no pairs are dropped, so the three arrays have equal length
    with pair_counts >= 1 everywhere; max_lag is the binning cutoff.  Any
    of these broken, or a lag or gamma that is not finite, a gamma < 0 or a
    max_lag outside (0, inf), is a DataError.
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
        lags, gamma = self.lag_centers, self.gamma
        if not len(lags) == len(gamma) == len(counts):
            raise DataError("lag centers, gamma and pair counts differ in length")
        if not (np.isfinite(lags).all() and np.isfinite(gamma).all() and (gamma >= 0).all()
                and (counts >= 1).all() and 0 < self.max_lag < np.inf):
            raise DataError("variogram estimates need finite lags, finite gamma >= 0, "
                            "pair counts >= 1 and 0 < max_lag < inf")

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
        if not np.isfinite((self.nugget, self.partial_sill, self.range)).all():
            raise DataError("nugget, partial sill and range must be finite")
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
    midpoints; empty bins are dropped.  This is the one-scatter case of
    _semivariogram_stack.

    Args:
        scatter: ScatterSet with n >= 2.
        n_bins: number of distance bins (>= 1).
        max_lag: binning cutoff; default is half the largest pair distance.

    Raises:
        DataError: fewer than 2 points, bad parameters, or no pair within
            max_lag.
    """
    emp, = _semivariogram_stack(scatter.coords, scatter.values[None], n_bins, max_lag)
    if isinstance(emp, DataError):
        raise emp
    return emp


def _semivariogram_stack(coords, values, n_bins, max_lag, dropped=None):
    """empirical_semivariogram of B scatters on the same points at once, as
    a list holding each one's EmpiricalVariogram or the DataError it raises.

    Scatter b is row b of the (B, n) values at the (n, 2) coords, less the
    point dropped[b] when dropped is given (its value is never read).  The
    pair distances are computed once, and their bins once per distinct
    max_lag: a scatter's default is half its own largest pair distance, so
    only one that drops an end of every longest pair bins them otherwise.
    Each scatter zeroes its dropped point's squared differences, takes its
    point's pairs off the shared bin counts, and sums per bin in pair order,
    so that its estimates are those of its own empirical_semivariogram.
    """
    lost = ([np.empty(0, np.intp)] * len(values) if dropped is None
            else [_pairs_with(len(coords), k) for k in dropped])
    if len(coords) - (dropped is not None) < 2:
        return [DataError("variogram needs at least 2 observations")] * len(values)
    if n_bins < 1:
        return [DataError("n_bins must be at least 1")] * len(values)

    d = distances(coords)
    if max_lag is not None:
        lags = [max_lag] * len(values)
    else:
        top = d.max()
        lags = [0.5 * float(top if d[pairs].max(initial=0.0) < top else
                            np.delete(d, pairs).max()) for pairs in lost]
    valid = [lag for lag in dict.fromkeys(lags) if 0 < lag < np.inf]
    bins = {lag: _pair_bins(d if lag == valid[-1] else d.copy(), n_bins, lag)
            for lag in valid}
    del d
    counts = {lag: np.bincount(idx, minlength=n_bins + 1) for lag, idx in bins.items()}

    out = []
    for z, pairs, lag in zip(values, lost, lags):
        if lag not in bins:
            out.append(DataError("max_lag must be finite and positive"))
            continue
        idx = bins[lag]
        n_pairs = (counts[lag] - np.bincount(idx[pairs], minlength=n_bins + 1))[:n_bins]
        if not n_pairs.any():
            out.append(DataError(f"no point pair within max_lag {lag:g}"))
            continue
        sq = distances(z[:, None], squared=True)
        sq[pairs] = 0.0
        sums = np.bincount(idx, weights=sq, minlength=n_bins + 1)[:n_bins]
        retained = n_pairs > 0
        centers = (np.flatnonzero(retained) + 0.5) * (lag / n_bins)
        try:  # squared differences that overflow give gamma inf
            out.append(EmpiricalVariogram(centers, sums[retained] / (2.0 * n_pairs[retained]),
                                          n_pairs[retained], float(lag)))
        except DataError as exc:
            out.append(exc)
    return out


def _pairs_with(n, k):
    """Positions in condensed order (numerics.distances) of the n - 1 pairs
    of point k."""
    i = np.arange(k)
    start = k * (2 * n - k - 1) // 2
    return np.concatenate([i * (2 * n - i - 1) // 2 + k - i - 1,
                           np.arange(start, start + n - k - 1)])


def _pair_bins(d, n_bins, max_lag):
    """The bin, 0 to n_bins - 1, of each pair distance d, which is
    overwritten; a pair at distance 0 or beyond max_lag gets n_bins.

    A pair within 1e-9 bin widths of an edge, max_lag included, goes to the
    lower bin, so lattice pairs on an edge keep their bin when coordinates
    scale.
    """
    out = d == 0
    d /= max_lag / n_bins
    np.round(d, 9, out=d)
    out |= d > n_bins
    np.minimum(d, n_bins, out=d)
    idx = np.ceil(d, out=d).astype(np.intp)
    idx -= 1
    np.clip(idx, 0, n_bins - 1, out=idx)
    idx[out] = n_bins
    return idx


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
    range is searched by nested grids: 64 ranges, then 17 at a time over the
    two spacings around the best so far, to an absolute tolerance of 1e-10
    max_lag.  SSEs within 1e-9 relative count as tied, so that rounding on a
    flat profile does not pick the range: the largest tied range of the 64
    wins, and the refined one must beat it by more than that.  The fit is
    deterministic and equivariant under value and coordinate scaling.  This
    is the one-variogram case of _variogram_fit_stack.

    All-zero estimates short-circuit to the degenerate zero model (zero
    sill); any other fit has a positive sill.  Raises DataError for an
    unknown family or fewer than 3 occupied bins.
    """
    model, = _variogram_fit_stack([emp], family)
    if isinstance(model, DataError):
        raise model
    return model


def _variogram_fit_stack(emps, family):
    """fit_variogram of each EmpiricalVariogram in emps at once, as a list of
    VariogramModels and, where a fit fails or emps holds a DataError, that
    DataError.  Variograms with equal bin counts are fitted as one stack, in
    blocks of at most 2**15 floats per (folds, 64, bins) array, each level
    of the nested range grids one pass over its block."""
    if family not in FAMILIES:
        raise DataError(f"unknown variogram family {family!r}")
    out, stacks = list(emps), {}
    for b, emp in enumerate(emps):
        if isinstance(emp, DataError):
            continue
        if np.all(emp.gamma == 0):
            out[b] = VariogramModel(family, 0.0, 0.0, emp.max_lag)
        elif emp.n_bins < 3:
            out[b] = DataError(f"variogram fit needs at least 3 occupied bins, got {emp.n_bins}")
        else:
            stacks.setdefault(emp.n_bins, []).append(b)
    for n_bins, members in stacks.items():
        step = max(1, 2**15 // (64 * n_bins))
        for lo in range(0, len(members), step):
            block = members[lo:lo + step]
            for b, params in zip(block, _fit_block([emps[b] for b in block], family)):
                out[b] = VariogramModel(family, *map(float, params))
    return out


def _fit_block(emps, family):
    """(nugget, partial sill, range) rows of fit_variogram for variograms
    with equal bin counts.  Every weighted sum is one matrix product per
    variogram, and each variogram's bracket stops narrowing on its own
    spacing, so each row is what a block of one gives."""
    lags = np.array([emp.lag_centers for emp in emps])
    g = np.array([emp.gamma for emp in emps])
    w = np.array([emp.pair_counts for emp in emps], dtype=np.float64)
    max_lag = np.array([emp.max_lag for emp in emps])
    top = 2.0 * g.max(axis=1, keepdims=True)
    m_w = w.sum(axis=1, keepdims=True)
    m_g = (w[:, None, :] @ g[:, :, None])[:, 0]
    w_col, wg_col = w[:, :, None], (w * g)[:, :, None]

    def profile(ranges):
        """Least weighted SSE with its (nugget, psill) at each of the (B, K)
        ranges: the box optimum is the interior stationary point or an edge
        optimum, and clipping makes every candidate feasible."""
        s = 1.0 - _correlation_over(family, lags[:, None, :] / ranges[:, :, None])
        m_s, m_ss, m_gs = ((x @ col)[..., 0] for x, col in
                           ((s, w_col), (s * s, w_col), (s, wg_col)))
        det = m_w * m_ss - m_s * m_s
        zero = np.zeros_like(m_s)
        with np.errstate(divide="ignore", invalid="ignore"):
            nuggets = [(m_g * m_ss - m_s * m_gs) / det, zero, zero + top,
                       zero + m_g / m_w, (m_g - top * m_s) / m_w]
            psills = [(m_w * m_gs - m_s * m_g) / det, m_gs / m_ss,
                      (m_gs - top * m_s) / m_ss, zero, zero + top]
        nug = np.fmax(np.minimum(nuggets, top), 0.0)
        psill = np.fmax(np.minimum(psills, top), 0.0)
        sse = np.empty_like(nug)
        for c in range(len(sse)):
            resid = g[:, None, :] - nug[c][..., None] - psill[c][..., None] * s
            sse[c] = ((resid * resid) @ w_col)[..., 0]
        best = np.argmin(sse, axis=0)
        return tuple(np.choose(best, x) for x in (sse, nug, psill))

    def bracket(ranges, i):
        """Each row's range at i, at i - 1 and at i + 1 (at i past an end),
        and its spacing."""
        at = [ranges[rows, np.clip(i + d, 0, ranges.shape[1] - 1)] for d in (0, -1, 1)]
        return *at, ranges[:, 1] - ranges[:, 0]

    rows = np.arange(len(emps))
    ranges = np.linspace(1e-3 * max_lag, max_lag, 64, axis=1)
    sse = profile(ranges)[0]
    tied = sse <= sse.min(axis=1, keepdims=True) * (1 + 1e-9)
    grid, lo, hi, spacing = bracket(ranges, 63 - np.argmax(tied[:, ::-1], axis=1))
    best = grid
    while np.any(narrow := spacing > 1e-10 * max_lag):
        ranges = np.linspace(lo, hi, _LEVEL_SIZE, axis=1)
        level = bracket(ranges, np.argmin(profile(ranges)[0], axis=1))
        best, lo, hi, spacing = (np.where(narrow, new, old) for new, old in
                                 zip(level, (best, lo, hi, spacing)))
    ranges = np.column_stack([grid, best])
    sse, nug, psill = profile(ranges)
    j = (sse[:, 1] < sse[:, 0] * (1 - 1e-9)).astype(np.intp)
    return np.column_stack([nug[rows, j], psill[rows, j], ranges[rows, j]])


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
    does not exist.  predict_many is the one predict loop of every path, and
    sizes its own chunks (_chunking): W = L^-1 is formed only for
    n^2 <= 2**20, so it never holds more than 2**20 floats.  A zero-sill
    model predicts zero only for zero values.

    _distances, private, is the scatter's n x n site distances as
    numerics.distances gives them, C-contiguous, for a caller that already
    holds them (cross-validation deletes a fold's row and column from the
    full set's); the global path overwrites it with the covariance and
    factors it, and any other path ignores it.
    """

    def __init__(self, scatter, model, neighborhood=None, _distances=None):
        if neighborhood is not None and neighborhood < 1:
            raise DataError("neighborhood must be at least 1")
        n = scatter.n
        self.scatter = scatter
        self.model = model
        self.neighborhood = None if neighborhood is None or neighborhood >= n else neighborhood
        self.rcond = None
        if model.sill == 0:
            return
        self._unit = replace(model, nugget=model.nugget / model.sill,
                             partial_sill=model.partial_sill / model.sill)
        if self.neighborhood is not None:
            # imported here, so that a global-path process never loads scipy.spatial
            from scipy.spatial import cKDTree
            self._tree = cKDTree(scatter.coords)
            return
        xy = scatter.coords
        h = distances(xy, xy) if _distances is None else _distances
        self._chol, self.rcond = cholesky_checked(_covariance_over(self._unit, h),
                                                  "kriging covariance matrix")
        self._u = self._lower_solve(np.ones(n))
        self._uu = float(self._u @ self._u)
        w = self._lower_solve(scatter.values)
        self._mean = float(self._u @ w) / self._uu
        self._alpha = self._lower_solve(w - self._mean * self._u, trans="T")

    def _lower_solve(self, b, trans="N", overwrite=False):
        """L^-1 b, or L^-T b with trans="T"."""
        return solve_triangular(self._chol, b, trans=trans, lower=True,
                                overwrite_b=overwrite, check_finite=False)

    def _chunking(self, m):
        """(targets per chunk, whether to multiply by W = L^-1) of a predict
        call of m targets.  Global: W when m >= n and n^2 <= 2**20, with
        about 2**16 floats of distances per chunk; otherwise 2**20.  k nearest
        or zero sill: about 2**20 floats over the larger need per target, the
        n distances to the sites a mean may compute or the neighbourhood
        scratch: about six arrays over the 2k candidates (tree distances and
        indices, coordinate differences, np.hypot, the partition, the tie
        count), then three k x k arrays (the x and y differences, later the
        covariance, its inverse and the inverse's absolute values).  Only a
        target with k + 1 or more points at its k-th distance, to rounding,
        is retried with more."""
        n, k = self.scatter.n, self.neighborhood or 0
        if self.rcond is None:
            return max(1, min(m, 2**20 // max(n, 12 * k + 3 * k * k))), False
        dense = n <= m and n * n <= 2**20
        return max(1, min(m, (2**16 if dense else 2**20) // n)), dense

    def _variances(self, unit_var):
        """Variances from the unit-sill unit_var, which is overwritten,
        with rounding below zero clipped; PolishKrigeError for one below
        -1e-9 (an inconsistent covariance model)."""
        bad = unit_var < -1e-9
        variances = np.multiply(unit_var, self.model.sill, out=unit_var)
        if bad.any():
            raise PolishKrigeError(
                f"negative kriging variance {variances[bad].min():.3e} "
                "(inconsistent covariance model)"
            )
        return np.maximum(variances, 0.0, out=variances)

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
            c = _covariance_over(self._unit, distances(targets, self.scatter.coords)).T
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

    def predict_many(self, targets, mean=None):
        """Predicted values and variances at an (m, 2) target array of finite
        coordinates (DataError otherwise, before any is predicted), chunk by
        chunk (_chunking).  A global chunk goes through one distance buffer
        that every chunk reuses: distances fills it, the covariance overwrites
        it, and v = L^-1 c overwrites that, by a product with W, formed once
        per call, or else by a triangular solve.  A k-nearest chunk is one
        stack of its targets' systems (_solve).

        mean(points, d), when given, is a mean surface at a chunk of points,
        whose values are added to the kriged ones.  On the global path d is
        their distances to the sites, which it may read but not write, before
        the covariance overwrites them; otherwise d is None."""
        targets = _target_array(targets)
        if self.model.sill == 0 and self.scatter.values.any():
            raise SingularSystemError(_ZERO_SILL, 0.0)
        n, m = self.scatter.n, len(targets)
        rows, dense = self._chunking(m)
        if dense:
            trtri, = get_lapack_funcs(("trtri",), (self._chol,))
            w, info = trtri(self._chol, lower=1)
            if info != 0:
                raise SingularSystemError("kriging covariance factor is singular", condition=0.0)
            trmm, = get_blas_funcs(("trmm",), (w,))
        buffer = None if self.rcond is None else np.empty((rows, n))
        values, variances = np.empty(m), np.empty(m)
        for lo in range(0, m, rows):
            points = targets[lo:lo + rows]
            d = None if buffer is None else distances(points, self.scatter.coords,
                                                      out=buffer[:len(points)])
            base = None if mean is None else mean(points, d)
            if d is not None:
                c = _covariance_over(self._unit, d).T
                resid = self._mean + self._alpha @ c
                v = (trmm(1.0, w, c, lower=1, overwrite_b=1) if dense
                     else self._lower_solve(c, overwrite=True))
                k = (1.0 - self._u @ v) / self._uu
                unit_var = self._unit.sill - np.einsum("nm,nm->m", v, v) + k * k * self._uu
            elif self.model.sill == 0:
                resid, unit_var = 0.0, np.zeros(len(points))
            else:
                idx, lam, mu, c = self._solve(points)
                resid = np.einsum("mk,mk->m", lam,
                                  np.broadcast_to(self.scatter.values[idx], lam.shape))
                unit_var = self._unit.sill - np.einsum("mk,mk->m", lam, c) - mu
            values[lo:lo + rows] = resid if base is None else base + resid
            variances[lo:lo + rows] = self._variances(unit_var)
        return values, variances


def _target_array(targets):
    """targets as an (m, 2) float array of finite coordinates, else
    DataError."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.ndim != 2 or targets.shape[1] != 2:
        raise DataError(f"targets must be (m, 2), got {targets.shape}")
    if not np.isfinite(targets).all():
        raise DataError("non-finite target coordinate")
    return targets


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
