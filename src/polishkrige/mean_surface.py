"""Mean-surface interpolators over median-polish effects.

Two ways to extend the fitted node means off the lattice: a piecewise-linear
scheme that interpolates the row and column effect vectors independently
(extending the boundary pair linearly outside the grid), and a biharmonic
Green-function spline fitted through the node means less the overall level,
which bends smoothly instead of creasing along grid lines.  The spline is
two-dimensional, like the method: Sandwell's (1987) interpolation with the
planar Green function phi_2 = r^2 (ln r - 1) on (N, 2) centres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve

from .errors import DataError, DuplicateLocationError, SingularSystemError
from .median_polish import MedianPolishFit
from .numerics import RCOND_FLOOR, _target_array, distances, factor_checked, row_blocks
from .spatial_core import GridLattice, _closest_pair_within, _frozen, axis_cells


def green_function(m, r):
    """Fundamental solution phi_m of the biharmonic operator in dimension
    m = 1..3: phi_1 = r^3, phi_2 = r^2 (ln r - 1), phi_3 = r, each with the
    continuous limit 0 at r = 0.  The spline uses phi_2.  Accepts scalar or
    array r (elementwise).
    """
    if m not in (1, 2, 3):
        raise DataError(f"green function dimension must be 1..3, got {m}")
    r = np.array(r, dtype=np.float64)
    if np.any(r < 0):
        raise DataError("negative distance")
    g = r**3 if m == 1 else _green_over(r) if m == 2 else r
    return g if g.ndim else float(g)


def _green_over(r):
    """phi_2 = r^2 (ln r - 1) for a float array of distances r >= 0 that
    this module computed itself: r is overwritten and returned, with
    temporaries only of one block of rows (numerics.row_blocks)."""
    for block in row_blocks(r):
        r2 = block * block
        # r = 0 is raised to the smallest normal float so that its log is
        # finite; its r2 stays 0, giving the limit 0
        np.maximum(block, np.finfo(np.float64).tiny, out=block)
        np.log(block, out=block)
        block -= 1.0
        block *= r2
    return r


@dataclass(frozen=True)
class BiharmonicModel:
    """A Green-function spline w(s) = sum_j strengths[j] phi_2(|s - c_j|).

    centers is (N, 2) with pairwise-distinct rows; regularization records
    the ridge term used at fit time.
    """

    centers: np.ndarray
    strengths: np.ndarray
    regularization: float = 0.0

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != 2 or len(centers) < 1:
            raise DataError(f"centers must be (N, 2) with N >= 1, got {centers.shape}")
        strengths = np.asarray(self.strengths, dtype=np.float64).ravel()
        if len(strengths) != centers.shape[0]:
            raise DataError("one strength per center required")
        if not np.all(np.isfinite(centers)):
            raise DataError("non-finite center")
        if not np.all(np.isfinite(strengths)):
            raise DataError("non-finite strength")
        if not 0 <= self.regularization < np.inf:
            raise DataError("regularization must be finite and nonnegative")
        _reject_duplicate_rows(centers)
        object.__setattr__(self, "centers", _frozen(centers))
        object.__setattr__(self, "strengths", _frozen(strengths))


def _reject_duplicate_rows(centers):
    pair = _closest_pair_within(centers, 0.0)
    if pair is not None:
        raise DuplicateLocationError(f"centers {pair[0]} and {pair[1]} coincide")


def biharmonic_fit(centers, values, regularization=0.0):
    """Fit spline strengths through values at centers.

    Solves (G + eps I) alpha = values with G_ij = phi_2(|c_i - c_j|).  With
    regularization 0 the spline interpolates the values exactly.  All-zero
    values short-circuit to the zero spline (no solve, so a lone center with
    value 0 is fine while a lone nonzero center raises SingularSystemError,
    its 1x1 system being 0 * alpha = w).

    Args:
        centers: (N, 2) array of finite, pairwise-distinct rows.
        values: N reals.
        regularization: finite ridge term eps >= 0 added to the diagonal.

    Raises:
        DuplicateLocationError, SingularSystemError, DataError.
    """
    centers = np.asarray(centers, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64).ravel()
    if centers.ndim != 2 or centers.shape[1] != 2 or len(centers) != len(values):
        raise DataError(f"centers must be ({len(values)}, 2), got {centers.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError("non-finite value")
    if not np.all(np.isfinite(centers)):
        raise DataError("non-finite center")

    _reject_duplicate_rows(centers)

    if np.all(values == 0):
        strengths = np.zeros(len(values))
        return BiharmonicModel(centers, strengths, float(regularization))

    lu_piv = _green_system(centers, regularization)[0]
    strengths = lu_solve(lu_piv, values, check_finite=False)
    return BiharmonicModel(centers, strengths, float(regularization))


def _green_system(centers, regularization):
    """numerics.factor_checked of G + eps I, G_ij = phi_2(|c_i - c_j|):
    (lu_piv, rcond, 1-norm).  G is built, regularized and LU-factored over
    one n x n array.  DataError unless eps is finite and >= 0."""
    if not 0 <= regularization < np.inf:
        raise DataError("regularization must be finite and nonnegative")
    g = _green_over(distances(centers, centers))
    if regularization:
        g.flat[::len(g) + 1] += regularization
    return factor_checked(g, "green-function system")


def biharmonic_deletions(centers, regularization=0.0):
    """deletion(i, w): the value at centers[i] of the spline through w at
    every other centre, by Dubrule's (1983) identity -H[i, ~i] . w[~i] / H[i, i]
    with H the inverse of the full G + eps I, in O(N).  The reduced spline is
    fitted instead (raising what biharmonic_fit raises) if G + eps I is
    singular or |H[i, i]| cannot certify the reduced system's 1-norm rcond,
    at least |H[i, i]| / (|G| |H| (|H| + |H[i, i]|)), above RCOND_FLOOR.
    Raises DataError for a regularization that is not finite and >= 0."""
    try:
        lu_piv, _, g_norm = _green_system(centers, regularization)
        h = lu_solve(lu_piv, np.eye(len(centers)))
        h_norm = np.linalg.norm(h, 1)
    except SingularSystemError:
        h = None

    def deletion(i, w):
        hii = 0.0 if h is None else abs(h[i, i])
        if hii and hii >= RCOND_FLOOR * g_norm * h_norm * (h_norm + hii):
            return -(np.delete(h[i], i) @ np.delete(w, i)) / h[i, i]
        spline = biharmonic_fit(np.delete(centers, i, axis=0), np.delete(w, i), regularization)
        return biharmonic_eval_many(spline, centers[i:i + 1])[0]
    return deletion


def biharmonic_eval_many(model, points):
    """Spline values at an (M, 2) array of finite locations (DataError otherwise)."""
    return _spline_over(model, distances(_target_array(points), model.centers))


def _spline_over(model, r):
    """The spline's values at the points whose (M, N) distances to its
    centres are r, which is overwritten."""
    return _green_over(r) @ model.strengths


@dataclass(frozen=True)
class LinearMeanModel:
    """Separable piecewise-linear mean: overall + row effect + column effect.

    Each effect vector is linearly interpolated along its own axis between
    adjacent lattice nodes; outside the lattice the boundary pair's line is
    extended.
    """

    fit: MedianPolishFit
    lattice: GridLattice

    def __post_init__(self):
        if self.fit.p != self.lattice.p or self.fit.q != self.lattice.q:
            raise DataError(
                f"fit is {self.fit.p} x {self.fit.q} but lattice is "
                f"{self.lattice.p} x {self.lattice.q}"
            )


def _interp_effect(coords, effects, t):
    """Piecewise-linear effect value at positions t, extending end pairs."""
    idx = axis_cells(coords, t)
    x0 = coords[idx]
    x1 = coords[idx + 1]
    w = (t - x0) / (x1 - x0)
    return effects[idx] + w * (effects[idx + 1] - effects[idx])


def linear_mean_many(model, points):
    """Mean-surface values at an (M, 2) array of finite locations (DataError otherwise)."""
    points = _target_array(points)
    fit = model.fit
    lat = model.lattice
    col_part = _interp_effect(lat.x_coords, fit.col_effects, points[:, 0])
    row_part = _interp_effect(lat.y_coords, fit.row_effects, points[:, 1])
    return fit.overall + row_part + col_part
