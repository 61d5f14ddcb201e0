"""MPK and IMPK surface predictors and their cross-validation.

Both methods decompose the gridded data by median polish and krige the
residuals; they differ only in how the fitted node means are carried off
the lattice.  MPK interpolates the effect vectors piecewise-linearly, IMPK
adds the overall level to a biharmonic spline through the row plus column
effects at the observed cells, in units of the lattice spacing so that
rescaling the coordinates changes nothing.  Prediction is mean plus kriged
residual; reported variance is the kriging variance of the residual part
(the mean surface is treated as fixed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, PolishKrigeError
from .kriging import (
    FAMILIES,
    KrigingPrediction,
    KrigingSystem,
    _semivariogram_stack,
    _variogram_fit_stack,
    empirical_semivariogram,
    fit_variogram,
)
from .mean_surface import (
    BiharmonicModel,
    LinearMeanModel,
    _spline_over,
    biharmonic_deletions,
    biharmonic_eval_many,
    biharmonic_fit,
    linear_mean_many,
)
from .median_polish import decompose, polish_from_effects, polish_stack, residuals_as_scatter
from .spatial_core import GridLattice, Location2D, _frozen

METHODS = ("mpk", "impk")


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fitting pipeline, with reproducible defaults.

    mp_tol / max_lag of None mean the data-driven defaults (1e-9 times the
    data spread, half the maximum pair distance).  freeze_variogram makes
    cross-validation reuse the full-data variogram in every fold instead of
    refitting.  neighborhood, if set, restricts each residual-kriging solve
    to that many nearest residuals (solved as one stack of small
    sill-scaled systems per batch of targets).
    """

    method: str = "mpk"
    family: str = "spherical"
    n_bins: int = 15
    max_lag: float = None
    mp_tol: float = None
    max_sweeps: int = 100
    epsilon: float = 0.0
    freeze_variogram: bool = False
    neighborhood: int = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise DataError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.family not in FAMILIES:
            raise DataError(f"unknown variogram family {self.family!r}")
        if self.n_bins < 1:
            raise DataError("n_bins must be at least 1")
        if self.max_sweeps < 1:
            raise DataError("max_sweeps must be at least 1")
        if not 0 <= self.epsilon < np.inf:
            raise DataError("epsilon must be finite and nonnegative")
        if self.max_lag is not None and not 0 < self.max_lag < np.inf:
            raise DataError("max_lag must be finite and positive")
        if self.mp_tol is not None and not 0 < self.mp_tol < np.inf:
            raise DataError("mp_tol must be finite and positive")
        if self.neighborhood is not None and self.neighborhood < 1:
            raise DataError("neighborhood must be at least 1")


class SurfaceModel:
    """A fitted predictor, built from its facts: the source grid, the config,
    the polish, the residual variogram and, for impk, the spline strengths.
    Either is fitted here when None, and a given variogram's family becomes
    config.family.

    It derives the mean component (the linear effect model for mpk, the impk
    spline on the grid's spline frame, config.epsilon its ridge), then the
    residual scatter and the residual-kriging engine, shared across targets.
    Immutable; predict calls are pure and thread-safe.
    """

    def __init__(self, source_grid, config, polish, variogram=None, strengths=None):
        if variogram is not None:
            config = replace(config, family=variogram.family)
        self.method = config.method
        self.source_grid = source_grid
        self.config = config
        self.polish = polish
        if self.method == "mpk":
            self.mean_component = LinearMeanModel(polish, source_grid.lattice)
        else:
            centers, effects = _spline_frame(source_grid)
            self.mean_component = (
                biharmonic_fit(centers, effects(polish), config.epsilon) if strengths is None
                else BiharmonicModel(centers, strengths, config.epsilon))
        self._system = _residual_system(polish, source_grid.lattice, config, variogram)
        self.residual_scatter, self.variogram = self._system.scatter, self._system.model

    def mean_at(self, points):
        """Mean-surface values at an (M, 2) array of locations."""
        if self.method == "mpk":
            return linear_mean_many(self.mean_component, points)
        spacing = self.source_grid.lattice.spacing
        return self.polish.overall + biharmonic_eval_many(self.mean_component, points / spacing)


def _residual_system(polish, lattice, config, variogram=None):
    """The residual-kriging stage of a polish: a KrigingSystem over its
    residual scatter, under variogram or else the config's variogram fitted
    to that scatter."""
    scatter = residuals_as_scatter(polish, lattice)
    if variogram is None:
        emp = empirical_semivariogram(scatter, n_bins=config.n_bins, max_lag=config.max_lag)
        variogram = fit_variogram(emp, family=config.family)
    return KrigingSystem(scatter, variogram, config.neighborhood)


def fit(grid, method, config=None, variogram=None):
    """Fit a SurfaceModel of the requested method to a GridTable: median
    polish, then SurfaceModel fits the rest (for impk the spline is fitted to
    the effects alone and the overall level is added back on evaluation, so a
    shift of the values moves every prediction by exactly that shift).  A
    supplied variogram is used as it is instead of being fitted to the
    residuals, and its family becomes the model's.  Deterministic for fixed
    inputs.
    """
    config = replace(config or FitConfig(), method=method)
    polish = decompose(grid, tol=config.mp_tol, max_sweeps=config.max_sweeps)
    return SurfaceModel(grid, config, polish, variogram)


def _spline_frame(grid):
    """The impk spline's frame on grid: its centres, the present nodes in
    units of the lattice spacing (row-major), and effects(polish), its values
    there, the row plus column effects."""
    rows, cols = np.nonzero(grid.present_mask)
    return (grid.to_scatter().coords / grid.lattice.spacing,
            lambda polish: polish.row_effects[rows] + polish.col_effects[cols])


def predict_many(model, points):
    """Values and variances at an (M, 2) array of finite target locations
    (DataError otherwise, before any is predicted): one
    KrigingSystem.predict_many call, which adds the mean surface to each
    chunk of kriged residuals.  Where a chunk comes with its distances to the
    residual sites (the global path), the impk spline reads them, since its
    centres are those sites in lattice units, through one buffer of the
    first and widest chunk's size, held for the call; otherwise it is
    mean_at."""
    spacing, scratch = model.source_grid.lattice.spacing, None

    def mean(chunk, d):
        nonlocal scratch
        if d is None or model.method == "mpk":
            return model.mean_at(chunk)
        if scratch is None:
            scratch = np.empty_like(d)
        r = np.divide(d, spacing, out=scratch[:len(d)])
        return model.polish.overall + _spline_over(model.mean_component, r)
    return model._system.predict_many(points, mean)


def predict(model, s):
    """Prediction (value and residual-kriging variance) at a Location2D or
    an (x, y) pair of shape (2,) or (1, 2) (DataError otherwise)."""
    point = np.array([s.x, s.y]) if isinstance(s, Location2D) else np.asarray(s, np.float64)
    if point.shape not in ((2,), (1, 2)):
        raise DataError(f"predict takes one (x, y) location, got shape {point.shape}; "
                        "see predict_many")
    values, variances = predict_many(model, point.reshape(1, 2))
    return KrigingPrediction(value=float(values[0]), variance=float(variances[0]))


@dataclass(frozen=True)
class PredictionGrid:
    """Predicted values and variances on a uniform output lattice."""

    lattice: GridLattice
    values: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        object.__setattr__(self, "variances", _frozen(self.variances))
        shape = (self.lattice.p, self.lattice.q)
        if self.values.shape != shape or self.variances.shape != shape:
            raise DataError("grid arrays do not match the lattice shape")
        if np.any(self.variances < 0):
            raise DataError("negative variance in prediction grid")


def predict_grid(model, resolution):
    """Predict on a (rows, cols) uniform lattice over the source bounding box.

    The output lattice spans exactly the source lattice's extent; values and
    variances are laid out row-major (row index changes slowest).
    """
    p_out, q_out = resolution
    if p_out < 2 or q_out < 2:
        raise DataError("output resolution must be at least 2 x 2")
    src = model.source_grid.lattice
    xs = np.linspace(src.x_coords[0], src.x_coords[-1], q_out)
    ys = np.linspace(src.y_coords[0], src.y_coords[-1], p_out)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    values, variances = predict_many(model, points)
    return PredictionGrid(
        lattice=GridLattice(xs, ys),
        values=values.reshape(p_out, q_out),
        variances=variances.reshape(p_out, q_out),
    )


@dataclass(frozen=True)
class CvRecord:
    location: Location2D
    observed: float
    predicted: float
    error: float
    variance: float = float("nan")


@dataclass(frozen=True)
class SkippedFold:
    location: Location2D
    reason: str


@dataclass(frozen=True)
class CvReport:
    """Leave-one-out results: one record per completed fold (row-major cell
    order, with the residual-kriging variance), the folds that could not run
    and why, and how many completed folds hit max_sweeps in median polish."""

    method: str
    per_point: tuple
    skipped: tuple
    rmse: float
    config: FitConfig
    unconverged: int = 0

    @property
    def n_folds(self):
        return len(self.per_point)

    @property
    def msse(self):
        """Mean squared standardized error, error**2 / variance."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.mean([np.float64(r.error)**2 / r.variance for r in self.per_point]))


def rmse(errors):
    """Root mean squared error of a nonempty error sequence."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise DataError("rmse of an empty error list")
    return float(np.sqrt(np.mean(errors * errors)))


def loocv(grid, method, config=None):
    """Leave-one-out cross-validation of one method (see cross_validate)."""
    return cross_validate(grid, (method,), config)[0]


def _folds(grid, dropped, config, frozen=None):
    """(polish, residual variogram) of the grid less each present cell
    dropped[j] (row-major index), by stacks of 2**20 cells.  A stack's
    tables are polished as one, and their residual variograms estimated and
    fitted in one pass (kriging._semivariogram_stack and
    _variogram_fit_stack), each a DataError where it cannot be fitted;
    frozen, when given, replaces them all."""
    rows, cols = np.nonzero(grid.present_mask)
    coords = grid.to_scatter().coords
    step = max(1, 2**20 // grid.cells.size)
    for lo in range(0, len(dropped), step):
        cells = dropped[lo:lo + step]
        tables = np.repeat(grid.cells[None], len(cells), axis=0)
        tables[np.arange(len(cells)), rows[cells], cols[cells]] = np.nan
        polished = polish_stack(tables, config.mp_tol, config.max_sweeps)
        polishes = [polish_from_effects(table, float(overall), row, col, int(sweeps), bool(done))
                    for table, overall, row, col, sweeps, done in zip(tables, *polished)]
        if frozen is not None:
            variograms = [frozen] * len(cells)
        else:
            emps = _semivariogram_stack(
                coords, np.array([polish.residuals[rows, cols] for polish in polishes]),
                config.n_bins, config.max_lag, dropped=cells)
            variograms = _variogram_fit_stack(emps, config.family)
        yield from zip(polishes, variograms)


def cross_validate(grid, methods, config=None):
    """Leave-one-out cross-validation of several methods in one fold pass:
    one CvReport per method.

    Every present cell is deleted in turn (row-major order) and predicted at
    its node as a refit without it would.  The fold tables are polished as
    stacks, and one batched variogram pass serves all the folds of a stack:
    the pair distances and bins are shared, and every fold's variogram is
    fitted in one grid pass and one lockstep Brent search, to the values
    fit_variogram gives it alone.  Each fold's residual variogram and
    kriging serve every method, and the impk fold spline comes from one
    factorization.  Folds whose deletion would empty a row or column, or
    whose refit fails, are skipped with a reason, in fit's failure order:
    spline, then residual part; when every fold is skipped, the DataError
    gives their number and the first one's reason."""
    config = config or FitConfig()
    configs = [replace(config, method=m) for m in methods]
    frozen = fit(grid, "mpk", config).variogram if config.freeze_variogram else None
    lat, present = grid.lattice, grid.present_mask
    rows, cols = np.nonzero(present)
    row_counts, col_counts = present.sum(axis=1), present.sum(axis=0)
    usable = (row_counts[rows] >= 2) & (col_counts[cols] >= 2)
    folds = _folds(grid, np.flatnonzero(usable), config, frozen)
    if "impk" in methods:
        centers, effects = _spline_frame(grid)
        deletion = biharmonic_deletions(centers, config.epsilon)

    def outcomes(polish, variogram, i, xy):
        """{method: (value, variance) or skip reason} for deleted cell i."""
        means, reasons = {}, {}
        try:
            if "mpk" in methods:
                means["mpk"] = linear_mean_many(LinearMeanModel(polish, lat), xy)[0]
            if "impk" in methods:
                try:
                    means["impk"] = polish.overall + deletion(i, effects(polish))
                except PolishKrigeError as exc:
                    reasons["impk"] = f"{exc.category}: {exc}"
            if isinstance(variogram, PolishKrigeError):
                raise variogram
            resid, var = _residual_system(polish, lat, config, variogram).predict_many(xy)
        except PolishKrigeError as exc:
            return {m: reasons.get(m, f"{exc.category}: {exc}") for m in methods}
        return {m: reasons.get(m) or (float(means[m] + resid[0]), float(var[0]))
                for m in methods}

    records, skipped = {m: [] for m in methods}, {m: [] for m in methods}
    unconverged = dict.fromkeys(methods, 0)
    for i, (k, l) in enumerate(zip(rows, cols)):
        node, observed = lat.node(k, l), float(grid.cells[k, l])
        if usable[i]:
            polish, variogram = next(folds)
            fold = outcomes(polish, variogram, i, np.array([[node.x, node.y]]))
        else:
            fold = dict.fromkeys(methods, f"deletion empties row {k}" if row_counts[k] < 2
                                 else f"deletion empties column {l}")
        for m, outcome in fold.items():
            if isinstance(outcome, str):
                skipped[m].append(SkippedFold(node, outcome))
                continue
            value, variance = outcome
            records[m].append(CvRecord(node, observed, value, value - observed, variance))
            unconverged[m] += not polish.converged

    for m in methods:
        if not records[m]:
            first = skipped[m][0]
            raise DataError(f"no completed cross-validation folds ({m}): all {len(skipped[m])} "
                            f"skipped; the first, at ({first.location.x:g}, "
                            f"{first.location.y:g}): {first.reason}")
    return [CvReport(c.method, tuple(records[c.method]), tuple(skipped[c.method]),
                     rmse([r.error for r in records[c.method]]), c, unconverged[c.method])
            for c in configs]
