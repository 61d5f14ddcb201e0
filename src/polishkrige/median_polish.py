"""Tukey median polish of a two-way table with missing cells.

Decomposes a table z[k, l] into overall + row_effect[k] + col_effect[l]
+ residual[k, l] by alternately sweeping out row and column medians.
Medians ignore missing cells; the decomposition identity holds exactly at
every present cell after every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, GridStructureError
from .spatial_core import GridTable, _frozen


@dataclass(frozen=True)
class MedianPolishFit:
    """Additive decomposition of a p x q table.

    residuals has the table's shape with NaN at missing cells, and the input
    satisfies cell == overall + row_effects[k] + col_effects[l]
    + residuals[k, l] at every present cell.
    """

    overall: float
    row_effects: np.ndarray
    col_effects: np.ndarray
    residuals: np.ndarray
    sweeps: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "row_effects", _frozen(self.row_effects))
        object.__setattr__(self, "col_effects", _frozen(self.col_effects))
        object.__setattr__(self, "residuals", _frozen(self.residuals))

    @property
    def p(self):
        return len(self.row_effects)

    @property
    def q(self):
        return len(self.col_effects)

    def node_mean_grid(self):
        """overall + row + column effect at every node, shape (p, q).

        Defined at all nodes, including cells missing from the input table.
        """
        return self.overall + self.row_effects[:, None] + self.col_effects[None, :]


def _median(v):
    """Medians along the last axis (mean of the middles) of finite values."""
    s = np.sort(v, axis=-1)
    n = s.shape[-1]
    return 0.5 * (s[..., (n - 1) // 2] + s[..., n // 2])


def _masked_median(filled, counts):
    """Medians along the last axis of a (B, m, n) stack with missing entries
    filled with +inf and counts (B, m) present entries; much faster than
    nanmedian for the small tables polished here."""
    s = np.sort(filled, axis=-1).reshape(-1, filled.shape[-1])
    rows, c = np.arange(len(s)), counts.ravel()
    return (0.5 * (s[rows, (c - 1) // 2] + s[rows, c // 2])).reshape(counts.shape)


def polish_stack(cells, tol=None, max_sweeps=100):
    """Median polish of a (B, p, q) stack of tables with missing cells NaN:
    (overall, row_effects, col_effects, sweeps, converged), stacked.

    A sweep subtracts row medians from the residuals (folding them into the
    row effects), re-centres the column effects by their median (folding that
    into the overall term), then does the same for columns and row effects.
    A table converges, and is frozen, once every residual row and column
    median and the medians of both effect vectors are within its tol
    (default 1e-9 times its spread; DataError unless finite and >= 0) of
    zero."""
    cells = np.asarray(cells, dtype=np.float64)
    b, p, q = cells.shape
    if tol is None:
        tol = 1e-9 * (np.nanmax(cells, axis=(1, 2)) - np.nanmin(cells, axis=(1, 2)))
    elif not 0 <= tol < np.inf:
        raise DataError("median-polish tol must be finite and nonnegative")
    out = (np.zeros(b), np.zeros((b, p)), np.zeros((b, q)), np.zeros(b, int), np.zeros(b, bool))
    active, tol = np.arange(b), np.broadcast_to(tol, (b,))
    resid, present = np.array(cells), ~np.isnan(cells)
    counts_row, counts_col = present.sum(axis=2), present.sum(axis=1)
    overall, row_effects, col_effects = out[0].copy(), out[1].copy(), out[2].copy()
    row_med = _masked_median(np.where(present, resid, np.inf), counts_row)
    sweep = 0
    while len(active) and sweep < max_sweeps:
        sweep += 1
        resid -= row_med[:, :, None]
        row_effects += row_med
        shift = _median(col_effects)
        col_effects -= shift[:, None]
        overall += shift

        col_med = _masked_median(np.where(present, resid, np.inf).transpose(0, 2, 1), counts_col)
        resid -= col_med[:, None, :]
        col_effects += col_med
        shift = _median(row_effects)
        row_effects -= shift[:, None]
        overall += shift

        # the next sweep starts by removing exactly these row medians
        filled = np.where(present, resid, np.inf)
        row_med = _masked_median(filled, counts_row)
        col_med = _masked_median(filled.transpose(0, 2, 1), counts_col)
        done = (np.abs(row_med).max(axis=1) <= tol) & (np.abs(col_med).max(axis=1) <= tol)
        if done.any():
            done &= (np.abs(_median(row_effects)) <= tol) & (np.abs(_median(col_effects)) <= tol)
        if done.any() or sweep == max_sweeps:
            for dst, src in zip(out, (overall, row_effects, col_effects, sweep, done)):
                dst[active] = src
            active, tol, resid, present, counts_row, counts_col = (
                a[~done] for a in (active, tol, resid, present, counts_row, counts_col))
            overall, row_effects, col_effects, row_med = (
                a[~done] for a in (overall, row_effects, col_effects, row_med))
    return out


def decompose(grid, tol=None, max_sweeps=100):
    """Median polish (polish_stack) of one GridTable; on exhausting max_sweeps
    converged is False, and the decomposition identity holds regardless."""
    overall, row_effects, col_effects, sweeps, converged = polish_stack(
        grid.cells[None], tol, max_sweeps)
    return polish_from_effects(grid.cells, float(overall[0]), row_effects[0], col_effects[0],
                               int(sweeps[0]), bool(converged[0]))


def polish_from_effects(cells, overall, row_effects, col_effects, sweeps, converged):
    """The MedianPolishFit of a p x q table with the given effects.

    residuals = cells - (overall + row + col), so they are NaN exactly at the
    missing cells and the decomposition identity holds by construction.
    Raises GridStructureError if the effect lengths do not match the table.
    """
    if (len(row_effects), len(col_effects)) != cells.shape:
        raise GridStructureError(f"effects are {len(row_effects)} x {len(col_effects)} "
                                 f"but the table is {cells.shape[0]} x {cells.shape[1]}")
    residuals = cells - (overall + row_effects[:, None] + col_effects[None, :])
    return MedianPolishFit(overall, row_effects, col_effects, residuals, sweeps, converged)


def node_mean(fit, k, l):
    """Fitted mean overall + row_effects[k] + col_effects[l] at node (k, l).

    Raises IndexError for indices outside 0..p-1 / 0..q-1 (no negative
    wrap-around).
    """
    if not (0 <= k < fit.p and 0 <= l < fit.q):
        raise IndexError(f"node ({k}, {l}) outside {fit.p} x {fit.q} lattice")
    return fit.overall + float(fit.row_effects[k]) + float(fit.col_effects[l])


def residuals_as_scatter(fit, lattice):
    """Present-cell residuals as a ScatterSet at their lattice nodes.

    Row-major order (row index varies slowest).  Raises GridStructureError
    if the lattice shape does not match the fit.
    """
    return GridTable(lattice, fit.residuals).to_scatter()
