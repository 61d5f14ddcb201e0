"""Tukey median polish of a two-way table with missing cells.

Decomposes a table z[k, l] into overall + row_effect[k] + col_effect[l]
+ residual[k, l] by alternately sweeping out row and column medians.
Medians ignore missing cells; the decomposition identity holds exactly at
every present cell after every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridStructureError
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


def _vec_median(v):
    """Median of a 1-D array of known-finite values (mean of middles)."""
    s = np.sort(v)
    n = len(s)
    return 0.5 * (s[(n - 1) // 2] + s[n // 2])


def _masked_axis_median(filled, counts, axis):
    """Median along axis, missing entries pre-filled with +inf.

    counts holds the number of present entries per row (axis=1) or column
    (axis=0); the even-count median is the mean of the two middle order
    statistics.  Much faster than nanmedian for the small tables polished
    here, and called every sweep.
    """
    s = np.sort(filled, axis=axis)
    lo = (counts - 1) // 2
    hi = counts // 2
    if axis == 1:
        rows = np.arange(s.shape[0])
        return 0.5 * (s[rows, lo] + s[rows, hi])
    cols = np.arange(s.shape[1])
    return 0.5 * (s[lo, cols] + s[hi, cols])


def _post_sweep_state(resid, present, counts_row, counts_col,
                      row_effects, col_effects, tol):
    """(polished, residual row medians) after a sweep; the next sweep starts
    by removing exactly these row medians."""
    filled = np.where(present, resid, np.inf)
    row_med = _masked_axis_median(filled, counts_row, axis=1)
    col_med = _masked_axis_median(filled, counts_col, axis=0)
    polished = bool(
        np.abs(row_med).max() <= tol
        and np.abs(col_med).max() <= tol
        and abs(_vec_median(row_effects)) <= tol
        and abs(_vec_median(col_effects)) <= tol
    )
    return polished, row_med


def decompose(grid, tol=None, max_sweeps=100):
    """Run median polish on a GridTable.

    A sweep subtracts row medians from the residuals (folding them into the
    row effects), re-centres the column effects by their median (folding that
    into the overall term), then does the same for columns and row effects.
    Convergence is declared once the post-sweep state is polished: every
    residual row median, every residual column median, and the medians of
    both effect vectors are within tol of zero.

    Args:
        grid: GridTable to decompose; every row and column has at least one
            present cell, so all medians exist.
        tol: convergence tolerance; default is 1e-9 times the spread of the
            present values.
        max_sweeps: sweep budget; on exhaustion the fit is returned with
            converged=False (the decomposition identity holds regardless).
    """
    cells = grid.cells
    if tol is None:
        spread = float(np.nanmax(cells) - np.nanmin(cells))
        tol = 1e-9 * spread

    p, q = cells.shape
    present = grid.present_mask
    counts_row = present.sum(axis=1)
    counts_col = present.sum(axis=0)
    resid = np.array(cells)
    row_effects = np.zeros(p)
    col_effects = np.zeros(q)
    overall = 0.0

    sweeps = 0
    converged = False
    row_med = _masked_axis_median(np.where(present, resid, np.inf), counts_row, axis=1)
    for _ in range(max_sweeps):
        sweeps += 1

        resid -= row_med[:, None]
        row_effects += row_med
        shift = _vec_median(col_effects)
        col_effects -= shift
        overall += shift

        filled = np.where(present, resid, np.inf)
        col_med = _masked_axis_median(filled, counts_col, axis=0)
        resid -= col_med[None, :]
        col_effects += col_med
        shift = _vec_median(row_effects)
        row_effects -= shift
        overall += shift

        converged, row_med = _post_sweep_state(resid, present, counts_row, counts_col,
                                               row_effects, col_effects, tol)
        if converged:
            break

    return polish_from_effects(cells, float(overall), row_effects, col_effects,
                               sweeps, converged)


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
