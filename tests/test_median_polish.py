import numpy as np
import pytest

from polishkrige import (
    DataError,
    GridLattice,
    GridTable,
    decompose,
    residuals_as_scatter,
)
from polishkrige.median_polish import polish_stack


def table(cells, x0=0.0, y0=0.0):
    cells = np.asarray(cells, dtype=np.float64)
    p, q = cells.shape
    return GridTable(GridLattice(x0 + np.arange(q), y0 + np.arange(p)), cells)


def random_holey_table(rng, p, q):
    cells = rng.normal(10.0, 2.0, size=(p, q))
    # knock out up to a quarter of the cells, keeping 2 per row and column
    holes = rng.integers(0, 2, size=(p, q)).astype(bool) & (rng.random((p, q)) < 0.4)
    for k in range(p):
        while holes[k].sum() > q - 2:
            holes[k, rng.integers(q)] = False
    for l in range(q):
        while holes[:, l].sum() > p - 2:
            holes[rng.integers(p), l] = False
    cells[holes] = np.nan
    return table(cells)


class TestWorkedExamples:
    """Cases solved independently by exact rational arithmetic."""

    def test_three_by_three_with_outlier(self):
        fit = decompose(table([[9.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]))
        assert fit.converged
        assert fit.sweeps == 2
        assert fit.overall == pytest.approx(4.0, abs=1e-15)
        np.testing.assert_allclose(fit.row_effects, [-3.0, 0.0, 3.0], atol=1e-15)
        np.testing.assert_allclose(fit.col_effects, [-1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            fit.residuals, [[9.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], atol=1e-15
        )

    def test_two_by_three_even_count_medians(self):
        fit = decompose(table([[1.0, 3.0, 6.0], [2.0, 8.0, 4.0]]))
        assert fit.converged
        assert fit.sweeps == 2
        assert fit.overall == pytest.approx(5.0, abs=1e-15)
        np.testing.assert_allclose(fit.row_effects, [-0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(fit.col_effects, [-3.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            fit.residuals, [[0.0, -2.0, 1.5], [0.0, 2.0, -1.5]], atol=1e-15
        )

    def test_constant_table_converges_in_one_sweep(self):
        fit = decompose(table(np.full((3, 4), 7.25)))
        assert fit.converged
        assert fit.sweeps == 1
        assert fit.overall == pytest.approx(7.25, abs=1e-15)
        np.testing.assert_allclose(fit.row_effects, 0.0, atol=1e-15)
        np.testing.assert_allclose(fit.col_effects, 0.0, atol=1e-15)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-15)

    def test_additive_table_has_zero_residuals(self, rng):
        rows = rng.normal(size=6)
        cols = rng.normal(size=5)
        fit = decompose(table(3.0 + rows[:, None] + cols[None, :]))
        assert fit.converged
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        # the decomposition itself need not equal (rows, cols) but must rebuild
        rebuilt = fit.overall + fit.row_effects[:, None] + fit.col_effects[None, :]
        np.testing.assert_allclose(rebuilt, 3.0 + rows[:, None] + cols[None, :], atol=1e-12)


class TestDecompositionInvariants:
    def test_identity_holds_on_random_tables(self, rng):
        for _ in range(25):
            p = int(rng.integers(3, 9))
            q = int(rng.integers(3, 9))
            grid = random_holey_table(rng, p, q)
            fit = decompose(grid)
            rebuilt = fit.overall + fit.row_effects[:, None] + fit.col_effects[None, :] + fit.residuals
            present = grid.present_mask
            scale = np.abs(grid.cells[present]).max()
            assert np.nanmax(np.abs(rebuilt[present] - grid.cells[present])) <= 1e-12 * max(scale, 1.0)
            # missing cells stay missing in the residual table
            assert np.isnan(fit.residuals[~present]).all()

    def test_residual_medians_within_tol_at_convergence(self, rng):
        # tables with missing cells can need well over the default sweep cap
        for _ in range(10):
            grid = random_holey_table(rng, 6, 7)
            tol = 1e-9 * (np.nanmax(grid.cells) - np.nanmin(grid.cells))
            fit = decompose(grid, max_sweeps=500)
            assert fit.converged
            assert np.nanmax(np.abs(np.nanmedian(fit.residuals, axis=1))) <= tol
            assert np.nanmax(np.abs(np.nanmedian(fit.residuals, axis=0))) <= tol
            assert abs(np.median(fit.row_effects)) <= tol
            assert abs(np.median(fit.col_effects)) <= tol

    @pytest.mark.parametrize("a,b", [(3.0, 2.0), (-5.0, 0.25), (0.0, -1.5)])
    def test_location_scale_equivariance(self, rng, a, b):
        grid = random_holey_table(rng, 5, 6)
        fit = decompose(grid)
        scaled = GridTable(grid.lattice, a + b * grid.cells)
        fit2 = decompose(scaled)
        assert fit2.overall == pytest.approx(a + b * fit.overall, abs=1e-10)
        np.testing.assert_allclose(fit2.row_effects, b * fit.row_effects, atol=1e-10)
        np.testing.assert_allclose(fit2.col_effects, b * fit.col_effects, atol=1e-10)
        present = grid.present_mask
        np.testing.assert_allclose(
            fit2.residuals[present], b * fit.residuals[present], atol=1e-10
        )

    def test_sweep_cap_reported_as_not_converged(self):
        # this table needs more than one sweep (see the worked 3x3 example)
        fit = decompose(table([[9.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]), max_sweeps=1)
        assert not fit.converged
        assert fit.sweeps == 1

    def test_tol_zero_demands_exact_state(self):
        fit = decompose(table([[1.0, 3.0, 6.0], [2.0, 8.0, 4.0]]), tol=0.0)
        assert fit.converged  # this example reaches an exactly stationary state

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, coal_ash_grid, tol):
        with pytest.raises(DataError):
            decompose(coal_ash_grid, tol=tol)
        with pytest.raises(DataError):
            polish_stack(coal_ash_grid.cells[None], tol)


def reference_polish(cells, tol, max_sweeps):
    """Median polish of one table with nanmedian, one sweep at a time."""
    resid = np.array(cells)
    row, col, overall = np.zeros(cells.shape[0]), np.zeros(cells.shape[1]), 0.0
    for sweep in range(1, max_sweeps + 1):
        m = np.nanmedian(resid, axis=1)
        resid -= m[:, None]
        row += m
        shift = np.median(col)
        col -= shift
        overall += shift
        m = np.nanmedian(resid, axis=0)
        resid -= m[None, :]
        col += m
        shift = np.median(row)
        row -= shift
        overall += shift
        worst = max(np.abs(np.nanmedian(resid, axis=1)).max(),
                    np.abs(np.nanmedian(resid, axis=0)).max(),
                    abs(np.median(row)), abs(np.median(col)))
        if worst <= tol:
            return overall, row, col, sweep, True
    return overall, row, col, max_sweeps, False


class TestStack:
    @pytest.mark.parametrize("max_sweeps", [25, 100])
    def test_each_table_is_polished_alone(self, rng, max_sweeps):
        # masks, value scales and so sweep counts differ across the stack
        grids = [random_holey_table(rng, 6, 7) for _ in range(12)]
        cells = np.array([g.cells * 10.0 ** rng.integers(-3, 4) for g in grids])
        stacked = polish_stack(cells, max_sweeps=max_sweeps)
        assert len(set(stacked[3].tolist())) > 1
        for b, table_cells in enumerate(cells):
            tol = 1e-9 * (np.nanmax(table_cells) - np.nanmin(table_cells))
            want = reference_polish(table_cells, tol, max_sweeps)
            assert stacked[0][b] == want[0]
            np.testing.assert_array_equal(stacked[1][b], want[1])
            np.testing.assert_array_equal(stacked[2][b], want[2])
            assert (stacked[3][b], stacked[4][b]) == want[3:]
            fit = decompose(GridTable(grids[b].lattice, table_cells), max_sweeps=max_sweeps)
            assert (fit.overall, fit.sweeps, fit.converged) == (want[0], *want[3:])

    def test_shared_tolerance(self, rng):
        cells = np.array([random_holey_table(rng, 5, 6).cells for _ in range(4)])
        overall, row, col, sweeps, converged = polish_stack(cells, tol=1e-3)
        for b in range(4):
            want = reference_polish(cells[b], 1e-3, 100)
            assert (overall[b], sweeps[b], converged[b]) == (want[0], *want[3:])


class TestAccessors:
    def test_node_mean_matches_components(self, small_table):
        fit = decompose(small_table)
        want = fit.overall + fit.row_effects[2] + fit.col_effects[4]
        grid = fit.node_mean_grid()
        assert grid.shape == (4, 5)
        assert grid[2, 4] == pytest.approx(want, abs=1e-15)

    def test_node_mean_defined_at_missing_cells(self, holey_table):
        fit = decompose(holey_table)
        v = fit.node_mean_grid()[0, 3]  # cell (0, 3) is missing from the table
        assert np.isfinite(v)

    def test_residuals_as_scatter_skips_missing(self, holey_table):
        fit = decompose(holey_table)
        s = residuals_as_scatter(fit, holey_table.lattice)
        assert s.n == holey_table.n_present
        # row-major agreement with the residual table
        present = holey_table.present_mask
        np.testing.assert_allclose(s.values, fit.residuals[present], atol=0)
