"""Cross-validation and fitted surfaces respect the invariances the model
implies.

Shifting the values by a shifts every prediction by a; scaling them by b
scales predictions by b and kriging variances by b**2; translating or
uniformly scaling the coordinates, or reordering the CSV rows, changes
nothing.  Each test loops over seeded random lattice tables under one
variogram family and checks both methods to about 1e-6 of the data range:
the gaussian profile is flat to rounding, so last-bit differences in the
residuals move its predictions by up to about 2e-7 of the range.  Surfaces
are checked through fit and predict_many, over all residuals and over the
16 nearest.

Swapping x and y is not an invariance: median polish depends on its sweep
order, and decompose sweeps rows first, so the transposed table polishes to
other effects (test_axis_swap_moves_the_node_means).
"""

import functools

import numpy as np
import pytest

from conftest import DATA_DIR
from polishkrige import (
    FitConfig,
    GridLattice,
    GridTable,
    cross_validate,
    decompose,
    fit,
    load_observations_csv,
    predict_many,
    to_grid,
)

SEEDS = (0, 1)


def families_with(values):
    """(family, value) cases over the three variogram families."""
    return [(f, v) for f in ("spherical", "exponential", "gaussian") for v in values]


def random_grid(seed):
    """A p x q table with row and column trends, noise and holes (two or more
    present cells per line) on a regular lattice with its own origin and
    spacings."""
    rng = np.random.default_rng(seed)
    p, q = rng.integers(5, 8, size=2)
    x = rng.uniform(-20.0, 20.0) + rng.choice([0.5, 1.0, 2.5]) * np.arange(q)
    y = rng.uniform(-20.0, 20.0) + rng.choice([0.5, 1.0, 2.5]) * np.arange(p)
    cells = (rng.normal(0.0, 2.0, size=p)[:, None] + rng.normal(0.0, 1.0, size=q)
             + rng.normal(0.0, 0.7, size=(p, q)) + 10.0)
    holes = rng.random((p, q)) < 0.15
    for k in range(p):
        holes[k, np.flatnonzero(holes[k])[max(0, q - 2):]] = False
    for l in range(q):
        holes[np.flatnonzero(holes[:, l])[max(0, p - 2):], l] = False
    cells[holes] = np.nan
    return GridTable(GridLattice(x, y), cells)


def cv(grid, family):
    return cross_validate(grid, ("mpk", "impk"), FitConfig(family=family))


@functools.lru_cache(maxsize=None)
def base_cv(seed, family):
    return cv(random_grid(seed), family)


def data_range(grid):
    return float(np.nanmax(grid.cells) - np.nanmin(grid.cells))


def assert_transformed(got, want, spread, shift=0.0, scale=1.0):
    """got equals want with predictions mapped to scale * p + shift and
    variances to scale**2 * v, to 1e-6 of the (transformed) data range."""
    tol = 1e-6 * spread * abs(scale)
    for g, w in zip(got, want, strict=True):
        assert [s.reason.split(":")[0] for s in g.skipped] == \
            [s.reason.split(":")[0] for s in w.skipped]
        np.testing.assert_allclose([r.predicted for r in g.per_point],
                                   [scale * r.predicted + shift for r in w.per_point],
                                   rtol=0, atol=tol)
        np.testing.assert_allclose([r.variance for r in g.per_point],
                                   [scale**2 * r.variance for r in w.per_point],
                                   rtol=0, atol=tol * spread * abs(scale))


def relocated(grid, scale, shift_x=0.0, shift_y=0.0):
    lat = grid.lattice
    return GridTable(GridLattice(scale * lat.x_coords + shift_x, scale * lat.y_coords + shift_y),
                     grid.cells)


@pytest.mark.parametrize("family,shift", families_with([1e3, -7.5]))
def test_value_shift(family, shift):
    for seed in SEEDS:
        grid = random_grid(seed)
        got = cv(GridTable(grid.lattice, grid.cells + shift), family)
        assert_transformed(got, base_cv(seed, family), data_range(grid), shift=shift)


@pytest.mark.parametrize("family,scale", families_with([1e-3, -2.0, 1e4]))
def test_value_scale(family, scale):
    for seed in SEEDS:
        grid = random_grid(seed)
        got = cv(GridTable(grid.lattice, grid.cells * scale), family)
        assert_transformed(got, base_cv(seed, family), data_range(grid), scale=scale)


@pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
def test_coordinate_translation(family):
    rng = np.random.default_rng(99)
    for seed in SEEDS:
        grid = random_grid(seed)
        moved = relocated(grid, 1.0, *rng.uniform(-1e3, 1e3, size=2))
        assert_transformed(cv(moved, family), base_cv(seed, family), data_range(grid))


@pytest.mark.parametrize("family,scale", families_with([0.1, 1e3]))
def test_coordinate_scale(family, scale):
    for seed in SEEDS:
        grid = random_grid(seed)
        assert_transformed(cv(relocated(grid, scale), family), base_cv(seed, family),
                           data_range(grid))


@pytest.mark.parametrize("family", ["spherical", "exponential", "gaussian"])
def test_csv_row_order(family, tmp_path):
    rng = np.random.default_rng(5)
    for seed in SEEDS:
        grid = random_grid(seed)
        scatter = grid.to_scatter()
        rows = [f"{x!r},{y!r},{z!r}" for (x, y), z in zip(scatter.coords.tolist(),
                                                            scatter.values.tolist())]
        runs = []
        for order in (np.arange(len(rows)), rng.permutation(len(rows))):
            path = tmp_path / f"rows{seed}.csv"
            path.write_text("\n".join(["x,y,z"] + [rows[i] for i in order]) + "\n")
            runs.append(cv(to_grid(load_observations_csv(path)), family))
        assert_transformed(runs[1], runs[0], data_range(grid))


# ------------------------------------------------------------ fitted surfaces

NEIGHBORHOODS = (None, 16)
FAMILIES = ("spherical", "exponential", "gaussian")


def surface_targets(grid, seed):
    """Lattice nodes, cell centres and seeded points over the lattice's box."""
    lat = grid.lattice
    xs = np.concatenate([lat.x_coords, (lat.x_coords[:-1] + lat.x_coords[1:]) / 2])
    ys = np.concatenate([lat.y_coords, (lat.y_coords[:-1] + lat.y_coords[1:]) / 2])
    gx, gy = np.meshgrid(xs, ys)
    rng = np.random.default_rng([seed, 4])
    box = rng.uniform(size=(40, 2)) * [np.ptp(lat.x_coords), np.ptp(lat.y_coords)]
    return np.vstack([np.column_stack([gx.ravel(), gy.ravel()]),
                      box + [lat.x_coords[0], lat.y_coords[0]]])


def surfaces(grid, family, neighborhood, points):
    """(values, variances) of mpk and impk at points, from fit and predict_many."""
    config = FitConfig(family=family, neighborhood=neighborhood)
    return [predict_many(fit(grid, m, config), points) for m in ("mpk", "impk")]


@functools.lru_cache(maxsize=None)
def base_surfaces(seed, family, neighborhood):
    grid = random_grid(seed)
    return surfaces(grid, family, neighborhood, surface_targets(grid, seed))


def assert_surfaces(got, want, spread, shift=0.0, scale=1.0):
    """As assert_transformed, for the (values, variances) of each method."""
    tol = 1e-6 * spread * abs(scale)
    for (values, variances), (base_values, base_variances) in zip(got, want, strict=True):
        np.testing.assert_allclose(values, scale * base_values + shift, rtol=0, atol=tol)
        np.testing.assert_allclose(variances, scale**2 * base_variances, rtol=0,
                                   atol=tol * spread * abs(scale))


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
@pytest.mark.parametrize("shift", [1e3, -7.5])
@pytest.mark.parametrize("family", FAMILIES)
def test_surface_value_shift(family, shift, neighborhood):
    for seed in SEEDS:
        grid = random_grid(seed)
        got = surfaces(GridTable(grid.lattice, grid.cells + shift), family, neighborhood,
                       surface_targets(grid, seed))
        assert_surfaces(got, base_surfaces(seed, family, neighborhood), data_range(grid),
                        shift=shift)


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
@pytest.mark.parametrize("scale", [1e-3, -2.0, 1e4])
@pytest.mark.parametrize("family", FAMILIES)
def test_surface_value_scale(family, scale, neighborhood):
    for seed in SEEDS:
        grid = random_grid(seed)
        got = surfaces(GridTable(grid.lattice, grid.cells * scale), family, neighborhood,
                       surface_targets(grid, seed))
        assert_surfaces(got, base_surfaces(seed, family, neighborhood), data_range(grid),
                        scale=scale)


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_surface_coordinate_translation(family, neighborhood):
    rng = np.random.default_rng(99)
    for seed in SEEDS:
        grid = random_grid(seed)
        shift = rng.uniform(-1e3, 1e3, size=2)
        got = surfaces(relocated(grid, 1.0, *shift), family, neighborhood,
                       surface_targets(grid, seed) + shift)
        assert_surfaces(got, base_surfaces(seed, family, neighborhood), data_range(grid))


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
@pytest.mark.parametrize("scale", [0.1, 1e3])
@pytest.mark.parametrize("family", FAMILIES)
def test_surface_coordinate_scale(family, scale, neighborhood):
    for seed in SEEDS:
        grid = random_grid(seed)
        got = surfaces(relocated(grid, scale), family, neighborhood,
                       scale * surface_targets(grid, seed))
        assert_surfaces(got, base_surfaces(seed, family, neighborhood), data_range(grid))


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
@pytest.mark.parametrize("family", FAMILIES)
def test_surface_csv_row_order(family, neighborhood, tmp_path):
    rng = np.random.default_rng(5)
    for seed in SEEDS:
        grid = random_grid(seed)
        scatter = grid.to_scatter()
        rows = [f"{x!r},{y!r},{z!r}" for (x, y), z in zip(scatter.coords.tolist(),
                                                            scatter.values.tolist())]
        runs = []
        for order in (np.arange(len(rows)), rng.permutation(len(rows))):
            path = tmp_path / f"rows{seed}.csv"
            path.write_text("\n".join(["x,y,z"] + [rows[i] for i in order]) + "\n")
            runs.append(surfaces(to_grid(load_observations_csv(path)), family, neighborhood,
                                 surface_targets(grid, seed)))
        assert_surfaces(runs[1], runs[0], data_range(grid))


# ------------------------------------------------------------ axis order


def test_axis_swap_moves_the_node_means(tmp_path):
    # rows are swept first, so polishing the transposed coal-ash table moves
    # the node means by up to 1.61; a symmetric polish would change this test
    text = (DATA_DIR / "coal_ash.csv").read_text()
    header, body = text.split("\n", 1)
    assert header == "x,y,z"
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("y,x,z\n" + body)
    means = [decompose(to_grid(load_observations_csv(path))).node_mean_grid()
             for path in (DATA_DIR / "coal_ash.csv", swapped)]
    assert means[1].shape == means[0].T.shape
    assert np.abs(means[1].T - means[0]).max() == pytest.approx(1.609, abs=1e-3)
