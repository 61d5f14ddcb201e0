import time
import timeit

import numpy as np
import pytest
from scipy.spatial import cKDTree

from polishkrige import (
    DataError,
    DuplicateLocationError,
    GridLattice,
    GridStructureError,
    GridTable,
    Location2D,
    ScatterSet,
    load_observations_csv,
    to_grid,
)
from polishkrige.spatial_core import _closest_pair_within, _snap_tolerance, axis_cells


class TestLocationAndObservation:
    def test_location_fields(self):
        s = Location2D(1.5, -2.0)
        assert (s.x, s.y) == (1.5, -2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_coordinate_rejected(self, bad):
        with pytest.raises(DataError):
            Location2D(bad, 0.0)
        with pytest.raises(DataError):
            Location2D(0.0, bad)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(DataError):
            ScatterSet([(0.0, 0.0)], [float("nan")])

    def test_locations_hashable(self):
        assert Location2D(1.0, 2.0) == Location2D(1.0, 2.0)
        assert len({Location2D(1.0, 2.0), Location2D(1.0, 2.0)}) == 1


class TestScatterSet:
    def test_arrays_and_observations_agree(self):
        s = ScatterSet([(0.0, 0.0), (1.0, 2.0)], [3.0, 4.0])
        assert s.n == 2
        np.testing.assert_array_equal(s.coords, [(0.0, 0.0), (1.0, 2.0)])
        np.testing.assert_array_equal(s.values, [3.0, 4.0])

    def test_coords_are_read_only(self):
        s = ScatterSet([(0.0, 0.0), (1.0, 2.0)], [3.0, 4.0])
        with pytest.raises(ValueError):
            s.coords[0, 0] = 9.0

    def test_exact_duplicate_rejected(self):
        with pytest.raises(DuplicateLocationError) as info:
            ScatterSet([(0.0, 0.0), (5.0, 5.0), (0.0, 0.0)], [1.0, 2.0, 3.0])
        assert info.value.pair == (0, 2)

    def test_near_duplicate_within_default_tolerance_rejected(self):
        # span is 10, so the default separation floor is 1e-8
        with pytest.raises(DuplicateLocationError):
            ScatterSet([(0.0, 0.0), (10.0, 0.0), (0.0, 5e-9)], [1.0, 2.0, 3.0])

    def test_close_but_distinct_points_kept(self):
        s = ScatterSet([(0.0, 0.0), (10.0, 0.0), (0.0, 1e-6)], [1.0, 2.0, 3.0])
        assert s.n == 3

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            ScatterSet([(0.0, 0.0)], [1.0, 2.0])

    def test_equality_is_by_content(self):
        a = ScatterSet([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0])
        b = ScatterSet([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0])
        c = ScatterSet([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.5])
        assert a == b
        assert a != c



def kd_tree_pair(coords, tol):
    """The reference: every pair within tol from a KD-tree, then the least."""
    pairs = cKDTree(coords).query_pairs(r=tol, output_type="ndarray")
    return min((tuple(int(v) for v in sorted(p)) for p in pairs), default=None)


class TestClosestPair:
    """The sort-based duplicate check finds the pair a KD-tree would."""

    @staticmethod
    def check(coords, tol):
        want = kd_tree_pair(coords, tol)
        assert _closest_pair_within(coords, tol) == want
        return want

    @pytest.mark.parametrize("seed", range(12))
    def test_planted_pairs_just_inside_and_outside(self, seed):
        rng = np.random.default_rng([seed, 7])
        n, tol = int(rng.integers(10, 400)), 1e-3
        coords = rng.uniform(-1.0, 1.0, size=(n, 2)) * 10.0 ** rng.integers(-1, 3)
        angles = [0.0, np.pi / 4, np.pi / 2, rng.uniform(0, 2 * np.pi), -np.pi / 3]
        for k, (i, j) in enumerate(rng.choice(n, (5, 2), replace=False)):
            # alternately just inside and just outside tol
            r = tol * (1 - 1e-6 if k % 2 == seed % 2 else 1 + 1e-6)
            coords[j] = coords[i] + r * np.array([np.cos(angles[k]), np.sin(angles[k])])
            self.check(coords, tol)
        assert self.check(coords, tol) is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_duplicates(self, seed):
        rng = np.random.default_rng([seed, 8])
        coords = rng.normal(size=(int(rng.integers(3, 300)), 2))
        for _ in range(int(rng.integers(1, 4))):
            copies = rng.choice(len(coords), int(rng.integers(2, 4)), replace=False)
            coords[copies] = coords[copies[0]]
            assert self.check(coords, _snap_tolerance(coords)) is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_tolerance_on_lattice_units(self, seed):
        # the spline centres: present nodes in lattice units, checked at tol 0
        rng = np.random.default_rng([seed, 9])
        ys, xs = np.mgrid[0:13, 0:16]
        coords = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        coords = coords[rng.permutation(len(coords))[:int(rng.integers(2, 208))]]
        assert self.check(coords, 0.0) is None
        coords[rng.integers(len(coords))] += 1e-12  # near is not equal at tol 0
        assert self.check(coords, 0.0) is None
        i, j = rng.choice(len(coords), 2, replace=False)
        coords[j] = coords[i]
        assert self.check(coords, 0.0) == (min(i, j), max(i, j))

    @pytest.mark.parametrize("step", [0.6, 0.7, 0.71, 0.72, 0.9, 1.0 + 1e-6])
    @pytest.mark.parametrize("slope", [1.0, -1.0, 0.5])
    def test_diagonal_chains(self, step, slope):
        # every gap is within tol on each axis, so one run holds the chain;
        # neighbours are within tol only for step * hypot(1, slope) <= 1
        tol = 1e-3
        k = np.arange(500.0)[np.random.default_rng(3).permutation(500)]
        coords = np.column_stack([k, slope * k]) * (step * tol)
        self.check(coords, tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_clouds(self, seed):
        # many locations per run, so partners are rarely neighbours in y
        rng = np.random.default_rng([seed, 10])
        tol = 1e-3
        coords = rng.uniform(0.0, 12 * tol, size=(int(rng.integers(20, 300)), 2))
        coords[:, 0] += rng.integers(0, 3, size=len(coords)) * 0.5
        assert self.check(coords, tol) is not None

    def test_partner_beyond_a_location_between_them_in_y(self):
        # one x run, sorted by y: (0, 0), then (5t, 0.5t), then its partner
        # (0, 0.9t); points from x = 0.9t to 4.5t, far apart above, chain the run
        t = 1e-3
        chain = [(0.9 * k * t, 100 * k * t) for k in range(1, 6)]
        coords = np.array([(5 * t, 0.5 * t), *chain, (0.0, 0.9 * t), (0.0, 0.0)])
        assert self.check(coords, t) == (6, 7)

    def test_points_exactly_tol_apart_are_a_pair(self):
        tol = 2.0**-10  # lattice coordinates and their differences are exact
        ys, xs = np.mgrid[0:5, 0:4] * tol
        coords = np.column_stack([xs.ravel(), ys.ravel()])[::-1]
        assert self.check(coords, tol) == (0, 1)
        assert self.check(coords, tol * (1 - 1e-12)) is None

    def test_many_copies_of_two_locations_are_found_fast(self):
        coords = np.tile([[0.0, 0.0], [3.0, 4.0]], (50_000, 1))
        start = time.perf_counter()
        with pytest.raises(DuplicateLocationError) as info:
            ScatterSet(coords, np.zeros(len(coords)))
        assert time.perf_counter() - start < 2.0
        assert info.value.pair == (0, 2)

    def test_no_slower_than_the_kd_tree_on_a_survey_lattice(self):
        # every cv fold checks its 207 residual sites
        ys, xs = np.mgrid[0:13, 0:16]
        coords = np.column_stack([xs.ravel(), ys.ravel()])[:207] * 2.5
        tol = _snap_tolerance(coords)
        assert self.check(coords, tol) is None

        # best of interleaved rounds, so that a busy spell slows both sides
        rounds = [[timeit.timeit(lambda: call(coords, tol), number=100)
                   for call in (_closest_pair_within, kd_tree_pair)] for _ in range(9)]
        assert min(new for new, _ in rounds) < min(old for _, old in rounds)


class TestGridLattice:
    def test_shape_properties(self):
        lat = GridLattice([0.0, 1.0, 2.5], [10.0, 20.0])
        assert (lat.p, lat.q) == (2, 3)

    def test_node_lookup(self):
        lat = GridLattice([0.0, 1.0, 2.5], [10.0, 20.0])
        assert lat.node(1, 2) == Location2D(2.5, 20.0)

    @pytest.mark.parametrize("xs", [[0.0], [1.0, 1.0, 2.0], [2.0, 1.0]])
    def test_bad_axis_rejected(self, xs):
        with pytest.raises(GridStructureError):
            GridLattice(xs, [0.0, 1.0])


class TestGridTable:
    def test_missing_cells_are_nan(self, holey_table):
        assert holey_table.n_present == 26
        assert not holey_table.present_mask[0, 3]

    def test_row_without_data_rejected(self):
        lat = GridLattice([0.0, 1.0], [0.0, 1.0])
        cells = np.array([[1.0, 2.0], [np.nan, np.nan]])
        with pytest.raises(GridStructureError):
            GridTable(lat, cells)

    def test_column_without_data_rejected(self):
        lat = GridLattice([0.0, 1.0], [0.0, 1.0])
        cells = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(GridStructureError):
            GridTable(lat, cells)

    def test_to_scatter_row_major(self, holey_table):
        s = holey_table.to_scatter()
        assert s.n == holey_table.n_present
        # first row: x = 0,1,2,4,5 at y = 0 (x=3 missing)
        np.testing.assert_array_equal(s.coords[:5, 0], [0.0, 1.0, 2.0, 4.0, 5.0])
        np.testing.assert_array_equal(s.coords[:5, 1], np.zeros(5))

    def test_drop_cell(self, small_table):
        reduced = small_table.drop_cell(1, 2)
        assert reduced.n_present == small_table.n_present - 1
        assert not reduced.present_mask[1, 2]
        # the original is untouched
        assert small_table.present_mask[1, 2]

    def test_drop_absent_cell_rejected(self, holey_table):
        with pytest.raises(GridStructureError):
            holey_table.drop_cell(0, 3)

    def test_wrong_shape_rejected(self):
        lat = GridLattice([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(GridStructureError):
            GridTable(lat, np.ones((3, 2)))


class TestToGrid:
    def test_round_trip_from_table(self, holey_table):
        grid = to_grid(holey_table.to_scatter())
        np.testing.assert_array_equal(grid.lattice.x_coords, holey_table.lattice.x_coords)
        np.testing.assert_array_equal(grid.lattice.y_coords, holey_table.lattice.y_coords)
        both = np.isnan(grid.cells) == np.isnan(holey_table.cells)
        assert both.all()

    def test_jittered_coordinates_snap_to_shared_axis(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (0.0 + 4e-12, 1.0), (1.0, 1.0 + 3e-12)]
        grid = to_grid(ScatterSet(coords, [1.0, 2.0, 3.0, 4.0]))
        assert grid.lattice.q == 2
        assert grid.lattice.p == 2

    def test_exact_lattice_survives_a_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        xs = np.cumsum(rng.uniform(0.1, 0.9, size=6)) + 0.1
        ys = np.cumsum(rng.uniform(0.1, 0.9, size=7)) - 2.3
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        rows = [f"{x!r},{y!r},{v!r}" for x, y, v in
                zip(gx.ravel().tolist(), gy.ravel().tolist(), rng.normal(size=gx.size).tolist())]
        path = tmp_path / "lattice.csv"
        path.write_text("\n".join(["x,y,z"] + rows) + "\n")
        lattice = to_grid(load_observations_csv(path)).lattice
        assert lattice.x_coords.tobytes() == xs.tobytes()
        assert lattice.y_coords.tobytes() == ys.tobytes()

    def test_two_points_in_one_cell_rejected(self):
        # 1.3e-9 apart, so distinct locations under the span-1 tolerance of
        # 1e-9, yet 9e-10 apart on each axis, so they snap to one node
        s = ScatterSet([(0.0, 0.0), (9e-10, 9e-10), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                       [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(DuplicateLocationError, match="same grid cell"):
            to_grid(s)

    def test_single_row_rejected(self):
        s = ScatterSet([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [1.0, 2.0, 3.0])
        with pytest.raises(GridStructureError):
            to_grid(s)


class TestCellContaining:
    """axis_cells on each axis of the lattice: the index of the cell's lower
    node, the boundary pair outside the extent."""

    lat = GridLattice([0.0, 1.0, 2.0, 4.0], [0.0, 10.0, 20.0])

    def cell(self, x, y):
        return int(axis_cells(self.lat.x_coords, x)), int(axis_cells(self.lat.y_coords, y))

    def test_interior_point(self):
        assert self.cell(2.5, 12.0) == (2, 1)

    def test_node_belongs_to_lower_cell(self):
        assert self.cell(1.0, 10.0) == (0, 0)

    def test_upper_boundary_belongs_to_last_cell(self):
        assert self.cell(4.0, 20.0) == (2, 1)

    def test_outside_is_flagged(self):
        col, _ = self.cell(-0.5, 5.0)
        assert col == 0

    def test_side_flags_mark_crossed_edges(self):
        assert self.cell(5.0, -1.0) == (2, 0)


class TestLoadCsv:
    def write(self, tmp_path, text, name="pts.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_default_columns(self, tmp_path):
        path = self.write(tmp_path, "x,y,z\n1,2,3.5\n4,5,6.5\n")
        s = load_observations_csv(path)
        assert s.n == 2
        assert (tuple(s.coords[0]), s.values[0]) == ((1.0, 2.0), 3.5)

    def test_renamed_columns_and_delimiter(self, tmp_path):
        # x, y and z are found by header name in any order, other columns are
        # ignored, and the delimiter is always a comma
        path = self.write(tmp_path, "z,id,y,x\n3,a,2,1\n6,b,5,4\n", name="alt.csv")
        s = load_observations_csv(path)
        np.testing.assert_array_equal(s.coords, [(1.0, 2.0), (4.0, 5.0)])
        np.testing.assert_array_equal(s.values, [3.0, 6.0])
        path = self.write(tmp_path, "x;y;z\n1;2;3\n", name="semicolon.csv")
        with pytest.raises(DataError, match="lacks required columns"):
            load_observations_csv(path)

    def test_missing_column_reported(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(DataError, match="z"):
            load_observations_csv(path)

    def test_bad_number_reports_file_line(self, tmp_path):
        path = self.write(tmp_path, "x,y,z\n1,2,3\n4,oops,6\n")
        with pytest.raises(DataError, match="line 3"):
            load_observations_csv(path)

    def test_duplicate_reports_both_lines(self, tmp_path):
        path = self.write(tmp_path, "x,y,z\n1,2,3\n5,5,1\n1,2,9\n")
        with pytest.raises(DuplicateLocationError, match="lines 2 and 4"):
            load_observations_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "x,y,z\n")
        with pytest.raises(DataError):
            load_observations_csv(path)
