"""Data model for scattered 2-D observations and grid lattices.

Provides CSV ingestion and grid-structure inference from scattered
coordinates (snapping to a lattice).  All containers are immutable after
construction (backing arrays are frozen) and safe to share across threads
for reading.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DuplicateLocationError, GridStructureError


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Location2D:
    """A site s = (x, y) in the plane; both coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DataError(f"non-finite location ({self.x}, {self.y})")


class ScatterSet:
    """An ordered set of observations with pairwise-distinct locations.

    Internally array-backed: ``coords`` is (n, 2) and ``values`` is (n,).
    Distinctness is enforced within the snap tolerance (_snap_tolerance), so
    text round-trip noise never splits a point but real neighbours never
    merge.
    """

    def __init__(self, coords, values):
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        values = np.asarray(values, dtype=np.float64).ravel()
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise DataError(f"coords must be (n, 2), got {coords.shape}")
        if coords.shape[0] != values.shape[0]:
            raise DataError("coords and values length mismatch")
        if coords.shape[0] < 1:
            raise DataError("scatter set needs at least one observation")
        if not np.all(np.isfinite(coords)):
            raise DataError("non-finite coordinate in scatter set")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite value in scatter set")

        tol = _snap_tolerance(coords)
        pair = _closest_pair_within(coords, tol)
        if pair is not None:
            i, j = pair
            err = DuplicateLocationError(
                f"observations {i} and {j} share location "
                f"({coords[i, 0]:g}, {coords[i, 1]:g}) within tolerance {tol:g}"
            )
            err.pair = (i, j)
            raise err

        self.coords = _frozen(coords)
        self.values = _frozen(values)

    @property
    def n(self):
        return self.coords.shape[0]

    def __eq__(self, other):
        if not isinstance(other, ScatterSet):
            return NotImplemented
        return np.array_equal(self.coords, other.coords) and np.array_equal(
            self.values, other.values
        )


def _snap_tolerance(coords):
    """1e-9 times the larger coordinate span of an (n, 2) array: closer
    locations are one location, and closer coordinates one lattice node."""
    return 1e-9 * float((coords.max(axis=0) - coords.min(axis=0)).max())


def _closest_pair_within(coords, tol):
    """The least (i, j), i < j, of two rows of an (n, 2) array at most tol
    apart (np.hypot distance), or None, found by sorting.

    A pair within tol is within tol on each axis, so it lies in one run of
    the points sorted by x whose gaps are at most tol, and is at most tol
    apart in y there.  Sorted by run, then y, then x, equal points are
    adjacent, and each distinct location is measured only against the later
    ones in its run up to tol higher in y: beyond the O(n log n) sorts, the
    work grows with those near pairs of locations, not with the copies of
    one.  The least pair is (i, j) with i the least index that has a
    partner (a partner below i would be less) and j the least partner of i.
    """
    if len(coords) < 2:
        return None
    x, y = coords[:, 0], coords[:, 1]
    order = np.argsort(x, kind="stable")
    run = np.concatenate([[0], np.cumsum(np.diff(x[order]) > tol)])
    sort = np.lexsort((x[order], y[order], run))
    order, run = order[sort], run[sort]
    xs, ys = x[order], y[order]
    if not ((run[1:] == run[:-1]) & (ys[1:] - ys[:-1] <= tol)).any():
        return None
    # the distinct locations, at their first copies; one held twice is close
    loc = np.flatnonzero(np.concatenate([[True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])]))
    copies = np.diff(loc, append=len(order))
    close = copies > 1
    # each location against the one `step` later
    first = np.arange(len(loc))
    for step in range(1, len(loc)):
        first = first[first + step < len(loc)]
        a, b = loc[first], loc[first + step]
        near = (run[a] == run[b]) & (ys[b] - ys[a] <= tol)
        first, a, b = first[near], a[near], b[near]
        if not len(first):
            break
        hit = first[np.hypot(xs[b] - xs[a], ys[b] - ys[a]) <= tol]
        close[hit] = close[hit + step] = True
    if not close.any():
        return None
    i = order[np.repeat(close, copies)].min()
    partners = np.flatnonzero(np.hypot(x - x[i], y - y[i]) <= tol)
    return int(i), int(partners[partners > i][0])


@dataclass(frozen=True)
class GridLattice:
    """Strictly increasing column (x) and row (y) coordinates of a lattice."""

    x_coords: np.ndarray
    y_coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_coords", _frozen(self.x_coords))
        object.__setattr__(self, "y_coords", _frozen(self.y_coords))
        for name, c in (("x", self.x_coords), ("y", self.y_coords)):
            if c.ndim != 1 or len(c) < 2:
                raise GridStructureError(
                    f"lattice needs at least 2 distinct {name} coordinates, got {len(c)}"
                )
            if not np.all(np.isfinite(c)):
                raise GridStructureError(f"non-finite lattice {name} coordinate")
            if not np.all(np.diff(c) > 0):
                raise GridStructureError(f"lattice {name} coordinates not strictly increasing")

    @property
    def q(self):
        """Number of columns."""
        return len(self.x_coords)

    @property
    def p(self):
        """Number of rows."""
        return len(self.y_coords)

    @property
    def spacing(self):
        """The smallest gap between adjacent nodes on either axis."""
        return float(min(np.diff(self.x_coords).min(), np.diff(self.y_coords).min()))

    def node(self, k, l):
        """Location of the lattice node at row k, column l (0-based)."""
        return Location2D(float(self.x_coords[l]), float(self.y_coords[k]))


class GridTable:
    """A p x q table of optionally-missing values on a GridLattice.

    Missing cells are NaN.  Every row and every column must contain at least
    one present value (medians must exist downstream).
    """

    def __init__(self, lattice, cells):
        cells = np.asarray(cells, dtype=np.float64)
        if cells.shape != (lattice.p, lattice.q):
            raise GridStructureError(
                f"cells shape {cells.shape} does not match lattice "
                f"({lattice.p} rows, {lattice.q} cols)"
            )
        present = ~np.isnan(cells)
        empty_rows = np.flatnonzero(~present.any(axis=1))
        if empty_rows.size:
            raise GridStructureError(f"rows {empty_rows.tolist()} are entirely missing")
        empty_cols = np.flatnonzero(~present.any(axis=0))
        if empty_cols.size:
            raise GridStructureError(f"columns {empty_cols.tolist()} are entirely missing")
        if np.any(np.isinf(cells)):
            raise GridStructureError("infinite cell value")
        self.lattice = lattice
        self.cells = _frozen(cells)

    @property
    def present_mask(self):
        return ~np.isnan(self.cells)

    @property
    def n_present(self):
        return int(self.present_mask.sum())

    def to_scatter(self):
        """Present cells as a ScatterSet, row-major (row index outer)."""
        rows, cols = np.nonzero(self.present_mask)
        coords = np.column_stack(
            [self.lattice.x_coords[cols], self.lattice.y_coords[rows]]
        )
        return ScatterSet(coords, self.cells[rows, cols])

    def drop_cell(self, k, l):
        """A copy of this table with cell (row k, col l) made missing.

        Raises GridStructureError if the deletion would empty row k or
        column l.
        """
        if not self.present_mask[k, l]:
            raise GridStructureError(f"cell ({k}, {l}) is already missing")
        cells = np.array(self.cells)
        cells[k, l] = np.nan
        return GridTable(self.lattice, cells)


def load_observations_csv(path):
    """Read one observation per data row from a comma-separated file.

    The first non-blank line is a header; the columns named ``x``, ``y`` and
    ``z`` are found by name, in any order, and other columns are ignored.
    Blank lines are ignored.  Row order is preserved.

    Returns:
        ScatterSet with one observation per data row.

    Raises:
        DataError: missing/unreadable file, missing column, or a non-numeric
            field (the message names the offending file line).
        DuplicateLocationError: two rows share a location within tolerance
            (the message names both file lines).
    """
    try:
        fh = open(path, "r", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    coords = []
    values = []
    line_numbers = []
    with fh:
        reader = csv.reader(fh)
        header = None
        for line_no, row in enumerate(reader, start=1):
            if not row or all(not field.strip() for field in row):
                continue
            if header is None:
                header = [h.strip() for h in row]
                try:
                    ix, iy, iz = map(header.index, "xyz")
                except ValueError:
                    raise DataError(
                        f"{path}: header {header} lacks required columns (x, y, z)"
                    ) from None
                continue
            try:
                x = float(row[ix])
                y = float(row[iy])
                z = float(row[iz])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: line {line_no}: non-numeric or short row") from exc
            coords.append((x, y))
            values.append(z)
            line_numbers.append(line_no)

    if header is None or not coords:
        raise DataError(f"{path}: no data rows")

    try:
        return ScatterSet(coords, values)
    except DuplicateLocationError as exc:
        i, j = exc.pair
        raise DuplicateLocationError(
            f"{path}: lines {line_numbers[i]} and {line_numbers[j]} share a location"
        ) from None


def _snap_axis(values, tol):
    """Cluster 1-D coordinates within tol; returns (nodes, index per value)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    breaks = np.flatnonzero(np.diff(sorted_vals) > tol)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [len(sorted_vals)]])
    # offsets from the cluster's first value average jitter yet keep a node
    # whose values all agree exactly where it is
    nodes = np.array([sorted_vals[a] + (sorted_vals[a:b] - sorted_vals[a]).mean()
                      for a, b in zip(starts, ends)])
    idx = np.empty(len(values), dtype=np.intp)
    for node_i, (a, b) in enumerate(zip(starts, ends)):
        idx[order[a:b]] = node_i
    return nodes, idx


def to_grid(scatter):
    """Recover the lattice underlying a scattered sample and fill a GridTable.

    Distinct x (and y) coordinates are clustered within the snap tolerance
    (_snap_tolerance) and each cluster becomes a lattice node at the cluster
    mean (exactly the shared value when its coordinates agree); unvisited
    cells are missing.

    Raises:
        DuplicateLocationError: two observations snap to the same cell.
        GridStructureError: fewer than 2 distinct coordinates on an axis.
    """
    tol = _snap_tolerance(scatter.coords)
    x_nodes, col_idx = _snap_axis(scatter.coords[:, 0], tol)
    y_nodes, row_idx = _snap_axis(scatter.coords[:, 1], tol)
    if len(x_nodes) < 2 or len(y_nodes) < 2:
        raise GridStructureError(
            f"grid needs at least 2 distinct coordinates per axis, got "
            f"{len(x_nodes)} x and {len(y_nodes)} y"
        )

    lattice = GridLattice(x_nodes, y_nodes)
    cells = np.full((lattice.p, lattice.q), np.nan)
    seen = {}
    for obs_i, (k, l) in enumerate(zip(row_idx, col_idx)):
        if (k, l) in seen:
            raise DuplicateLocationError(
                f"observations {seen[(k, l)]} and {obs_i} snap to the same "
                f"grid cell (row {k}, col {l})"
            )
        seen[(k, l)] = obs_i
        cells[k, l] = scatter.values[obs_i]
    return GridTable(lattice, cells)


def axis_cells(coords, t):
    """The lattice cell along one axis that holds, or extrapolates to, each
    position in t: the 0-based index of the cell's lower node, vectorised
    over t and always within 0..len(coords)-2.  Inside the extent it is the
    cell with coords[idx] <= t <= coords[idx + 1], ties at a node going to
    the lower cell; outside it the boundary pair whose line extends there
    ((0, 1) below, the last two nodes above).
    """
    return np.clip(np.searchsorted(coords, t, side="left") - 1, 0, len(coords) - 2)
