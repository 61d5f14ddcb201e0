"""Seeded benchmark inputs: the coal-ash survey with its rows permuted, and
a synthetic lattice with an additive row/column trend plus correlated noise.

Every input is a function of the seed alone, and is written to a file
before any timing starts; the program under test only ever sees the files.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist


def permuted_csv(src_path, dst_path, seed):
    """Copy a CSV with its data rows in a seeded random order (header first).

    Returns the permutation applied, as the source data-row index written at
    each output position.
    """
    with open(src_path, "r") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header, rows = lines[0], lines[1:]
    order = np.random.default_rng([seed, 1]).permutation(len(rows))
    with open(dst_path, "w", newline="\n") as fh:
        fh.write("\n".join([header] + [rows[i] for i in order]) + "\n")
    return order


def lattice_field(seed, p=60, q=60, missing=0.10, practical_range=12.0,
                  nugget=0.05):
    """Synthetic gridded survey on a p x q unit-spaced lattice.

    The value at node (k, l) is row_trend[k] + col_trend[l] + noise, where
    the noise is drawn by Cholesky from an exponential covariance (sill 1,
    the given practical range and nugget).  A seeded `missing` share of the
    cells is removed, redrawn until every row and every column keeps at
    least one cell.  Values are rounded to 6 decimals, so the written file
    does not depend on the last bits of the factorization.

    Returns (x, y, z, present) with x, y, z over the present cells in
    row-major order and present the (p, q) boolean mask.
    """
    rng = np.random.default_rng([seed, 2])
    ys, xs = np.mgrid[0:p, 0:q].astype(np.float64)
    coords = np.column_stack([xs.ravel() + 1.0, ys.ravel() + 1.0])
    cov = np.exp(-3.0 / practical_range * cdist(coords, coords))
    cov[np.diag_indices_from(cov)] += nugget
    noise = np.linalg.cholesky(cov) @ rng.standard_normal(p * q)
    del cov

    row_trend = 0.4 * rng.standard_normal(p).cumsum()
    col_trend = 0.4 * rng.standard_normal(q).cumsum()
    field = (10.0 + row_trend[:, None] + col_trend[None, :]
             + noise.reshape(p, q))

    n_missing = int(round(missing * p * q))
    while True:
        present = np.ones(p * q, dtype=bool)
        present[rng.choice(p * q, size=n_missing, replace=False)] = False
        present = present.reshape(p, q)
        if present.any(axis=1).all() and present.any(axis=0).all():
            break
    rows, cols = np.nonzero(present)
    z = np.round(field[rows, cols], 6)
    return cols + 1.0, rows + 1.0, z, present


def write_lattice_csv(path, seed, **sizes):
    """Write lattice_field(seed) as an x,y,z CSV with rows in seeded order.

    Returns the (p, q) presence mask.
    """
    x, y, z, present = lattice_field(seed, **sizes)
    order = np.random.default_rng([seed, 3]).permutation(len(z))
    lines = ["x,y,z"] + [f"{x[i]:g},{y[i]:g},{z[i]:.6f}" for i in order]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return present
