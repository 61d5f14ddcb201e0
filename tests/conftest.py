"""Shared fixtures and the extended-precision kriging oracle."""

import pathlib

import numpy as np
import pytest

from polishkrige import GridLattice, GridTable, ScatterSet, load_observations_csv, to_grid

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def small_table():
    """A 4 x 5 complete table with gentle row/column structure."""
    lattice = GridLattice([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
    cells = np.array(
        [
            [10.3, 11.1, 10.8, 11.9, 12.2],
            [9.7, 10.4, 10.1, 11.2, 11.4],
            [10.9, 11.8, 11.3, 12.5, 12.9],
            [9.1, 9.8, 9.6, 10.5, 10.8],
        ]
    )
    return GridTable(lattice, cells)


@pytest.fixture
def holey_table():
    """A 5 x 6 table with scattered missing cells (two or more per line)."""
    lattice = GridLattice([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(11)
    cells = 10.0 + rng.normal(size=(5, 6))
    cells[0, 3] = np.nan
    cells[2, 0] = np.nan
    cells[2, 5] = np.nan
    cells[4, 1] = np.nan
    return GridTable(lattice, cells)


@pytest.fixture(scope="session")
def coal_ash_grid():
    scatter = load_observations_csv(DATA_DIR / "coal_ash.csv")
    return to_grid(scatter)


def random_scatter(rng, n, span=10.0, min_sep=0.3):
    """Random pairwise-separated sites with standard-normal values."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(0.0, span, size=2)
        if all(np.hypot(*(cand - p)) >= min_sep for p in pts):
            pts.append(cand)
    coords = np.array(pts)
    return ScatterSet(coords, rng.normal(size=n))


# --- extended-precision ordinary-kriging oracle -------------------------------
#
# A deliberately independent route: the covariance families are re-stated in
# mpmath and the augmented system is solved by Gaussian elimination with
# partial pivoting at 50 significant digits.

import mpmath as mp  # noqa: E402

mp.mp.dps = 50


def _mp_gamma(family, nugget, psill, rng_, h):
    if h == 0:
        return mp.mpf(0)
    h = mp.mpf(h)
    a = mp.mpf(rng_)
    nugget = mp.mpf(nugget)
    psill = mp.mpf(psill)
    if family == "spherical":
        if h >= a:
            return nugget + psill
        u = h / a
        return nugget + psill * (mp.mpf(3) / 2 * u - u**3 / 2)
    if family == "exponential":
        return nugget + psill * (1 - mp.exp(-3 * h / a))
    if family == "gaussian":
        return nugget + psill * (1 - mp.exp(-3 * (h / a) ** 2))
    raise ValueError(family)


def _mp_cov(family, nugget, psill, rng_, h):
    return mp.mpf(nugget) + mp.mpf(psill) - _mp_gamma(family, nugget, psill, rng_, h)


def _mp_solve(a, b):
    """Gaussian elimination with partial pivoting on mpmath matrices."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            raise ZeroDivisionError("singular oracle system")
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [mp.mpf(0)] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - mp.fsum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def mp_ok_reference(coords, values, family, nugget, psill, rng_, target):
    """Weights, multiplier, prediction, and variance at 50 digits."""
    n = len(values)
    dist = lambda p, q: mp.sqrt((mp.mpf(p[0]) - mp.mpf(q[0])) ** 2 + (mp.mpf(p[1]) - mp.mpf(q[1])) ** 2)
    aug = []
    for i in range(n):
        row = [_mp_cov(family, nugget, psill, rng_, dist(coords[i], coords[j])) for j in range(n)]
        row.append(mp.mpf(1))
        aug.append(row)
    aug.append([mp.mpf(1)] * n + [mp.mpf(0)])
    rhs = [_mp_cov(family, nugget, psill, rng_, dist(coords[i], target)) for i in range(n)]
    rhs.append(mp.mpf(1))
    sol = _mp_solve(aug, rhs)
    lam, mu = sol[:n], sol[n]
    pred = mp.fsum(lam[i] * mp.mpf(values[i]) for i in range(n))
    c0 = mp.mpf(nugget) + mp.mpf(psill)
    var = c0 - mp.fsum(lam[i] * rhs[i] for i in range(n)) - mu
    return lam, mu, pred, var


# --- extended-precision biharmonic spline oracle ------------------------------
#
# The 2-D Green function phi_2(r) = r^2 (ln r - 1), phi_2(0) = 0, re-stated in
# mpmath; the interpolation system is solved by the same 50-digit elimination.
# About 0.2 s at 56 centres; meant for n <= 60.


def _mp_green2(r):
    return mp.mpf(0) if r == 0 else r * r * (mp.log(r) - 1)


def mp_spline(centers, values):
    """The 2-D biharmonic spline through values at the (n, 2) centers,
    solved at 50 digits, as a function of a location (x, y): floats are
    taken as exact, and mpmath numbers may carry a location that no float
    holds."""
    if len(centers) > 60:
        raise ValueError("the 50-digit spline oracle is meant for n <= 60")
    pts = [(mp.mpf(x), mp.mpf(y)) for x, y in centers]
    dist = lambda p, q: mp.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
    system = [[_mp_green2(dist(p, q)) for q in pts] for p in pts]
    strengths = _mp_solve(system, [mp.mpf(v) for v in values])

    def at(x, y):
        here = (mp.mpf(x), mp.mpf(y))
        return mp.fsum(s * _mp_green2(dist(here, q)) for s, q in zip(strengths, pts))
    return at
