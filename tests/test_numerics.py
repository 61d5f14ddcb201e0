"""numerics.distances: bit for bit scipy's cdist and pdist, in bounded scratch."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from polishkrige.numerics import distances


def lattice(p, q, spacing, origin=(0.0, 0.0)):
    ys, xs = np.mgrid[0:p, 0:q]
    return np.column_stack([xs.ravel(), ys.ravel()]) * spacing + origin


def point_sets():
    rng = np.random.default_rng(11)
    return {
        "random": rng.normal(size=(300, 2)) * 40.0,
        "offset": rng.uniform(-1.0, 1.0, size=(257, 2)) + (1e6, -3e5),
        "unit-lattice": lattice(13, 16, 1.0),
        "lattice-0.3": lattice(20, 17, 0.3, origin=(-2.0, 5.5)),
        "coal-ash-like": lattice(23, 16, 2.5, origin=(1.0, 1.0)),
    }


SETS = point_sets()


@pytest.mark.parametrize("name", SETS)
def test_rectangular_distances_are_cdist(name):
    points = SETS[name]
    targets = np.random.default_rng(5).uniform(-3.0, 3.0, size=(400, 2)) * points.std(axis=0)
    targets += points.mean(axis=0)
    for a, b in ((points, points), (targets, points), (points[:1], points), (points, targets[:7])):
        want = cdist(a, b)
        assert np.array_equal(distances(a, b), want)
        out = np.full_like(want, np.nan)
        assert distances(a, b, out=out) is out
        assert np.array_equal(out, want)


@pytest.mark.parametrize("name", SETS)
def test_condensed_distances_are_pdist(name):
    points = SETS[name]
    assert np.array_equal(distances(points), pdist(points))


@pytest.mark.parametrize("name", SETS)
def test_squared_differences_are_sqeuclidean(name):
    z = SETS[name] @ (0.7, -1.3)
    z[::5] = z[1::5][:len(z[::5])]  # ties give exact zeros
    assert np.array_equal(distances(z[:, None], squared=True),
                          pdist(z[:, None], metric="sqeuclidean"))
    assert np.array_equal(distances(SETS[name], squared=True),
                          pdist(SETS[name], metric="sqeuclidean"))


def test_empty_and_single_point_inputs():
    two = np.ones((2, 2))
    assert distances(np.empty((0, 2)), two).shape == (0, 2)
    assert distances(two, np.empty((0, 2))).shape == (2, 0)
    for n in (0, 1):
        assert distances(np.zeros((n, 2))).shape == (0,)
    assert np.array_equal(distances(two), [0.0])


def traced_peak(call, *args, **kwargs):
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_is_a_few_blocks():
    # no n x n or n(n - 1)/2 temporary: beyond the result, only a few blocks
    # of about 2**16 floats
    points = lattice(40, 45, 1.0)
    n = len(points)
    block = 2**16 * 8
    assert traced_peak(distances, points) < 8 * n * (n - 1) // 2 + 8 * block
    out = np.empty((n, n))
    assert traced_peak(distances, points, points, out=out) < 4 * block
    assert traced_peak(distances, points[:, :1], squared=True) < 8 * n * (n - 1) // 2 + 8 * block
