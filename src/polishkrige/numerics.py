"""Shared dense linear-algebra plumbing with condition diagnostics."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

from .errors import SingularSystemError

# reciprocal condition numbers below this are treated as singular; the
# well-posed systems in this package sit many orders of magnitude above it
RCOND_FLOOR = 1e-14


def row_blocks(a):
    """Views of a in consecutive slices along its first axis of about 2**16
    elements each (at least one row); a 0-d a is one block.  Lets an
    elementwise kernel keep its temporaries small."""
    if a.ndim == 0:
        yield a[...]
        return
    step = max(1, 2**16 * len(a) // max(a.size, 1))
    for lo in range(0, len(a), step):
        yield a[lo:lo + step]


def distances(a, b=None, out=None, squared=False):
    """Euclidean distances between the rows of an (m, k) array a and an
    (n, k) array b as an (m, n) array, written to out when given; with b
    None, those of a's pairs i < j as an n(n - 1)/2 array in condensed order
    ((0, 1), (0, 2), ..., (1, 2), ...).

    Each is the square root of the squared coordinate differences added in
    column order, sqrt(dx*dx + dy*dy) in the plane, which is bit for bit
    scipy's cdist and pdist; squared=True leaves out the square root (their
    "sqeuclidean").  Works in blocks of about 2**16 results, so that its
    temporaries stay in cache.
    """
    a = np.asarray(a, dtype=np.float64)
    if b is not None:
        b = np.asarray(b, dtype=np.float64).T.copy()
        out = np.empty((len(a), b.shape[1])) if out is None else out
        lo = 0
        for block in row_blocks(out):
            rows = a[lo:lo + len(block)]
            lo += len(block)
            _sum_squares(block, ((u[:, None], v) for u, v in zip(rows.T, b)), squared)
        return out
    n, a = len(a), a.T.copy()
    out = np.empty(n * (n - 1) // 2)
    lo = start = 0
    while lo < n - 1:
        hi = min(n - 1, lo + max(1, 2**16 // (n - lo)))
        # the block's pairs are (i, j) for its rows i and j = i + 1 .. n - 1
        counts = np.arange(n - 1 - lo, n - 1 - hi, -1)
        j = np.repeat(np.arange(lo + 1, hi + 1) - np.cumsum(counts) + counts, counts)
        j += np.arange(len(j))
        _sum_squares(out[start:start + len(j)],
                     ((np.repeat(c[lo:hi], counts), c[j]) for c in a), squared)
        lo, start = hi, start + len(j)
    return out


def _sum_squares(out, terms, squared):
    """out = the sum of (u - v)**2 over the (u, v) of an iterator of terms,
    in order, or its square root unless squared."""
    u, v = next(terms)
    np.subtract(u, v, out=out)
    out *= out
    for u, v in terms:
        t = u - v
        t *= t
        out += t
    return out if squared else np.sqrt(out, out=out)


def symmetric_norm1(a):
    """The 1-norm of a symmetric matrix: its largest absolute row sum, taken
    by blocks of rows so that |a| is never held whole."""
    return float(np.max([np.abs(b).sum(axis=1).max() for b in row_blocks(a)]))


def checked_rcond(rcond, what):
    """rcond as a float, raising SingularSystemError for what unless rcond is
    finite and at least RCOND_FLOOR."""
    if not (np.isfinite(rcond) and rcond >= RCOND_FLOOR):
        raise SingularSystemError(f"{what} is numerically singular (rcond {rcond:.3e})",
                                  condition=float(rcond))
    return float(rcond)


def factor_checked(a, what):
    """LU-factor a symmetric matrix over its memory, raising
    SingularSystemError when it is numerically unusable.

    a must be C-contiguous and exactly symmetric; its transpose is the
    Fortran-ordered view LAPACK factors in place, so a is overwritten and no
    copy of it is made.  Returns (lu_piv, rcond, anorm) where lu_piv feeds
    scipy.linalg.lu_solve, rcond is LAPACK's 1-norm reciprocal condition
    estimate and anorm the 1-norm of a.
    """
    anorm = symmetric_norm1(a)
    with warnings.catch_warnings():
        # an exactly singular factor is diagnosed below through rcond
        warnings.simplefilter("ignore", LinAlgWarning)
        lu_piv = lu_factor(a.T, overwrite_a=True, check_finite=False)
    gecon = get_lapack_funcs(("gecon",), (a,))[0]
    rcond, info = gecon(lu_piv[0], anorm)
    return lu_piv, checked_rcond(rcond if info == 0 else np.nan, what), anorm


def cholesky_checked(a, what):
    """Lower Cholesky factor of a symmetric matrix, computed over a's
    memory, raising SingularSystemError when a is not positive definite or
    is numerically singular.

    a must be C-contiguous; its transpose is the Fortran-ordered view LAPACK
    factors in place, so no copy of the matrix is made.  Returns (l, rcond)
    with l Fortran-ordered (upper triangle zeroed) and rcond LAPACK's 1-norm
    reciprocal condition estimate.
    """
    anorm = symmetric_norm1(a)
    potrf, pocon = get_lapack_funcs(("potrf", "pocon"), (a,))
    l, info = potrf(a.T, lower=1, overwrite_a=1, clean=1)
    if info != 0:
        raise SingularSystemError(f"{what} is not positive definite", condition=0.0)
    rcond, info = pocon(l, anorm, uplo="L")
    return l, checked_rcond(rcond if info == 0 else np.nan, what)
