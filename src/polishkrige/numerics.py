"""Shared dense linear-algebra plumbing with condition diagnostics."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

from .errors import SingularSystemError

# reciprocal condition numbers below this are treated as singular; the
# well-posed systems in this package sit many orders of magnitude above it
RCOND_FLOOR = 1e-14


def factor_checked(a, what):
    """LU-factor a square matrix, raising SingularSystemError when it is
    numerically unusable.

    Returns (lu_piv, rcond) where lu_piv feeds scipy.linalg.lu_solve and
    rcond is LAPACK's 1-norm reciprocal condition estimate.
    """
    with warnings.catch_warnings():
        # an exactly singular factor is diagnosed below through rcond
        warnings.simplefilter("ignore", LinAlgWarning)
        lu_piv = lu_factor(a, check_finite=False)
    gecon = get_lapack_funcs(("gecon",), (a,))[0]
    rcond, info = gecon(lu_piv[0], np.linalg.norm(a, 1))
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystemError(
            f"{what} is numerically singular (rcond {rcond:.3e})",
            condition=float(rcond),
        )
    return lu_piv, float(rcond)


def cholesky_checked(a, what):
    """Lower Cholesky factor of a symmetric matrix, computed over a's
    memory, raising SingularSystemError when a is not positive definite or
    is numerically singular.

    a must be C-contiguous; its transpose is the Fortran-ordered view LAPACK
    factors in place, so no copy of the matrix is made.  Returns (l, rcond)
    with l Fortran-ordered (upper triangle zeroed) and rcond LAPACK's 1-norm
    reciprocal condition estimate.
    """
    anorm = np.linalg.norm(a, 1)
    potrf, pocon = get_lapack_funcs(("potrf", "pocon"), (a,))
    l, info = potrf(a.T, lower=1, overwrite_a=1, clean=1)
    if info != 0:
        raise SingularSystemError(f"{what} is not positive definite", condition=0.0)
    rcond, info = pocon(l, anorm, uplo="L")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularSystemError(
            f"{what} is numerically singular (rcond {rcond:.3e})",
            condition=float(rcond),
        )
    return l, float(rcond)
