"""The refinement residual and the transposed product read in full, kept
as oracles.

``solve._residual_extended`` once subtracted every stored product from a
long-double copy of b with ``np.subtract.at``, in storage order; it now
makes the same subtractions as one ``np.subtract.reduceat`` over a
memoized layout.  ``SparseMatrix.rmatvec`` once summed the products of
every stored row with one ``bincount``; it now skips the rows where y is
zero when most of them are.  The tests require the residual to agree in
value and sign (x86-64's 80-bit long double carries padding bytes that
need not agree) and the product byte for byte.
"""

import numpy as np


def residual(A, x, b):
    """b - A x in ``np.longdouble``, one ``np.subtract.at`` over every entry."""
    r = np.asarray(b, dtype=np.float64).astype(np.longdouble)
    np.subtract.at(r, A.rows,
                   A.vals.astype(np.longdouble) * np.asarray(x).astype(np.longdouble)[A.cols])
    return r


def rmatvec(A, y):
    """A^T y, one ``bincount`` over every stored entry."""
    y = np.asarray(y, dtype=np.float64)
    return np.bincount(A.cols, A.vals * y[A.rows], minlength=A.ncols)


def assert_same_values(got, want):
    """Equal values, NaN where NaN, and equal signs (so -0.0 is not 0.0)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
