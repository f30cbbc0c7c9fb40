"""Minimal sparse matrix support: coordinate storage and CSR ranges.

Kept in-repo on purpose; the solver works directly on these arrays.
Entries are deduplicated and sorted row-major at construction.

``from_triplets`` sorts and sums arbitrary in-range triplets (callers
drop constrained DOFs first); it sums the cell means of the transfer
operators (``interp``) and serves tests.  The bilinear forms do not
sort: they reduce their dense blocks onto a block pattern built once per
mesh (see ``forms``), which sums the same values in the same order and
hands its rows, columns and transpose index to the matrices it makes.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse matrix in deduplicated, row-major sorted COO form.

    ``symmetric`` marks matrices that are symmetric by construction;
    the flag is verified (to 1e-12 relative) when set, and it selects
    the multifrontal factorization's pivot kernel: Cholesky or LU.
    Assembled matrices share ``rows``/``cols`` with their block pattern,
    read-only.  ``_cache`` holds data derived from the matrix, its
    factor once solved (see ``solve``), for as long as the matrix
    lives; the arrays must not change after that.  It is not an
    ``__init__`` argument, so a copy made by ``dataclasses.replace``
    starts empty instead of sharing the factor of different values.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    symmetric: bool = False
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def from_triplets(nrows, ncols, rows, cols, vals, symmetric=False):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("triplet index out of range")
            # one stable sort of the row-major key: lexsort's permutation, faster
            key = rows * ncols + cols
            order = np.argsort(key, kind="stable")
            key = key[order]
            idx = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            vals = np.add.reduceat(vals[order], idx)
            rows, cols = np.divmod(key[idx], ncols)     # no permuted copies of rows, cols
        mat = SparseMatrix(nrows, ncols, rows, cols, vals, symmetric)
        if symmetric:
            mat._check_symmetry()
        return mat

    def _check_symmetry(self, tperm=None):
        """Verify the symmetric flag to 1e-12 relative, without sorting.

        ``tperm`` is the :func:`transpose_index` of this pattern when the
        caller already has it; an entry whose transpose is not stored is
        compared against zero.
        """
        if self.nrows != self.ncols:
            raise ValueError("symmetric flag on a non-square matrix")
        if not self.vals.size:
            return
        if tperm is None:
            tperm = transpose_index(self.nrows, self.rows, self.cols)
        mirrored = self.vals[tperm]     # the one temporary, reused in place
        mirrored[tperm < 0] = 0.0
        mirrored -= self.vals
        asym = np.abs(mirrored, out=mirrored).max()
        if asym > 1e-12 * max(self.vals.max(), -self.vals.min(), 1.0):
            raise ValueError(f"matrix flagged symmetric but asymmetry {asym:.3e}")

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return self.vals.size

    # bincount adds the weights one by one in input order, as np.add.at does
    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.nrows)

    def rmatvec(self, y):
        """Transpose matvec A^T y."""
        y = np.asarray(y, dtype=np.float64)
        return np.bincount(self.cols, self.vals * y[self.rows], minlength=self.ncols)

    def to_dense(self):
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.vals
        return dense

    def scale(self, alpha):
        return SparseMatrix(self.nrows, self.ncols, self.rows, self.cols,
                            alpha * self.vals, self.symmetric)

    def export_coo_text(self):
        """Coordinate text form 'i j value' with 1-based indices."""
        lines = [f"{self.nrows} {self.ncols} {self.nnz}"]
        for i, j, v in zip(self.rows, self.cols, self.vals):
            lines.append(f"{i + 1} {j + 1} {v:.17g}")
        return "\n".join(lines) + "\n"


def ragged_positions(indptr, keys):
    """Flat positions of the CSR ranges of ``keys``, concatenated, and their lengths."""
    start = indptr[keys]
    count = indptr[keys + 1] - start
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum()), count


def transpose_index(n, rows, cols):
    """Position of each entry's transpose among the entries; -1 if absent.

    ``rows``/``cols`` index an n x n pattern that is deduplicated and
    sorted row-major, as a SparseMatrix stores it.  A binary search over
    all keys; it serves only the symmetric check of ``from_triplets``.
    Block patterns find their transposes by slot arithmetic (``forms``).
    """
    keys = rows * n + cols
    if not keys.size:
        return np.zeros(0, dtype=np.int64)
    tkeys = cols * n + rows
    pos = np.searchsorted(keys, tkeys)
    pos[pos == keys.size] = 0
    return np.where(keys[pos] == tkeys, pos, -1)
