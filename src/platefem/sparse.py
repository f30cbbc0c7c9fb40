"""Minimal sparse matrix support: coordinate storage with CSR conversion.

Kept in-repo on purpose; the solver works directly on these arrays.
Entries are deduplicated and sorted row-major at construction.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse matrix in deduplicated, row-major sorted COO form.

    ``symmetric`` marks matrices that are symmetric by construction;
    the flag is verified (to 1e-12 relative) when set.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    symmetric: bool = False

    @staticmethod
    def from_triplets(nrows, ncols, rows, cols, vals, symmetric=False, check=True):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("triplet index out of range")
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            key = rows * ncols + cols
            first = np.concatenate(([True], key[1:] != key[:-1]))
            idx = np.flatnonzero(first)
            vals = np.add.reduceat(vals, idx)
            rows, cols = rows[idx], cols[idx]
        mat = SparseMatrix(nrows, ncols, rows, cols, vals, symmetric)
        if symmetric and check:
            mat._check_symmetry()
        return mat

    def _check_symmetry(self):
        if self.nrows != self.ncols:
            raise ValueError("symmetric flag on a non-square matrix")
        asym = self._max_asymmetry()
        scale = np.abs(self.vals).max() if self.vals.size else 1.0
        if asym > 1e-12 * max(scale, 1.0):
            raise ValueError(f"matrix flagged symmetric but asymmetry {asym:.3e}")

    def _max_asymmetry(self):
        t = SparseMatrix.from_triplets(
            self.nrows, self.ncols,
            np.concatenate([self.rows, self.cols]),
            np.concatenate([self.cols, self.rows]),
            np.concatenate([self.vals, -self.vals]),
        )
        return np.abs(t.vals).max() if t.vals.size else 0.0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        return self.vals.size

    def to_csr(self):
        """Return (indptr, indices, data); entries are already sorted."""
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.add.at(indptr, self.rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, self.cols.copy(), self.vals.copy()

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.nrows)
        np.add.at(out, self.rows, self.vals * x[self.cols])
        return out

    def rmatvec(self, y):
        """Transpose matvec A^T y."""
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(self.ncols)
        np.add.at(out, self.cols, self.vals * y[self.rows])
        return out

    def transpose(self):
        return SparseMatrix.from_triplets(
            self.ncols, self.nrows, self.cols, self.rows, self.vals, self.symmetric,
            check=False,
        )

    def diagonal(self):
        d = np.zeros(min(self.shape))
        on_diag = self.rows == self.cols
        d[self.rows[on_diag]] = self.vals[on_diag]
        return d

    def to_dense(self):
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.vals
        return dense

    def add(self, other, symmetric=None):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        if symmetric is None:
            symmetric = self.symmetric and other.symmetric
        return SparseMatrix.from_triplets(
            self.nrows, self.ncols,
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.vals, other.vals]),
            symmetric=symmetric, check=False,
        )

    def scale(self, alpha):
        return SparseMatrix(self.nrows, self.ncols, self.rows, self.cols,
                            alpha * self.vals, self.symmetric)

    def export_coo_text(self):
        """Coordinate text form 'i j value' with 1-based indices."""
        lines = [f"{self.nrows} {self.ncols} {self.nnz}"]
        for i, j, v in zip(self.rows, self.cols, self.vals):
            lines.append(f"{i + 1} {j + 1} {v:.17g}")
        return "\n".join(lines) + "\n"


class TripletAccumulator:
    """Collects (row, col, value) batches and finalizes to a SparseMatrix."""

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = []
        self._cols = []
        self._vals = []

    def add(self, rows, cols, vals):
        """Append entries; rows/cols/vals are broadcast-compatible arrays.

        Entries with a negative row or column index (constrained DOFs)
        are dropped.
        """
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        keep = (rows >= 0) & (cols >= 0)
        self._rows.append(np.asarray(rows[keep], dtype=np.int64).ravel())
        self._cols.append(np.asarray(cols[keep], dtype=np.int64).ravel())
        self._vals.append(np.asarray(vals[keep], dtype=np.float64).ravel())

    def build(self, symmetric=False):
        rows = np.concatenate(self._rows) if self._rows else np.empty(0, np.int64)
        cols = np.concatenate(self._cols) if self._cols else np.empty(0, np.int64)
        vals = np.concatenate(self._vals) if self._vals else np.empty(0, np.float64)
        return SparseMatrix.from_triplets(self.nrows, self.ncols, rows, cols, vals, symmetric)
