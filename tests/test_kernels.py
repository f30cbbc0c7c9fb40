"""The sparse factorization on a random SPD system, and the minimal sparse type."""

import numpy as np
import pytest

from platefem.solve import multifrontal_factor
from platefem.sparse import SparseMatrix


def spd_system(n=60, seed=4):
    rng = np.random.default_rng(seed)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 8.0)]
    for _ in range(3 * n):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        v = rng.uniform(-0.5, 0.5)
        rows.append([i, j])
        cols.append([j, i])
        vals.append([v, v])
    A = SparseMatrix.from_triplets(
        n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        symmetric=True,
    )
    b = rng.standard_normal(n)
    return A, b


def test_ldlt_matches_dense(rng):
    A, b = spd_system()
    factor = multifrontal_factor(A)
    x = factor.solve(b)
    assert np.abs(x - np.linalg.solve(A.to_dense(), b)).max() < 1e-11
    assert factor.min_pivot > 0


# --- minimal sparse type --------------------------------------------------------

def test_triplets_dedup_and_sort():
    A = SparseMatrix.from_triplets(3, 3, [2, 0, 0, 2], [1, 1, 1, 1],
                                   [1.0, 2.0, 3.0, 4.0])
    assert A.nnz == 2
    assert list(A.rows) == [0, 2] and list(A.cols) == [1, 1]
    assert list(A.vals) == [5.0, 5.0]


def test_triplets_sort_like_a_lexsort_oracle(rng):
    # duplicated random triplets: the stable sort of the row-major key must
    # give lexsort's permutation, so the sums keep their bits
    k = 5000
    rows, cols = rng.integers(0, 50, k), rng.integers(0, 37, k)
    vals = rng.standard_normal(k)
    A = SparseMatrix.from_triplets(50, 37, rows, cols, vals)
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    first = np.flatnonzero(np.concatenate(([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1]))))
    assert A.nnz < k
    assert np.array_equal(A.rows, r[first]) and np.array_equal(A.cols, c[first])
    assert A.vals.tobytes() == np.add.reduceat(v, first).tobytes()


def test_symmetry_flag_enforced():
    with pytest.raises(ValueError, match="asymmetry"):
        SparseMatrix.from_triplets(2, 2, [0, 1], [1, 0], [1.0, 2.0], symmetric=True)


def test_matvec_rmatvec_transpose(rng):
    A = SparseMatrix.from_triplets(3, 4, [0, 1, 2, 0], [1, 3, 2, 0],
                                   [2.0, -1.0, 0.5, 1.0])
    x = rng.standard_normal(4)
    y = rng.standard_normal(3)
    dense = A.to_dense()
    assert np.allclose(A.matvec(x), dense @ x)
    assert np.allclose(A.rmatvec(y), dense.T @ y)


def test_products_match_sequential_accumulation(rng):
    # reference: np.add.at, which adds in input order; bincount must give the same bits
    rows, cols = rng.integers(0, 40, 600), rng.integers(0, 30, 600)
    A = SparseMatrix.from_triplets(40, 30, rows, cols, rng.standard_normal(600))
    x, y = rng.standard_normal(30), rng.standard_normal(40)
    want = np.zeros(40)
    np.add.at(want, A.rows, A.vals * x[A.cols])
    assert A.matvec(x).tobytes() == want.tobytes()
    want = np.zeros(30)
    np.add.at(want, A.cols, A.vals * y[A.rows])
    assert A.rmatvec(y).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, rows, cols, vals, match", [
    ((3, 3), [0, 1, 1, 2], [1, 0, 2, 1], [1.0, 1.0, 2.0, 2.0 + 1e-9], "asymmetry"),
    ((3, 3), [0, 0, 1, 1, 2], [0, 1, 0, 2, 2], [4.0, 1.0, 1.0, 0.5, 4.0], "asymmetry"),
    ((2, 3), [0, 1], [1, 0], [1.0, 1.0], "non-square"),
])
def test_symmetric_flag_rejects(shape, rows, cols, vals, match):
    # an asymmetric value, an entry (1, 2) whose transpose is not stored, a wide matrix
    with pytest.raises(ValueError, match=match):
        SparseMatrix.from_triplets(*shape, rows, cols, vals, symmetric=True)


def test_index_range_checked():
    with pytest.raises(ValueError, match="range"):
        SparseMatrix.from_triplets(2, 2, [0, 2], [0, 0], [1.0, 1.0])
