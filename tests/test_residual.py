"""The refinement residual: the memoized subtract-reduce against the
``np.subtract.at`` oracle, and against exact rational arithmetic."""

import importlib
from fractions import Fraction

import numpy as np
import pytest

from platefem.forms import SchemeConfig, SchemeTag, assemble_scheme
from platefem.mesh import unit_square_mesh
from platefem.sparse import SparseMatrix

from product_oracles import assert_same_values
from product_oracles import residual as oracle_residual

# ``platefem.solve`` the attribute is the re-exported function
solve_module = importlib.import_module("platefem.solve")
residual = solve_module._residual_extended


def assert_residual_like_the_oracle(A, x, b):
    assert_same_values(residual(A, x, b), oracle_residual(A, x, b))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("scheme, theta", [(tag, 1.0) for tag in SchemeTag]
                         + [(SchemeTag.DG, -1.0)])
def test_residual_matches_the_oracle_on_every_scheme(scheme, theta, n, rng):
    A, _ = assemble_scheme(unit_square_mesh(n), SchemeConfig(scheme=scheme, theta=theta))
    b = rng.standard_normal(A.nrows)
    assert_residual_like_the_oracle(A, rng.standard_normal(A.nrows), b)
    if n <= 16:   # a solution: every row cancels down to round-off
        x, stats = solve_module.solve(A, b)
        assert stats["method"] == ("ldlt" if theta == 1.0 else "lu")
        assert_residual_like_the_oracle(A, x, b)


def test_unsorted_matrix_keeps_each_rows_storage_order(rng):
    # a directly built matrix: shuffled entries, repeated (i, j) pairs, and
    # row 3 with no stored entry, whose residual is b_3 itself
    n, k = 12, 150
    rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
    rows[rows == 3] = 4
    vals = rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8, k)
    A = SparseMatrix(n, n, rows, cols, vals)
    x, b = rng.standard_normal(n), rng.standard_normal(n)
    assert_residual_like_the_oracle(A, x, b)
    b[3] = -0.0
    r = residual(A, x, b)
    assert r[3] == 0.0 and np.signbit(r[3])
    assert_residual_like_the_oracle(A, x, b)
    # sorted with the same entries in each row, the layout is the same
    order = np.argsort(rows, kind="stable")
    B = SparseMatrix(n, n, rows[order], cols[order], vals[order])
    assert_same_values(residual(B, x, b), residual(A, x, b))


def test_empty_rows_and_empty_matrix():
    A = SparseMatrix(3, 3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    b = np.array([1.5, -0.0, 0.0])
    assert_residual_like_the_oracle(A, np.ones(3), b)
    empty = SparseMatrix(0, 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                         np.zeros(0))
    assert residual(empty, np.zeros(0), np.zeros(0)).shape == (0,)


def test_signed_zeros_nan_and_inf_in_x_and_b(rng):
    A, _ = assemble_scheme(unit_square_mesh(4), SchemeConfig(scheme=SchemeTag.C0IP))
    n = A.nrows
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        for trial in range(6):
            x, b = rng.standard_normal(n), rng.standard_normal(n)
            # a zero x makes rows whose products are all signed zeros
            if trial == 0:
                x[:] = -0.0
                b[::2] = -0.0
            else:
                for v in (x, b):
                    pick = rng.choice(n, 8, replace=False)
                    v[pick] = rng.choice(specials, 8)
            assert_residual_like_the_oracle(A, x, b)


def test_layout_is_memoized_on_the_matrix(rng):
    A, _ = assemble_scheme(unit_square_mesh(2), SchemeConfig(scheme=SchemeTag.MORLEY))
    layout = solve_module._residual_layout
    assert not layout.cached(A)
    x, b = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
    first = residual(A, x, b)
    assert layout.cached(A)
    index, weights, starts = layout(A)
    assert index.size == weights.size == A.nnz + A.nrows and starts.size == A.nrows
    assert_same_values(residual(A, x, b), first)


# --- against exact arithmetic --------------------------------------------------


def exact_system(seed, n=40):
    """Rows of 1..30 entries, a third of them with 8 or more, with values,
    x and b spread over 1e-8..1e8 and both signs."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 31, n)
    counts[: n // 3] = rng.integers(8, 31, n // 3)
    rows = np.repeat(np.arange(n), counts)
    cols = np.concatenate([rng.choice(n, k, replace=False) for k in counts])

    def spread(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)

    order = rng.permutation(rows.size)
    A = SparseMatrix(n, n, rows[order], cols[order], spread(rows.size))
    return A, spread(n), spread(n), counts


@pytest.mark.parametrize("seed", range(6))
def test_residual_within_the_rounding_bound_of_exact_arithmetic(seed):
    A, x, b, counts = exact_system(seed)
    r = residual(A, x, b)
    exact = [Fraction(v) for v in b]
    scale = [abs(Fraction(v)) for v in b]
    for i, j, a in zip(A.rows, A.cols, A.vals):
        product = Fraction(a) * Fraction(x[j])
        exact[i] -= product
        scale[i] += abs(product)
    unit = Fraction(1, 2 ** np.finfo(np.longdouble).nmant)
    for i, k in enumerate(counts):
        error = abs(Fraction(*r[i].as_integer_ratio()) - exact[i])
        assert error <= (k + 1) * unit * scale[i], f"row {i} ({k} entries)"
