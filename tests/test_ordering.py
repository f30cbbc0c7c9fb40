"""The supervariable nested dissection against the ordering of the full
graph, the supervariable groups, and the recursive triangular inverse."""

import importlib

import numpy as np
import pytest

from platefem.forms import SchemeConfig, SchemeTag, assemble_scheme
from platefem.mesh import unit_square_mesh
from platefem.solve import multifrontal_factor, nested_dissection, solve
from platefem.sparse import SparseMatrix

from ordering_oracles import nested_dissection as full_graph_ordering
from test_solve import check_against_dense, grid_laplacian, renumbered_mesh

# ``platefem.solve`` the attribute is the re-exported function
solve_module = importlib.import_module("platefem.solve")

DISCONTINUOUS = (SchemeTag.DG, SchemeTag.WOPSIP)


def assert_orders_like_the_full_graph(A):
    perm, starts, parent, vertices = nested_dissection(A)
    want = full_graph_ordering(A)
    for got, expected in zip((perm, starts, parent), want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    return vertices


def closed_rows(A):
    """Dense boolean closed adjacency of the graph of A + A^T."""
    pattern = np.zeros(A.shape, dtype=bool)
    pattern[A.rows, A.cols] = True
    return pattern | pattern.T | np.eye(A.nrows, dtype=bool)


def expanded_graph(rng, edges, size, values=False):
    """Every vertex k of a graph becomes a clique of ``size[k]`` unknowns,
    numbered in a random interleaved order; ``values`` draws random
    symmetric off-diagonal entries where the default puts -1."""
    n = int(np.sum(size))
    label = rng.permutation(n)
    first = np.concatenate(([0], np.cumsum(size)[:-1]))
    members = [label[f:f + s] for f, s in zip(first, size)]
    rows, cols = [], []
    for a, b in list(edges) + [(k, k) for k in range(len(size))]:
        ra, rb = np.meshgrid(members[a], members[b], indexing="ij")
        rows += [ra.ravel(), rb.ravel()]
        cols += [rb.ravel(), ra.ravel()]
    key = np.unique(np.concatenate(rows) * n + np.concatenate(cols))
    rows, cols = key // n, key % n
    dense = np.zeros((n, n))
    dense[rows, cols] = rng.uniform(-1.0, 1.0, rows.size) if values else -1.0
    dense = np.triu(dense, 1) + np.triu(dense, 1).T
    dense[np.diag_indices(n)] = np.abs(dense).sum(axis=1) + 1.0
    r, c = np.nonzero(dense)
    return SparseMatrix.from_triplets(n, n, r, c, dense[r, c], symmetric=True), members


# --- the ordering is the full graph's, byte for byte ----------------------------

@pytest.mark.parametrize("scheme", list(SchemeTag))
@pytest.mark.parametrize("numbering", ["square", "renumbered"])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_scheme_ordering_matches_the_full_graph(scheme, numbering, n):
    mesh = unit_square_mesh(n) if numbering == "square" else renumbered_mesh(n, 11 + n)
    A, _ = assemble_scheme(mesh, SchemeConfig(scheme=scheme))
    vertices = assert_orders_like_the_full_graph(A)
    # a discontinuous P2 triangle's 6 unknowns are one supervariable
    assert vertices == (2 * n * n if scheme in DISCONTINUOUS else A.nrows)


def test_full_size_dg_ordering_matches_the_full_graph():
    A, _ = assemble_scheme(unit_square_mesh(64), SchemeConfig(scheme=SchemeTag.DG))
    assert assert_orders_like_the_full_graph(A) == 8192


@pytest.mark.parametrize("scheme", [SchemeTag.MORLEY, SchemeTag.C0IP])
def test_full_size_ungrouped_ordering_matches_the_full_graph(scheme):
    # no groups: every unknown is its own, and the quotient is the full graph
    A, _ = assemble_scheme(unit_square_mesh(64), SchemeConfig(scheme=scheme))
    assert assert_orders_like_the_full_graph(A) == A.nrows


@pytest.mark.parametrize("degree", [2, 8])
def test_random_sparse_ordering_matches_the_full_graph(degree, rng):
    n = 500
    i = rng.integers(0, n, degree * n // 2)
    j = rng.integers(0, n, degree * n // 2)
    A = SparseMatrix.from_triplets(
        n, n, np.concatenate([i, j, np.arange(n)]), np.concatenate([j, i, np.arange(n)]),
        np.concatenate([np.ones(2 * i.size), np.full(n, 20.0)]))
    assert_orders_like_the_full_graph(A)


def test_block_diagonal_and_path_orderings_match_the_full_graph():
    r1, c1, v1 = grid_laplacian(15)
    iso = np.arange(225, 275)
    blocks = SparseMatrix.from_triplets(275, 275, np.concatenate([r1, iso]),
                                        np.concatenate([c1, iso]),
                                        np.concatenate([v1, np.ones(iso.size)]))
    k = np.arange(999)
    path = SparseMatrix.from_triplets(
        1000, 1000, np.concatenate([np.arange(1000), k, k + 1]),
        np.concatenate([np.arange(1000), k + 1, k]), np.ones(2998))
    for A in (blocks, path):
        assert assert_orders_like_the_full_graph(A) == A.nrows


def test_half_stored_laplacian_orders_like_the_full_one():
    rows, cols, vals = grid_laplacian(20)
    full = SparseMatrix.from_triplets(400, 400, rows, cols, vals, symmetric=True)
    want = full_graph_ordering(full)
    for half_of in (rows >= cols, rows <= cols):
        half = SparseMatrix.from_triplets(400, 400, rows[half_of], cols[half_of], vals[half_of])
        assert_orders_like_the_full_graph(half)
        for got, expected in zip(nested_dissection(half), want):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", range(12))
def test_expanded_graph_ordering_matches_the_full_graph(seed):
    # stars (every group one level from the root's), paths with one group
    # heavier than the rest of its part, cycles of heavy groups and random
    # graphs; interleaved numbering puts ties on the largest unknown
    rng = np.random.default_rng(seed)
    k = int(rng.integers(5, 12))
    if seed % 4 == 0:
        edges = [(0, j) for j in range(1, k)]
        size = rng.integers(2, 40, k)
    elif seed % 4 == 1:
        edges = [(j, j + 1) for j in range(k - 1)]
        size = rng.integers(1, 6, k)
        size[rng.integers(0, k)] = rng.integers(150, 300)
    elif seed % 4 == 2:
        edges = [(j, (j + 1) % k) for j in range(k)]
        size = rng.integers(20, 120, k)
    else:
        k = 300
        edges = zip(rng.integers(0, k, 2 * k), rng.integers(0, k, 2 * k))
        edges = [(a, b) for a, b in edges if a != b]
        size = rng.integers(1, 8, k)
    A, _ = expanded_graph(rng, edges, size)
    assert assert_orders_like_the_full_graph(A) <= k


# --- the supervariable groups ----------------------------------------------------

def test_expanded_random_graph_groups_and_factor(rng):
    # group sizes 1-7 on a random graph; its factor solves like a dense solve
    m = 150
    edges = [(a, b) for a, b in zip(rng.integers(0, m, 3 * m), rng.integers(0, m, 3 * m))
             if a != b]
    size = rng.integers(1, 8, m)
    A, members = expanded_graph(rng, edges, size, values=True)
    group, _, _ = solve_module._quotient_graph(A)
    closed = closed_rows(A)
    for part in members:       # each clique lies in one group
        assert np.unique(group[part]).size == 1
    for g in range(group.max() + 1):
        rows = closed[group == g]
        assert (rows == rows[0]).all()
    stats = check_against_dense(A, rng)
    assert stats["supervariables"] == group.max() + 1 <= m
    assert stats["backward_error"] <= 1e-15


def test_hash_collisions_split_groups_and_never_merge(monkeypatch):
    # with every hash weight equal, a row's hash is its length: rows of equal
    # length collide, each row's first column of equal length is its
    # candidate, and only the exact row comparison tells groups apart
    A, _ = assemble_scheme(renumbered_mesh(8, 5), SchemeConfig(scheme=SchemeTag.DG))
    true_group, _, _ = solve_module._quotient_graph(A)
    monkeypatch.setattr(solve_module, "_hash_weights", lambda n: np.ones(n))
    group, _, _ = solve_module._quotient_graph(A)
    closed = closed_rows(A)
    for g in range(group.max() + 1):
        members = np.flatnonzero(group == g)
        assert (closed[members] == closed[members[0]]).all()
        assert np.unique(true_group[members]).size == 1     # split, never merged
    assert true_group.max() < group.max() < A.nrows - 1
    assert_orders_like_the_full_graph(A)


def test_rows_without_their_diagonal_stay_alone():
    # rows 0 and 1 store the columns of row 2, diagonal included, but not
    # their own diagonals: in A + A^T neither meets the other, so the three
    # are no group
    rows = [0, 0, 1, 1, 2, 2, 3]
    cols = [2, 3, 2, 3, 2, 3, 3]
    A = SparseMatrix.from_triplets(4, 4, rows, cols, np.ones(7))
    assert not closed_rows(A)[0, 1]
    group, _, _ = solve_module._quotient_graph(A)
    assert np.array_equal(group, np.arange(4))
    assert assert_orders_like_the_full_graph(A) == 4


def test_a_row_meeting_part_of_a_group_orders_the_full_graph():
    # rows 0 and 1 are equal, but column 1 alone is stored in row 2, so in
    # A + A^T unknown 2 tells them apart: every unknown is its own group
    rows = [0, 0, 0, 1, 1, 1, 2, 2]
    cols = [0, 1, 3, 0, 1, 3, 1, 2]
    A = SparseMatrix.from_triplets(4, 4, rows, cols, np.ones(8))
    group, _, _ = solve_module._quotient_graph(A)
    assert np.array_equal(group, np.arange(4))
    assert assert_orders_like_the_full_graph(A) == 4


def test_lu_route_reuses_the_compressed_ordering():
    mesh = unit_square_mesh(8)
    symmetric, _ = assemble_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG))
    A, _ = assemble_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG, theta=-1.0))
    assert not A.symmetric
    for got, want in zip(nested_dissection(A), nested_dissection(symmetric)):
        assert np.array_equal(got, want)
    x, stats = solve(A, np.ones(A.nrows))
    assert stats["method"] == "lu" and stats["supervariables"] == 128
    assert multifrontal_factor(A).supervariables == 128


# --- recursive triangular inverse ------------------------------------------------

def check_lower_inverse(L):
    k = L.shape[0]
    X = solve_module._lower_inverse(L)
    eps = np.finfo(float).eps
    cond = np.linalg.cond(L)
    assert np.linalg.norm(X @ L - np.eye(k), 2) <= k * eps * cond
    oracle = np.linalg.inv(L)
    assert np.linalg.norm(X - oracle, 2) <= k * eps * cond * np.linalg.norm(oracle, 2)


@pytest.mark.parametrize("k", [1, 31, 32, 33, 64, 65, 127, 128, 129, 300])
def test_lower_inverse_matches_inv(k, rng):
    M = rng.standard_normal((k, k))
    L = np.linalg.cholesky(M @ M.T + k * np.eye(k))
    check_lower_inverse(L)
    # rows scaled over eight orders of magnitude, as a penalty's h^-4 does
    check_lower_inverse(L * np.logspace(-4, 4, k)[:, None])


def test_lower_inverse_of_wopsip_fronts(monkeypatch):
    A, _ = assemble_scheme(unit_square_mesh(16), SchemeConfig(scheme=SchemeTag.WOPSIP))
    blocks = []
    inverse = solve_module._lower_inverse

    def record(L):
        blocks.append(L.copy())
        return inverse(L)

    monkeypatch.setattr(solve_module, "_lower_inverse", record)
    multifrontal_factor.__wrapped__(A)
    monkeypatch.undo()
    assert len(blocks) > 46 and max(L.shape[0] for L in blocks) > 128
    for L in blocks:
        check_lower_inverse(L)
