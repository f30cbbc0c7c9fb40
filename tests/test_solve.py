import dataclasses

import numpy as np
import pytest

from platefem.fespace import DiscreteFunction, SpaceTag, build_dof_map
from platefem.forms import SchemeConfig, SchemeTag, assemble_scheme, matrix_config
from platefem.functions import ScalarFunction, get_manufactured
from platefem.interp import morley_interp_avg
from platefem.mesh import build_triangulation, refine_uniform, unit_square_mesh
from platefem.rhs import LoadSpec, smoothed_load_vector
from platefem.solve import (
    LEAF_SIZE,
    NonCoerciveError,
    SolverError,
    _scheme_system,
    broken_error_norms,
    compute_errors,
    multifrontal_factor,
    nested_dissection,
    pi0_hessian_deviation,
    solve,
    solve_scheme,
)
from platefem.sparse import SparseMatrix

from test_conforming_oracle import hct_energy_error

U1 = get_manufactured("u1")


def identity_matrix(n):
    idx = np.arange(n)
    return SparseMatrix.from_triplets(n, n, idx, idx, np.ones(n), symmetric=True)


# --- linear solver ---------------------------------------------------------------

def test_identity_solve(rng):
    A = identity_matrix(10)
    b = rng.standard_normal(10)
    x, stats = solve(A, b)
    assert np.allclose(x, np.linalg.solve(A.to_dense(), b), atol=1e-13)
    assert stats["converged"]


def test_dimension_mismatch(rng):
    A = identity_matrix(5)
    with pytest.raises(ValueError, match="dimensions"):
        solve(A, np.zeros(6))


def test_non_finite_right_hand_side_raises(rng):
    # NaN flows through the factor, the refinement and the backward error
    # without a comparison ever failing, so it must be caught explicitly
    b = rng.standard_normal(10)
    b[3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="not finite"):
        solve(identity_matrix(10), b)


def test_spd_paths_agree(mesh4, rng):
    A, dm = assemble_scheme(mesh4, SchemeConfig(scheme=SchemeTag.MORLEY))
    b = rng.standard_normal(dm.n_free)
    x1, s1 = solve(A, b)
    x3 = np.linalg.solve(A.to_dense(), b)
    assert np.abs(x1 - x3).max() < 1e-9 * max(1.0, np.abs(x3).max())
    assert s1["min_pivot"] > 0


def test_morley_point_load_against_dense_oracle(mesh2):
    cfg = SchemeConfig(scheme=SchemeTag.MORLEY)
    A, dm = assemble_scheme(mesh2, cfg)
    load = LoadSpec(points=((1.0, (0.5, 0.5)),))
    b = smoothed_load_vector(mesh2, dm, load)
    x, stats = solve(A, b)
    oracle = np.linalg.solve(A.to_dense(), b)
    assert np.abs(x - oracle).max() < 1e-11
    center = int(np.flatnonzero(
        (np.abs(mesh2.vertices[:, 0] - 0.5) < 1e-14)
        & (np.abs(mesh2.vertices[:, 1] - 0.5) < 1e-14))[0])
    assert x[dm.vertex_dofs[center]] > 0  # downward load bends the plate down


def test_under_penalized_dg_diagnostic(mesh2):
    cfg = SchemeConfig(scheme=SchemeTag.DG, sigma1=1e-6, sigma2=1e-6)
    load = LoadSpec(density=U1.biharmonic)
    with pytest.raises(NonCoerciveError, match="not coercive"):
        solve_scheme(mesh2, cfg, load)
    # the coercivity sweep fails too
    A, dg = assemble_scheme(mesh2, cfg)
    rng = np.random.default_rng(5)
    vals = [v @ A.matvec(v) for v in rng.standard_normal((200, dg.n_free))]
    assert min(vals) < 0


def test_nonsymmetric_lu_path(mesh2):
    cfg = SchemeConfig(scheme=SchemeTag.DG, theta=0.0)
    sol = solve_scheme(mesh2, cfg, point_load(0.3, 0.6))
    assert sol.stats["method"] == "lu" and "min_pivot" not in sol.stats
    assert sol.stats["residual"] < 1e-10
    second = solve_scheme(mesh2, cfg, point_load(0.55, 0.25))
    fresh = solve_scheme(unit_square_mesh(2), cfg, point_load(0.55, 0.25))
    assert second.stats["factor_reused"] is True and fresh.stats["factor_reused"] is False
    assert second.u_h.coeffs.tobytes() == fresh.u_h.coeffs.tobytes()


def test_symmetric_flag_selects_the_route(mesh2):
    # the unflagged theta=0 DG matrix takes LU, every flagged matrix the Cholesky
    load = LoadSpec(density=U1.biharmonic)
    A, dm = assemble_scheme(mesh2, SchemeConfig(scheme=SchemeTag.DG, theta=0.0))
    assert not A.symmetric
    b = smoothed_load_vector(mesh2, dm, load)
    x, stats = solve(A, b)
    assert stats["method"] == "lu" and stats["residual"] <= 1e-10
    again, again_stats = solve(A, b)
    assert again_stats["factor_reused"] is True and again.tobytes() == x.tobytes()
    for tag in SchemeTag:
        A, dm = assemble_scheme(mesh2, SchemeConfig(scheme=tag))
        assert A.symmetric
        _, stats = solve(A, smoothed_load_vector(mesh2, dm, load))
        assert stats["method"] == "ldlt", tag


def test_nonsymmetric_beyond_2000_unknowns_solves():
    mesh = unit_square_mesh(19)  # DG dofs = 6*2*361 = 4332
    cfg = SchemeConfig(scheme=SchemeTag.DG, theta=0.5)
    sol = solve_scheme(mesh, cfg, LoadSpec(density=U1.biharmonic))
    assert sol.stats["method"] == "lu" and sol.stats["n"] == 4332
    assert sol.stats["backward_error"] <= 1e-12


def test_residual_and_backward_error_reported(mesh4):
    sol = solve_scheme(mesh4, SchemeConfig(scheme=SchemeTag.WOPSIP),
                       LoadSpec(density=U1.biharmonic))
    assert sol.stats["residual"] < 1e-10
    assert sol.stats["backward_error"] < 1e-13


@pytest.mark.parametrize("scheme, theta", [(SchemeTag.WOPSIP, 1.0), (SchemeTag.DG, 0.0)])
def test_stage_times_and_refinement_steps_reported(scheme, theta):
    # the LU solve of DG theta=0 on n=4 meets the residual bound with no
    # refinement at round-off (7.6e-14 against 1e-13); n=8 takes 2 steps
    n = 4 if scheme is SchemeTag.WOPSIP else 8
    sol = solve_scheme(unit_square_mesh(n), SchemeConfig(scheme=scheme, theta=theta),
                       LoadSpec(density=U1.biharmonic))
    stages = [sol.stats[key] for key in ("dofmap_time", "forms_time", "load_time")]
    assert all(type(t) is float and t >= 0.0 for t in stages)
    assert sol.stats["assembly_time"] == pytest.approx(sum(stages), rel=1e-9, abs=1e-12)
    steps = sol.stats["refine_steps"]
    assert type(steps) is int
    # the h^-4 penalized system needs refinement; the LU route is refined too
    assert 1 <= steps <= 3
    assert sol.stats["backward_error"] <= 1e-12


# --- one factorization per (mesh, config) ----------------------------------------

def point_load(x, y):
    return LoadSpec(points=((1.0, (x, y)),))


@pytest.mark.parametrize("scheme", list(SchemeTag))
def test_second_load_reuses_the_factor_bit_for_bit(scheme):
    mesh, config = unit_square_mesh(4), SchemeConfig(scheme=scheme)
    first = solve_scheme(mesh, config, point_load(0.3, 0.6))
    second = solve_scheme(mesh, config, point_load(0.55, 0.25))
    assert first.stats["factor_reused"] is False
    assert second.stats["factor_reused"] is True
    assert first.stats["order_time"] > 0.0 and first.stats["factor_time"] > 0.0
    assert second.stats["order_time"] == 0.0 and second.stats["factor_time"] == 0.0
    assert first.stats["solve_time"] > first.stats["order_time"] + first.stats["factor_time"]
    for key in ("method", "factor_nnz", "fronts", "max_front", "min_pivot"):
        assert second.stats[key] == first.stats[key]
    assert second.stats["method"] == "ldlt"
    fresh = solve_scheme(unit_square_mesh(4), config, point_load(0.55, 0.25))
    assert fresh.stats["factor_reused"] is False
    assert second.u_h.coeffs.tobytes() == fresh.u_h.coeffs.tobytes()
    assert second.u_star.coeffs.tobytes() == fresh.u_star.coeffs.tobytes()
    for sol in (first, second, fresh):
        assert sol.stats["backward_error"] <= 1e-12


def test_reused_factor_still_refines_against_the_matrix():
    mesh, config = unit_square_mesh(4), SchemeConfig(scheme=SchemeTag.WOPSIP)
    for x0, y0 in ((0.3, 0.6), (0.55, 0.25), (0.5, 0.5)):
        A, dofmap = assemble_scheme(mesh, config)   # a fresh matrix, not yet factored
        b = smoothed_load_vector(mesh, dofmap, point_load(x0, y0))
        want, built = solve(A, b)
        x, stats = solve(A, b)
        assert stats["factor_reused"] is True and built["factor_reused"] is False
        assert x.tobytes() == want.tobytes()
        for key in ("residual", "backward_error", "converged", "refine_steps"):
            assert stats[key] == built[key]
        r = (b.astype(np.longdouble) - A.to_dense().astype(np.longdouble) @ x).astype(float)
        assert stats["residual"] == pytest.approx(np.linalg.norm(r) / np.linalg.norm(b),
                                                  rel=1e-6)
        assert stats["backward_error"] <= 1e-12
    # an unflagged copy takes the LU route and builds its own factor, once
    unflagged = SparseMatrix(A.nrows, A.ncols, A.rows, A.cols, A.vals)
    assert not unflagged._cache
    for reused in (False, True):
        y, lu = solve(unflagged, b)
        assert lu["method"] == "lu" and lu["factor_reused"] is reused
        assert lu["backward_error"] <= 1e-12
        assert np.abs(y - x).max() <= 1e-10 * np.abs(x).max()


def test_scaled_matrix_does_not_inherit_the_factor():
    mesh, config = unit_square_mesh(4), SchemeConfig(scheme=SchemeTag.MORLEY)
    A, dofmap = assemble_scheme(mesh, config)
    b = smoothed_load_vector(mesh, dofmap, point_load(0.3, 0.6))
    x, stats = solve(A, b)
    assert stats["factor_reused"] is False and A._cache
    for scaled in (A.scale(2.0), dataclasses.replace(A, vals=2.0 * A.vals)):
        assert not scaled._cache
        y, scaled_stats = solve(scaled, b)
        assert scaled_stats["factor_reused"] is False
        assert scaled_stats["min_pivot"] == pytest.approx(2.0 * stats["min_pivot"], rel=1e-12)
        assert np.abs(2.0 * y - x).max() <= 1e-12 * np.abs(x).max()


def test_configs_differing_in_a_penalty_do_not_share_a_factor():
    mesh = unit_square_mesh(4)
    load = point_load(0.3, 0.6)
    weak = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG), load)
    strong = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG, sigma1=70.0), load)
    assert weak.stats["factor_reused"] is False and strong.stats["factor_reused"] is False
    assert weak.stats["min_pivot"] != strong.stats["min_pivot"]
    again = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG, sigma1=70.0), load)
    assert again.stats["factor_reused"] is True
    assert again.u_h.coeffs.tobytes() == strong.u_h.coeffs.tobytes()


def test_configs_differing_only_in_quad_order_share_the_matrix_and_factor():
    mesh = unit_square_mesh(4)
    load = LoadSpec(density=U1.biharmonic)
    default = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG), load)
    finer = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG, quad_order=9), load)
    assert default.stats["factor_reused"] is False and finer.stats["factor_reused"] is True
    assert finer.config.quad_order == 9
    assert (_scheme_system(mesh, matrix_config(finer.config))
            is _scheme_system(mesh, matrix_config(default.config)))
    # Morley reads neither theta nor a penalty
    morley = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.MORLEY), load)
    other = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.MORLEY, theta=0.0, sigma1=1.0), load)
    assert morley.stats["factor_reused"] is False and other.stats["factor_reused"] is True
    assert other.u_h.coeffs.tobytes() == morley.u_h.coeffs.tobytes()


def test_non_coercive_factorization_is_not_memoized():
    mesh = unit_square_mesh(2)
    config = SchemeConfig(scheme=SchemeTag.DG, sigma1=1e-6, sigma2=1e-6)
    for _ in range(2):
        with pytest.raises(NonCoerciveError, match="not coercive"):
            solve_scheme(mesh, config, point_load(0.3, 0.6))
        A, _ = _scheme_system(mesh, config)
        assert A._cache == {}


def test_nonsymmetric_repeat_loads_reuse_the_lu_factor():
    mesh, config = unit_square_mesh(2), SchemeConfig(scheme=SchemeTag.DG, theta=0.0)
    for reused, (x0, y0) in enumerate(((0.3, 0.6), (0.55, 0.25))):
        sol = solve_scheme(mesh, config, point_load(x0, y0))
        assert sol.stats["method"] == "lu"
        assert sol.stats["factor_reused"] is bool(reused)
        assert sol.stats["residual"] < 1e-10
    fresh = solve_scheme(unit_square_mesh(2), config, point_load(0.55, 0.25))
    assert fresh.stats["factor_reused"] is False
    assert sol.u_h.coeffs.tobytes() == fresh.u_h.coeffs.tobytes()
    assert sol.u_star.coeffs.tobytes() == fresh.u_star.coeffs.tobytes()
    sym = solve_scheme(mesh, SchemeConfig(scheme=SchemeTag.MORLEY), point_load(0.3, 0.6))
    A, dofmap = assemble_scheme(mesh, SchemeConfig(scheme=SchemeTag.MORLEY))
    oracle = np.linalg.solve(A.to_dense(), smoothed_load_vector(mesh, dofmap,
                                                               point_load(0.3, 0.6)))
    assert sym.stats["method"] == "ldlt" and sym.stats["factor_reused"] is False
    assert np.abs(sym.u_h.coeffs - oracle).max() <= 1e-10 * np.abs(oracle).max()


# --- nested-dissection multifrontal Cholesky ------------------------------------

def renumbered_mesh(n, seed):
    """The n-grid with vertices, triangles and each triangle's start permuted."""
    mesh = unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.vertices.shape[0])
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    tris = perm[mesh.triangles][rng.permutation(mesh.triangles.shape[0])]
    shift = rng.integers(0, 3, tris.shape[0])
    tris = np.take_along_axis(tris, (np.arange(3)[None, :] + shift[:, None]) % 3, axis=1)
    return build_triangulation(vertices, tris)


def grid_laplacian(k, shift=0.0):
    """5-point Laplacian of a k-by-k grid, diagonal raised by ``shift``."""
    idx = np.arange(k * k).reshape(k, k)
    rows = [idx.ravel()]
    cols = [idx.ravel()]
    vals = [np.full(k * k, 4.0 + shift)]
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [np.full(a.size, -1.0)] * 2
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def check_against_dense(A, rng, rtol=1e-10):
    b = rng.standard_normal(A.nrows)
    x, stats = solve(A, b)
    oracle = np.linalg.solve(A.to_dense(), b)
    assert stats["method"] == "ldlt"
    assert np.abs(x - oracle).max() <= rtol * max(1.0, np.abs(oracle).max())
    return stats


@pytest.mark.parametrize("scheme", list(SchemeTag))
def test_multifrontal_matches_dense_on_renumbered_mesh(scheme, rng):
    A, _ = assemble_scheme(renumbered_mesh(8, 11), SchemeConfig(scheme=scheme))
    assert A.nrows > LEAF_SIZE
    stats = check_against_dense(A, rng, rtol=1e-9)
    assert stats["fronts"] > 1 and stats["max_front"] <= A.nrows
    assert stats["backward_error"] < 1e-14
    for key in ("order_time", "factor_time", "min_pivot"):
        assert type(stats[key]) is float
    for key in ("fronts", "max_front", "factor_nnz"):
        assert type(stats[key]) is int


@pytest.mark.parametrize("degree", [2, 8])
def test_multifrontal_random_sparse_spd(degree, rng):
    # average degree 2 leaves many small components, 8 a dense core
    n = 500
    i = rng.integers(0, n, degree * n // 2)
    j = rng.integers(0, n, degree * n // 2)
    v = rng.uniform(-1.0, 1.0, i.size)
    A = SparseMatrix.from_triplets(
        n, n, np.concatenate([i, j, np.arange(n)]), np.concatenate([j, i, np.arange(n)]),
        np.concatenate([v, v, np.full(n, 20.0)]), symmetric=True)
    check_against_dense(A, rng)


def test_multifrontal_block_diagonal(rng):
    # two grid blocks and isolated unknowns: the graph has 52 components
    r1, c1, v1 = grid_laplacian(15)
    r2, c2, v2 = grid_laplacian(12)
    off2 = 225
    iso = np.arange(off2 + 144, off2 + 194)
    n = off2 + 194
    A = SparseMatrix.from_triplets(
        n, n, np.concatenate([r1, r2 + off2, iso]), np.concatenate([c1, c2 + off2, iso]),
        np.concatenate([v1, v2, np.linspace(1.0, 2.0, iso.size)]), symmetric=True)
    perm, starts, parent = nested_dissection(A)
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert starts[0] == 0 and starts[-1] == n and np.all(np.diff(starts) > 0)
    assert np.all((parent > np.arange(parent.size)) | (parent == -1))
    check_against_dense(A, rng)


def test_multifrontal_reads_the_lower_triangle(rng):
    # a stored lower (or upper) triangle alone is an unsymmetric pattern;
    # unflagged, it factors as the triangular matrix it stores, ordered on
    # the pattern of A + A^T, which is the full Laplacian's
    rows, cols, vals = grid_laplacian(20)
    full = SparseMatrix.from_triplets(400, 400, rows, cols, vals, symmetric=True)
    b = rng.standard_normal(400)
    for half_of in (rows >= cols, rows <= cols):
        half = SparseMatrix.from_triplets(400, 400, rows[half_of], cols[half_of], vals[half_of])
        for got, want in zip(nested_dissection(half), nested_dissection(full)):
            assert np.array_equal(got, want)
        oracle = np.linalg.solve(half.to_dense(), b)
        factor = multifrontal_factor(half)
        assert factor.method == "lu" and len(factor.fronts) > 1
        assert np.abs(factor.solve(b) - oracle).max() < 1e-10 * np.abs(oracle).max()


def test_multifrontal_path_graph(rng):
    n = 1000
    k = np.arange(n - 1)
    A = SparseMatrix.from_triplets(
        n, n, np.concatenate([np.arange(n), k, k + 1]), np.concatenate([np.arange(n), k + 1, k]),
        np.concatenate([np.full(n, 2.5), -np.ones(2 * (n - 1))]), symmetric=True)
    stats = check_against_dense(A, rng)
    assert stats["max_front"] < 2 * LEAF_SIZE


def test_multifrontal_single_unknown():
    A = SparseMatrix.from_triplets(1, 1, [0], [0], [4.0], symmetric=True)
    x, stats = solve(A, np.array([2.0]))
    assert x[0] == 0.5 and stats["fronts"] == 1 and stats["min_pivot"] == 4.0


def test_empty_system_on_one_triangle():
    # every Morley DOF of a lone triangle lies on the clamped boundary
    mesh = build_triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                               np.array([[0, 1, 2]]))
    config = SchemeConfig(scheme=SchemeTag.MORLEY)
    A, dofmap = assemble_scheme(mesh, config)
    assert A.shape == (0, 0) and dofmap.n_free == 0
    factor = multifrontal_factor(A)
    assert factor.perm.size == 0 and factor.fronts == [] and factor.nnz == 0
    assert factor.solve(np.zeros(0)).shape == (0,)
    loads = (LoadSpec(points=((1.0, (0.25, 0.25)),)), LoadSpec(density=U1.biharmonic))
    for reused, load in enumerate(loads):
        sol = solve_scheme(mesh, config, load)
        assert sol.u_h.coeffs.shape == (0,) and sol.stats["method"] == "empty"
        assert sol.stats["factor_reused"] is bool(reused)


def test_multifrontal_indefinite_raises():
    # the lowest eigenvalue of the shifted Laplacian is 8 sin^2(pi/42) - 0.05 < 0
    rows, cols, vals = grid_laplacian(20, shift=-0.05)
    A = SparseMatrix.from_triplets(400, 400, rows, cols, vals, symmetric=True)
    assert np.linalg.eigvalsh(A.to_dense()).min() < 0
    with pytest.raises(NonCoerciveError, match=r"front \d+ of \d+ \(elimination steps \d+\.\.\d+\).*not coercive"):
        solve(A, np.ones(400))


@pytest.mark.parametrize("theta", [-1.0, 0.0])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_nonsymmetric_dg_matches_dense_oracle(theta, n):
    mesh = renumbered_mesh(n, 3 + n)
    A, dofmap = assemble_scheme(mesh, SchemeConfig(scheme=SchemeTag.DG, theta=theta))
    assert not A.symmetric
    b = smoothed_load_vector(mesh, dofmap, LoadSpec(density=U1.biharmonic))
    x, stats = solve(A, b)
    oracle = np.linalg.solve(A.to_dense(), b)
    assert stats["method"] == "lu" and stats["backward_error"] <= 1e-12
    assert stats["factor_nnz"] % 2 == 0 and (stats["fronts"] > 1) == (A.nrows > LEAF_SIZE)
    assert np.abs(x - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_singular_pivot_block_raises_and_stores_nothing():
    # rows 0 and 1 are proportional by 2, so partial pivoting meets an exact zero
    A = SparseMatrix.from_triplets(3, 3, [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 2],
                                   [2.0, 1.0, 4.0, 2.0, 3.0, 5.0])
    for _ in range(2):
        singular = r"front 0 of 1 \(elimination steps 0\.\.2\) is singular"
        with pytest.raises(SolverError, match=singular) as info:
            solve(A, np.ones(3))
        assert not isinstance(info.value, NonCoerciveError)
        assert A._cache == {}


@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize("n", [4, 8])
def test_under_penalized_lu_solve_is_accurate_or_raises(theta, n):
    # penalties of 1e-6 leave the system far from coercive (condition ~1e10);
    # LU pivots inside each block only, so it must either give a backward
    # stable solution or say that it could not (theta = -1 and 0.5 at n=8)
    mesh = unit_square_mesh(n)
    config = SchemeConfig(scheme=SchemeTag.DG, theta=theta, sigma1=1e-6, sigma2=1e-6)
    A, dofmap = assemble_scheme(mesh, config)
    b = smoothed_load_vector(mesh, dofmap, LoadSpec(density=U1.biharmonic))
    oracle = np.linalg.solve(A.to_dense(), b)
    try:
        x, stats = solve(A, b)
    except SolverError as exc:
        assert "backward error" in str(exc) and not isinstance(exc, NonCoerciveError)
        return
    assert stats["method"] == "lu" and stats["backward_error"] <= 1e-12
    assert np.abs(x - oracle).max() <= 1e-6 * np.abs(oracle).max()


def test_min_pivot_matches_dense_ldlt():
    A, _ = assemble_scheme(unit_square_mesh(8), SchemeConfig(scheme=SchemeTag.C0IP))
    perm, _, _ = nested_dissection(A)
    dense = A.to_dense()[np.ix_(perm, perm)]
    pivots = np.diag(np.linalg.cholesky(dense)) ** 2   # D of the L D L^T in that order
    min_pivot = multifrontal_factor(A).min_pivot
    assert abs(min_pivot - pivots.min()) <= 1e-10 * pivots.min()


# --- error norms -----------------------------------------------------------------

def zero_function():
    z = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ScalarFunction(
        "zero", z,
        lambda x, y: np.zeros(np.broadcast(x, y).shape + (2,)),
        lambda x, y: np.zeros(np.broadcast(x, y).shape + (2, 2)),
        z,
    )


def test_zero_errors(mesh2):
    cfg = SchemeConfig(scheme=SchemeTag.MORLEY)
    sol = solve_scheme(mesh2, cfg, LoadSpec())
    rep = compute_errors(zero_function(), sol)
    for value in rep.as_dict().values():
        assert value == 0.0 or value == rep.quad_order


def test_constant_hessian_case(mesh2):
    # u with constant Hessian H: for u_h = 0 the broken energy is
    # sqrt(sum |T| |H|^2) = |H| and the cellwise-mean deviation vanishes
    u = ScalarFunction(
        "q", lambda x, y: 0.5 * x ** 2 + x * y,
        lambda x, y: np.stack([x + y, x], axis=-1),
        lambda x, y: np.broadcast_to(np.array([[1.0, 1.0], [1.0, 0.0]]),
                                     np.broadcast(x, y).shape + (2, 2)),
    )
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    zero = DiscreteFunction(dm, np.zeros(dm.n_free))
    _, _, energy = broken_error_norms(u, zero, 5, 2)
    expected = np.sqrt(np.sum(mesh2.tri_area * 3.0))  # |H|_F^2 = 1+1+1+0
    assert abs(energy - expected) < 1e-13
    assert pi0_hessian_deviation(u, mesh2, 5) < 1e-13


def test_quad_order_validation(mesh2):
    sol = solve_scheme(mesh2, SchemeConfig(scheme=SchemeTag.MORLEY), LoadSpec())
    with pytest.raises(ValueError, match="order"):
        compute_errors(U1, sol, quad_order=3)


def test_best_approx_high_order_oracle(mesh4):
    # the trigonometric Hessian needs an order-9 rule on the n=4 grid before
    # the order-11 oracle confirms the value to 1e-8 relative
    a = pi0_hessian_deviation(U1, mesh4, 9)
    b = pi0_hessian_deviation(U1, mesh4, 11)
    assert abs(a - b) < 1e-8 * b
    # frozen oracle value (order-13 and order-15 rules agree to 14 digits)
    assert abs(b - 5.96159133004570) < 1e-9


def test_pi0_deviation_cases(rng):
    # quadratic: zero deviation
    mesh = unit_square_mesh(3)
    q = ScalarFunction(
        "q", lambda x, y: x * x,
        lambda x, y: np.stack([2 * x, 0 * y], -1),
        lambda x, y: np.broadcast_to(np.diag([2.0, 0.0]), np.broadcast(x, y).shape + (2, 2)),
    )
    assert pi0_hessian_deviation(q, mesh, 5) < 1e-14
    # x^3 on the reference triangle: deviation^2 = 1
    ref = build_triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                              np.array([[0, 1, 2]]))
    x3 = ScalarFunction(
        "x3", lambda x, y: x ** 3,
        lambda x, y: np.stack([3 * x ** 2, 0 * y], -1),
        lambda x, y: np.stack([np.stack([6 * x, 0 * x], -1),
                               np.stack([0 * x, 0 * x], -1)], -2),
    )
    assert abs(pi0_hessian_deviation(x3, ref, 7) ** 2 - 1.0) < 1e-12
    # first-order convergence: the value halves per refinement
    mesh = unit_square_mesh(4)
    d0 = pi0_hessian_deviation(U1, mesh, 7)
    d1 = pi0_hessian_deviation(U1, refine_uniform(mesh), 7)
    assert abs(d1 / d0 - 0.5) < 0.05


def test_error_report_evaluates_the_exact_hessian_once(mesh4):
    calls = []

    def hess(x, y):
        calls.append(x.shape)
        return U1.hess(x, y)

    u = dataclasses.replace(U1, hess=hess)
    load = LoadSpec(density=U1.biharmonic)
    sol = solve_scheme(mesh4, SchemeConfig(scheme=SchemeTag.MORLEY), load)
    rep = compute_errors(u, sol)
    assert len(calls) == 1
    assert rep.best_approx == pi0_hessian_deviation(U1, mesh4, rep.quad_order)


def test_galerkin_identity(mesh4, rng):
    cfg = SchemeConfig(scheme=SchemeTag.DG)
    load = LoadSpec(density=U1.biharmonic)
    sol = solve_scheme(mesh4, cfg, load)
    A, dm = assemble_scheme(mesh4, cfg)
    b = smoothed_load_vector(mesh4, dm, load, quad_order=cfg.quad_order)
    Au = A.matvec(sol.u_h.coeffs)
    for _ in range(20):
        v = rng.standard_normal(dm.n_free)
        lhs = Au @ v
        rhs = b @ v
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_norm_h_consistency_and_lower_bound(mesh4):
    cfg = SchemeConfig(scheme=SchemeTag.MORLEY)
    sol = solve_scheme(mesh4, cfg, LoadSpec(density=U1.biharmonic))
    rep = compute_errors(U1, sol)
    assert abs(rep.norm_h ** 2 - (rep.energy_pw ** 2 + rep.jump ** 2)) <= 1e-10 * rep.norm_h ** 2
    # the nonconforming error can never beat the best quadratic approximation
    assert rep.energy_pw >= rep.best_approx - 1e-9
    v_m = morley_interp_avg(U1, mesh4)
    _, _, e_interp = broken_error_norms(U1, v_m, 7, 2)
    assert rep.energy_pw >= e_interp - 1e-9


def test_postprocessing_constant_stable():
    # /// u - u* ///_pw(subtriangles) <= C || u - u_h ||_h with C stable
    mesh = unit_square_mesh(4)
    cfg = SchemeConfig(scheme=SchemeTag.DG)
    load = LoadSpec(density=U1.biharmonic)
    consts = []
    for _ in range(4):
        sol = solve_scheme(mesh, cfg, load)
        rep = compute_errors(U1, sol)
        star_energy = hct_energy_error(U1, sol.u_star, 7)
        consts.append(star_energy / rep.norm_h)
        mesh = refine_uniform(mesh)
    assert max(consts) / min(consts) <= 1.5
    assert max(consts) < 5.0


def test_norm_equivalence_bracket():
    # the scheme norm and the common norm of the dG error stay comparable
    mesh = unit_square_mesh(4)
    cfg = SchemeConfig(scheme=SchemeTag.DG)
    load = LoadSpec(density=U1.biharmonic)
    ratios = []
    for _ in range(4):
        rep = compute_errors(U1, solve_scheme(mesh, cfg, load))
        ratios.append(rep.norm_scheme / rep.norm_h)
        mesh = refine_uniform(mesh)
    assert max(ratios) / min(ratios) < 1.5
    assert 0.5 < min(ratios) and max(ratios) < 5.0
