import tracemalloc

import numpy as np
import pytest

from platefem.fespace import (
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    evaluate,
    local_lagrange_coeffs,
    to_dgp2,
)
from platefem.forms import assemble_apw
from platefem.functions import ScalarFunction, get_manufactured
from platefem.interp import (
    companion,
    companion_matrix,
    interp_matrix,
    morley_interp_avg,
    morley_interp_local,
    smoother,
    transfer_ic,
    transfer_ic_matrix,
    verify_right_inverse,
)
from platefem.mesh import build_triangulation, refine_uniform, unit_square_mesh
from platefem.quadrature import edge_rule, triangle_rule
from platefem.solve import broken_error_norms, pi0_hessian_deviation

from p2_oracles import interpolate_nodal

U1 = get_manufactured("u1")
U2 = get_manufactured("u2")

X3 = ScalarFunction(
    "x3",
    lambda x, y: x ** 3,
    lambda x, y: np.stack([3 * x ** 2, np.zeros_like(y)], axis=-1),
    lambda x, y: np.stack(
        [np.stack([6 * x, np.zeros_like(x)], -1),
         np.stack([np.zeros_like(x), np.zeros_like(x)], -1)], -2),
)


def reference_triangle():
    return build_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )


# --- local interpolation -------------------------------------------------------

def test_local_interp_projects_p2(mesh2, rng):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    f = DiscreteFunction(mesh2, SpaceTag.DG_P2, rng.standard_normal(dg.n_free))
    g = morley_interp_local(f)
    assert np.abs(g.coeffs - f.coeffs).max() < 1e-12


def test_local_interp_x3_hessian_and_vertices():
    mesh = reference_triangle()
    out = morley_interp_local(X3, mesh)
    H = evaluate(out, 0, np.array([1 / 3, 1 / 3, 1 / 3]), 2)
    assert np.allclose(H, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)
    for lam, expect in zip(np.eye(3), (0.0, 1.0, 0.0)):
        assert abs(evaluate(out, 0, lam, 0) - expect) < 1e-12


def test_local_interp_hessian_is_cell_mean(mesh4):
    out = morley_interp_local(U1, mesh4)
    bary, w = triangle_rule(11)
    pts = np.einsum("qi,tij->tqj", bary, mesh4.tri_coords())
    mean = np.einsum("q,tqij->tij", w, U1.hess(pts[..., 0], pts[..., 1]))
    lag = local_lagrange_coeffs(out)
    from platefem.fespace import p2_hessians

    H = np.einsum("taij,ta->tij", p2_hessians(mesh4), lag)
    assert np.abs(H - mean).max() < 1e-9


# --- averaging interpolation -----------------------------------------------------

def test_avg_interp_identity_on_nonconforming(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    f = DiscreteFunction(mesh2, SpaceTag.MORLEY, rng.standard_normal(dm.n_free))
    out = morley_interp_avg(to_dgp2(f))
    assert np.abs(out.coeffs - f.coeffs).max() < 1e-12


def quad_two_triangles(p3=(1.3, 1.1), p4=(0.2, 0.9)):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], list(p3), list(p4)])
    return build_triangulation(verts, np.array([[0, 1, 3], [1, 2, 3]]))


def test_two_triangle_edge_bubble_worked_example():
    # the single interior-edge DOF of the interpolated quadratic edge bubble
    # equals (|E|/2)(1/|T1| - 1/|T2|), and vanishes for equal areas
    mesh = quad_two_triangles()
    lag = build_dof_map(mesh, SpaceTag.LAGRANGE_P2)
    assert lag.n_free == 1
    b_e = DiscreteFunction(mesh, SpaceTag.LAGRANGE_P2, np.array([1.0]))
    out = morley_interp_avg(b_e)
    t1, t2 = mesh.tri_area
    e = int(np.flatnonzero(~mesh.edge_is_boundary)[0])
    expected = (mesh.edge_length[e] / 2.0) * (1.0 / t1 - 1.0 / t2)
    assert abs(out.coeffs[0] - expected) < 1e-12

    square = quad_two_triangles(p3=(1.0, 1.0), p4=(0.0, 1.0))
    lag2 = build_dof_map(square, SpaceTag.LAGRANGE_P2)
    out2 = morley_interp_avg(DiscreteFunction(square, SpaceTag.LAGRANGE_P2, np.array([1.0])))
    assert abs(out2.coeffs[0]) < 1e-12


def test_avg_interp_matches_classical_for_smooth(mesh2):
    # for globally smooth clamped input the averaged DOFs equal one-sided ones
    via_avg = morley_interp_avg(U1, mesh2)
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    nodal = morley_interp_avg(morley_interp_local(U1, mesh2))
    assert np.abs(via_avg.coeffs - nodal.coeffs).max() < 1e-9


@pytest.mark.parametrize("tag", [SpaceTag.LAGRANGE_P2, SpaceTag.HCT], ids=["p2c0", "hct"])
def test_avg_interp_reproduces_vertex_values_bit_for_bit(tag, rng):
    # continuous input: a vertex's one-sided values agree, and their patch
    # sum divided by the patch size is the value itself
    mesh = unit_square_mesh(8)
    space = build_dof_map(mesh, tag)
    f = DiscreteFunction(mesh, tag, rng.standard_normal(space.n_free))
    out = morley_interp_avg(f)
    vids = np.flatnonzero(~mesh.vertex_is_boundary)
    vertex = space.vertex_dofs[vids] if tag is SpaceTag.LAGRANGE_P2 else space.vertex_dofs[vids, 0]
    morley_vertex = build_dof_map(mesh, SpaceTag.MORLEY).vertex_dofs[vids]
    assert np.array_equal(out.coeffs[morley_vertex], f.coeffs[vertex])


def test_transfer_operators_store_no_zero_entry():
    for mesh in (unit_square_mesh(8), quad_two_triangles(), reference_triangle()):
        ops = [interp_matrix(mesh, tag) for tag in SpaceTag]
        ops += [companion_matrix(mesh), transfer_ic_matrix(mesh)]
        assert all(np.all(A.vals != 0) for A in ops)


# --- companion -------------------------------------------------------------------

def test_cold_companion_peak_is_bounded_by_its_size():
    # the edge closure sums slices of at most the cell mean's size: the peak
    # of a cold build (its DOF maps and Morley gradients included) stays
    # within 4 times what J stores
    mesh = unit_square_mesh(32)
    tracemalloc.start()
    try:
        J = companion_matrix(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (J.rows.nbytes + J.cols.nbytes + J.vals.nbytes)


def test_right_inverse_identity(mesh2):
    rep = verify_right_inverse(mesh2, samples=50)
    assert rep.ok and rep.max_residual < 1e-11


def test_companion_of_zero(mesh2):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    out = companion(DiscreteFunction(mesh2, SpaceTag.MORLEY, np.zeros(dm.n_free)))
    assert np.all(out.coeffs == 0.0)


def test_companion_edge_mean_by_gauss(mesh1):
    # single-DOF input: the companion's edge mean of the normal derivative,
    # recomputed by 3-point Gauss from either side, equals the input DOF
    dm = build_dof_map(mesh1, SpaceTag.MORLEY)
    jv = companion(DiscreteFunction(mesh1, SpaceTag.MORLEY, np.array([1.0])))
    e = int(np.flatnonzero(~mesh1.edge_is_boundary)[0])
    a, b = mesh1.edge_vertices[e]
    pa, pb = mesh1.vertices[a], mesh1.vertices[b]
    s, w = edge_rule(3)
    for side in range(2):
        t = int(mesh1.edge_tris[e, side])
        verts = mesh1.tri_coords()[t]
        T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        total = 0.0
        for sq, wq in zip(s, w):
            x = pa + sq * (pb - pa)
            lb, lc = np.linalg.solve(T, x - verts[0])
            g = evaluate(jv, t, np.array([1 - lb - lc, lb, lc]), 1)
            total += wq * (g @ mesh1.edge_normal[e])
        assert abs(total - 1.0) < 1e-12


def test_companion_gradient_is_patch_average(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    hct = build_dof_map(mesh2, SpaceTag.HCT)
    f = DiscreteFunction(mesh2, SpaceTag.MORLEY, rng.standard_normal(dm.n_free))
    jv = companion(f)
    indptr, tris, lv = mesh2.vertex_tri_patches()
    z = int(np.flatnonzero(~mesh2.vertex_is_boundary)[0])
    grads = []
    for p in range(indptr[z], indptr[z + 1]):
        t = int(tris[p])
        lam = np.zeros(3)
        lam[lv[p]] = 1.0
        grads.append(evaluate(f, t, lam, 1))
    mean = np.mean(grads, axis=0)
    got = jv.coeffs[hct.vertex_dofs[z, 1:]]
    assert np.abs(got - mean).max() < 1e-12


# --- transfer to continuous quadratics ------------------------------------------

def test_transfer_midpoint_average(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    lag = build_dof_map(mesh2, SpaceTag.LAGRANGE_P2)
    f = DiscreteFunction(mesh2, SpaceTag.MORLEY, rng.standard_normal(dm.n_free))
    out = transfer_ic(f)
    info = mesh2.edge_side_info()
    for e in np.flatnonzero(~mesh2.edge_is_boundary):
        traces = []
        for side in range(2):
            t = int(mesh2.edge_tris[e, side])
            lam = np.zeros(3)
            lam[info["local_a"][e, side]] = 0.5
            lam[info["local_b"][e, side]] = 0.5
            traces.append(evaluate(f, t, lam, 0))
        got = out.coeffs[lag.edge_dofs[e]]
        assert abs(got - 0.5 * sum(traces)) < 1e-12
    # vertex values are copied
    z = int(np.flatnonzero(~mesh2.vertex_is_boundary)[0])
    assert out.coeffs[lag.vertex_dofs[z]] == pytest.approx(
        f.coeffs[dm.vertex_dofs[z]], abs=1e-14
    )


def test_transfer_of_zero(mesh2):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    out = transfer_ic(DiscreteFunction(mesh2, SpaceTag.MORLEY, np.zeros(dm.n_free)))
    assert np.all(out.coeffs == 0.0)


# --- smoother --------------------------------------------------------------------

def test_smoother_zero(mesh2):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    zero = DiscreteFunction(mesh2, SpaceTag.DG_P2, np.zeros(dg.n_free))
    assert np.all(smoother(zero).coeffs == 0.0)


def test_smoother_core_idempotent(mesh2, rng):
    # interpolation o companion o interpolation = interpolation
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    for _ in range(10):
        f = DiscreteFunction(mesh2, SpaceTag.DG_P2, rng.standard_normal(dg.n_free))
        im_f = morley_interp_avg(f)
        again = morley_interp_avg(smoother(f))
        assert np.abs(again.coeffs - im_f.coeffs).max() < 1e-11


def test_smoother_distance_shrinks_under_refinement():
    from platefem.forms import jump_seminorm
    from platefem.solve import energy_distance_p2_hct

    mesh = unit_square_mesh(4)
    prev = None
    for _ in range(3):
        v = interpolate_nodal(mesh, lambda x, y: U1.value(x, y))
        s = smoother(v)
        # || v - J I_M v ||_h: exact broken energy plus the jump part of v
        val = np.sqrt(energy_distance_p2_hct(v, s) ** 2 + jump_seminorm(v) ** 2)
        if prev is not None:
            assert val < prev and np.log2(prev / val) > 0.8
        prev = val
        mesh = refine_uniform(mesh)


# --- interpolation theory invariants ----------------------------------------------

INTERP_CONSTANT = 0.25745784465  # sharp bound for h^-2-weighted interpolation error


@pytest.mark.parametrize("u", [U1, U2], ids=["u1", "u2"])
def test_hessian_integral_mean_identity(u, mesh4):
    v_m = morley_interp_avg(u, mesh4)
    _, _, energy = broken_error_norms(u, v_m, 13, 2)
    dev = pi0_hessian_deviation(u, mesh4, 13)
    assert abs(energy - dev) <= 1e-9 * max(1.0, dev)


@pytest.mark.parametrize("u", [U1, U2], ids=["u1", "u2"])
def test_interpolation_constant_bound(u):
    for n in (2, 4, 8):
        mesh = unit_square_mesh(n)
        v_m = morley_interp_avg(u, mesh)
        l2w = _weighted_l2_error(u, v_m)
        _, _, energy = broken_error_norms(u, v_m, 13, 2)
        assert l2w <= INTERP_CONSTANT * energy * (1.0 + 1e-9)


def _weighted_l2_error(u, v_m):
    mesh = v_m.mesh
    bary, w = triangle_rule(13)
    pts = np.einsum("qi,tij->tqj", bary, mesh.tri_coords())
    from platefem.fespace import p2_values

    lag = local_lagrange_coeffs(v_m)
    vh = np.einsum("qa,ta->tq", p2_values(bary), lag)
    diff2 = (u.value(pts[..., 0], pts[..., 1]) - vh) ** 2
    return float(np.sqrt(np.sum(
        mesh.tri_area / mesh.tri_diam ** 4 * np.einsum("q,tq->t", w, diff2)
    )))


def test_pythagoras_identity(mesh4, rng):
    dm = build_dof_map(mesh4, SpaceTag.MORLEY)
    A = assemble_apw(mesh4, dm)
    for u in (U1, U2):
        v_m = morley_interp_avg(u, mesh4)
        _, _, e_interp = broken_error_norms(u, v_m, 13, 2)
        for _ in range(5):
            w_m = DiscreteFunction(mesh4, SpaceTag.MORLEY, rng.standard_normal(dm.n_free))
            _, _, e_w = broken_error_norms(u, w_m, 13, 2)
            d = w_m.coeffs - v_m.coeffs
            cross = float(d @ A.matvec(d))
            rel = abs(e_w ** 2 - (e_interp ** 2 + cross)) / e_w ** 2
            assert rel < 1e-8


def test_best_approximation_property(mesh4, rng):
    # the interpolant minimizes the broken energy distance over quadratics
    dg = build_dof_map(mesh4, SpaceTag.DG_P2)
    v_m = morley_interp_avg(U1, mesh4)
    _, _, e_interp = broken_error_norms(U1, v_m, 11, 2)
    for _ in range(10):
        v2 = DiscreteFunction(mesh4, SpaceTag.DG_P2, rng.standard_normal(dg.n_free))
        _, _, e2 = broken_error_norms(U1, v2, 11, 2)
        assert e_interp <= e2 + 1e-9
