import numpy as np
import pytest

from platefem.fespace import (
    DiscreteFunction,
    ElementError,
    SpaceTag,
    build_dof_map,
    evaluate,
    hct_local_basis,
    hct_reference_shapes,
    hct_reference_values,
    hct_rule_points,
    hct_shapes,
    interpolate_nodal,
    monomial_gradients,
    monomial_hessians,
    monomial_values,
    morley_dof_matrix,
    morley_local_basis,
    p2_values,
    prolongate_to_refined,
    to_dgp2,
    zeros,
)
from platefem.mesh import build_triangulation, refine_uniform, unit_square_mesh
from platefem.quadrature import edge_rule, triangle_points, triangle_rule


def single_triangle(coords):
    return build_triangulation(np.asarray(coords, dtype=float), np.array([[0, 1, 2]]))


REF = single_triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# the cubic monomial kernels as a table of powers gathered by exponent; the
# direct column products must reproduce it bit for bit
_EXP = np.array(
    [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
)


def _powers(x):
    out = np.ones(x.shape + (4,))
    for k in range(1, 4):
        out[..., k] = out[..., k - 1] * x
    return out


def _power_table_kernels(xi):
    px, py = _powers(xi[..., 0]), _powers(xi[..., 1])
    a, b = _EXP[:, 0], _EXP[:, 1]
    a1, b1, a2, b2 = (np.maximum(e, 0) for e in (a - 1, b - 1, a - 2, b - 2))
    values = px[..., a] * py[..., b]
    grads = np.stack([a * px[..., a1] * py[..., b], b * px[..., a] * py[..., b1]], axis=-1)
    hxx = a * (a - 1) * px[..., a2] * py[..., b]
    hyy = b * (b - 1) * px[..., a] * py[..., b2]
    hxy = a * b * px[..., a1] * py[..., b1]
    hess = np.stack([np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], -2)
    return values, grads, hess


def hct_coeffs_oracle(mesh):
    """Macro shape functions as ``hct_local_basis`` built them before the
    reference element: one 30x30 system per triangle (3 sub-triangles x 10
    cubic coefficients) of the 12 DOF conditions plus interior continuity,
    value and gradient ties at the vertices and the centroid and the
    normal-derivative match at the midpoint of each internal sub-edge.
    Returns the monomial coefficients, (nt, 3, 10, 12), in the frame
    (x - centroid) / h_T, evaluated here by the power-table kernels.
    """
    nt = mesh.num_triangles
    p = mesh.tri_coords()
    center = p.mean(axis=1)
    scale = mesh.tri_diam
    xi_v = (p - center[:, None, :]) / scale[:, None, None]  # vertices in frame
    h = scale[:, None, None]   # frame gradients to physical ones

    A = np.zeros((nt, 30, 30))
    rhs = np.zeros((30, 12))

    def cols(s):
        return slice(10 * s, 10 * (s + 1))

    row = 0
    # 12 DOF rows
    for j in range(3):
        s = (j + 1) % 3  # K_s = conv{P_{j+2}, P_j, centroid} contains P_j
        A[:, row, cols(s)] = _mono_values(xi_v[:, j])
        rhs[row, 3 * j] = 1.0
        grad = _mono_gradients(xi_v[:, j]) / h
        A[:, row + 1, cols(s)] = grad[..., 0]
        A[:, row + 2, cols(s)] = grad[..., 1]
        rhs[row + 1, 3 * j + 1] = 1.0
        rhs[row + 2, 3 * j + 2] = 1.0
        row += 3
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2) global normals
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        xi_mid = 0.5 * (xi_v[:, j] + xi_v[:, k])
        grad = _mono_gradients(xi_mid) / h
        A[:, row, cols(i)] = np.einsum("tmi,ti->tm", grad, normals[:, i])
        rhs[row, 9 + i] = 1.0
        row += 1
    # vertex ties: the second sub-triangle containing P_j matches value+gradient
    for j in range(3):
        s1, s2 = (j + 1) % 3, (j + 2) % 3
        val = _mono_values(xi_v[:, j])
        grad = _mono_gradients(xi_v[:, j]) / h
        A[:, row, cols(s1)] = val
        A[:, row, cols(s2)] = -val
        A[:, row + 1, cols(s1)] = grad[..., 0]
        A[:, row + 1, cols(s2)] = -grad[..., 0]
        A[:, row + 2, cols(s1)] = grad[..., 1]
        A[:, row + 2, cols(s2)] = -grad[..., 1]
        row += 3
    # centroid ties (frame origin)
    xi_c = np.zeros((nt, 2))
    val_c = _mono_values(xi_c)
    grad_c = _mono_gradients(xi_c) / h
    for s1, s2 in ((0, 1), (1, 2)):
        A[:, row, cols(s1)] = val_c
        A[:, row, cols(s2)] = -val_c
        A[:, row + 1, cols(s1)] = grad_c[..., 0]
        A[:, row + 1, cols(s2)] = -grad_c[..., 0]
        A[:, row + 2, cols(s1)] = grad_c[..., 1]
        A[:, row + 2, cols(s2)] = -grad_c[..., 1]
        row += 3
    # internal sub-edge centroid-P_j: normal-derivative match at its midpoint
    for j in range(3):
        s1, s2 = (j + 1) % 3, (j + 2) % 3
        direction = xi_v[:, j]  # from the origin towards P_j in frame coords
        n = np.column_stack([direction[:, 1], -direction[:, 0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        grad = _mono_gradients(0.5 * xi_v[:, j]) / h
        rows_n = np.einsum("tmi,ti->tm", grad, n)
        A[:, row, cols(s1)] = rows_n
        A[:, row, cols(s2)] = -rows_n
        row += 1
    assert row == 30

    sol = np.linalg.solve(A, np.broadcast_to(rhs, (nt, 30, 12)))
    return sol.reshape(nt, 3, 10, 12)


def _mono_values(xi):
    return _power_table_kernels(xi)[0]


def _mono_gradients(xi):
    return _power_table_kernels(xi)[1]


def _sub_bary(s):
    """Barycentric vertices of sub-triangle s = (P_s+1, P_s+2, centroid), (3, 3)."""
    return np.array([np.eye(3)[(s + 1) % 3], np.eye(3)[(s + 2) % 3], np.full(3, 1.0 / 3.0)])


def hct_oracle_shapes(mesh, coeffs, quad_order, order):
    """Values (order 0), gradients (1) or Hessians (2) of the oracle's shape
    functions ``coeffs`` at ``hct_rule_points(quad_order)``, each point on its
    own sub-triangle, laid out as ``hct_shapes`` returns them."""
    p = mesh.tri_coords()
    h = mesh.tri_diam[:, None, None]
    pts = triangle_points(hct_rule_points(quad_order), p)
    xi = (pts - p.mean(axis=1)[:, None]) / h
    mono = np.moveaxis(_power_table_kernels(xi)[order], 2, -1)   # (nt, 3 nq, [2, [2,]] 10)
    mono /= h.reshape(h.shape[:1] + (1,) * (mono.ndim - 1)) ** order
    nq = pts.shape[1] // 3
    return np.concatenate([
        mono[:, s * nq:(s + 1) * nq, ..., None, :]
        @ coeffs[:, s].reshape((-1,) + (1,) * (order + 1) + (10, 12))
        for s in range(3)], axis=1)[..., 0, :]


def hct_oracle_gaps(mesh, quad_order=3):
    """Relative gaps of the values, gradients and Hessians of ``hct_shapes``
    to those of the per-cell oracle at the rule points."""
    coeffs = hct_coeffs_oracle(mesh)
    return [_relative_gap(hct_shapes(mesh, hct_reference_values(quad_order, order)),
                          hct_oracle_shapes(mesh, coeffs, quad_order, order))
            for order in (0, 1, 2)]


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _jittered(n, seed, amount=0.15):
    """unit_square_mesh(n) with its interior vertices moved by <= amount * h."""
    base = unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    move = rng.uniform(-1.0, 1.0, base.vertices.shape) * amount * base.h_max / np.sqrt(2.0)
    move[base.vertex_is_boundary] = 0.0
    return build_triangulation(base.vertices + move, base.triangles)


# --- DOF maps ----------------------------------------------------------------

def test_dof_counts(mesh1, mesh2):
    assert build_dof_map(mesh2, SpaceTag.MORLEY).n_free == 1 + 8 == 9
    assert build_dof_map(mesh2, SpaceTag.DG_P2).n_free == 6 * 8 == 48
    assert build_dof_map(mesh2, SpaceTag.LAGRANGE_P2).n_free == 9
    assert build_dof_map(mesh2, SpaceTag.HCT).n_free == 3 * 1 + 8 == 11
    assert build_dof_map(mesh1, SpaceTag.MORLEY).n_free == 1


def test_dof_count_formulas_after_refinement(mesh2):
    m = refine_uniform(mesh2)
    nvi = int(np.count_nonzero(~m.vertex_is_boundary))
    nei = int(np.count_nonzero(~m.edge_is_boundary))
    assert build_dof_map(m, SpaceTag.MORLEY).n_free == nvi + nei
    assert build_dof_map(m, SpaceTag.DG_P2).n_free == 6 * m.num_triangles
    assert build_dof_map(m, SpaceTag.HCT).n_free == 3 * nvi + nei


@pytest.mark.parametrize("tag", list(SpaceTag))
def test_dof_count_is_python_int(mesh2, tag):
    # np.count_nonzero returns np.int64 on numpy 2; the count must not
    # leak into Solution.stats and the JSON reports as a numpy scalar.
    assert type(build_dof_map(mesh2, tag).n_free) is int


def test_coefficient_length_checked(mesh2):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    with pytest.raises(ValueError, match="coefficient length"):
        DiscreteFunction(dm, np.zeros(dm.n_free + 1))


# --- quadratic dual basis -----------------------------------------------------

def test_morley_duality_identity(mesh4):
    M = morley_dof_matrix(mesh4)
    C = morley_local_basis(mesh4)
    resid = np.abs(np.einsum("tab,tbc->tac", M, C) - np.eye(6)).max()
    assert resid < 1e-12


def test_morley_reference_coefficients_against_dense_oracle():
    # oracle: apply the six DOF functionals to the Lagrange basis by
    # direct evaluation/quadrature and invert the dense 6x6 system
    mesh = REF
    s, w = edge_rule(3)
    D = np.zeros((6, 6))
    verts = mesh.tri_coords()[0]
    for b in range(6):
        coeffs = np.zeros(6)
        coeffs[b] = 1.0
        f = DiscreteFunction(build_dof_map(mesh, SpaceTag.DG_P2), coeffs)
        for j in range(3):
            lam = np.zeros(3)
            lam[j] = 1.0
            D[j, b] = evaluate(f, 0, lam, 0)
        for i in range(3):
            e = mesh.tri_edges[0, i]
            a_, b_ = mesh.edge_vertices[e]
            pa, pb = mesh.vertices[a_], mesh.vertices[b_]
            acc = 0.0
            for sq, wq in zip(s, w):
                x = pa + sq * (pb - pa)
                lam = _bary(verts, x)
                g = evaluate(f, 0, lam, 1)
                acc += wq * (g @ mesh.edge_normal[e])
            D[3 + i, b] = acc
    C_oracle = np.linalg.inv(D)
    C = morley_local_basis(mesh)[0]
    assert np.abs(C - C_oracle).max() < 1e-12


def _bary(verts, x):
    T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    lb, lc = np.linalg.solve(T, x - verts[0])
    return np.array([1.0 - lb - lc, lb, lc])


def test_edge_shape_function_scaling_bracket(rng):
    # the edge dual function scales like h_T |T|^(1/2) across shapes/sizes
    bary, w = triangle_rule(5)
    ratios = []
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-3, 3)
        for _ in range(40):
            pts = rng.uniform(0, 1, (3, 2))
            area2 = (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1]) - (
                pts[1, 1] - pts[0, 1]
            ) * (pts[2, 0] - pts[0, 0])
            if area2 < 0:
                pts = pts[::-1]
                area2 = -area2
            # keep shapes moderately regular
            lens = [np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
            if area2 / 2 > 0.1 * max(lens) ** 2:
                break
        mesh = single_triangle(pts * scale)
        C = morley_local_basis(mesh)[0]
        N = p2_values(bary)
        for i in range(3):
            vals = N @ C[:, 3 + i]
            norm = np.sqrt(mesh.tri_area[0] * np.sum(w * vals ** 2))
            ratios.append(norm / (mesh.tri_diam[0] * np.sqrt(mesh.tri_area[0])))
    ratios = np.array(ratios)
    assert 0.01 < ratios.min() and ratios.max() < 10.0


def test_morley_hessians_constant(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    f = DiscreteFunction(dm, rng.standard_normal(dm.n_free))
    for t in (0, 3):
        H1 = evaluate(f, t, np.array([0.6, 0.3, 0.1]), 2)
        H2 = evaluate(f, t, np.array([0.1, 0.2, 0.7]), 2)
        assert np.abs(H1 - H2).max() < 1e-12


def test_degenerate_triangle_raises():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
    with pytest.raises(Exception):
        # either the mesh layer or the element layer rejects it
        morley_local_basis(single_triangle(verts))


# --- evaluation ---------------------------------------------------------------

def test_evaluate_zero_everywhere(mesh2):
    for tag in SpaceTag:
        f = zeros(build_dof_map(mesh2, tag))
        for order in (0, 1, 2):
            v = evaluate(f, 0, np.array([0.2, 0.5, 0.3]), order)
            assert np.all(np.asarray(v) == 0.0)


def test_evaluate_quadratic_hessian(mesh2):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    f = interpolate_nodal(dg, lambda x, y: x ** 2)
    for t in range(mesh2.num_triangles):
        H = evaluate(f, t, np.array([1 / 3, 1 / 3, 1 / 3]), 2)
        assert np.allclose(H, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_evaluate_morley_edge_dof_mean(mesh1):
    dm = build_dof_map(mesh1, SpaceTag.MORLEY)
    assert dm.n_free == 1
    f = DiscreteFunction(dm, np.array([1.0]))
    e = int(np.flatnonzero(~mesh1.edge_is_boundary)[0])
    a, b = mesh1.edge_vertices[e]
    pa, pb = mesh1.vertices[a], mesh1.vertices[b]
    s, w = edge_rule(2)
    total = 0.0
    t = mesh1.edge_tris[e, 0]
    verts = mesh1.tri_coords()[t]
    for sq, wq in zip(s, w):
        x = pa + sq * (pb - pa)
        g = evaluate(f, t, _bary(verts, x), 1)
        total += wq * (g @ mesh1.edge_normal[e])
    assert abs(total - 1.0) < 1e-12


def test_evaluate_errors(mesh2):
    f = zeros(build_dof_map(mesh2, SpaceTag.DG_P2))
    with pytest.raises(ValueError, match="outside"):
        evaluate(f, 0, np.array([-0.2, 0.6, 0.6]), 0)
    with pytest.raises(ValueError, match="order"):
        evaluate(f, 0, np.array([0.3, 0.3, 0.4]), 3)


def test_p2_reproduction_elementwise(mesh2, rng):
    def q(x, y):
        return 1.0 + 2 * x - y + 0.5 * x * x + 0.25 * x * y - 0.75 * y * y

    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    f = interpolate_nodal(dg, q)
    for _ in range(20):
        t = rng.integers(0, mesh2.num_triangles)
        lam = rng.dirichlet([1.0, 1.0, 1.0])
        x, y = lam @ mesh2.tri_coords()[t]
        assert abs(evaluate(f, int(t), lam, 0) - q(x, y)) < 1e-10


# --- HCT macro element ----------------------------------------------------------

def test_hct_reproduces_affine():
    mesh = single_triangle([[0.1, -0.2], [1.3, 0.4], [0.2, 1.1]])
    normals = mesh.edge_normal[mesh.tri_edges[0]]
    p = mesh.tri_coords()[0]
    loc = np.zeros(12)
    for j in range(3):
        loc[3 * j] = p[j, 0]
        loc[3 * j + 1] = 1.0
    loc[9:] = normals[:, 0]
    rng = np.random.default_rng(3)
    for s in range(3):
        bary = rng.dirichlet([1, 1, 1], size=6) @ _sub_bary(s)
        vals = hct_shapes(mesh, hct_reference_shapes(bary, 0, s), [0], loc[None])[0]
        assert np.abs(vals - bary @ p[:, 0]).max() < 1e-12


def test_hct_c1_across_internal_edges(mesh2, rng):
    tau = np.array([0.1, 0.35, 0.65, 0.9])[:, None]
    for t in range(0, mesh2.num_triangles, 3):
        loc = rng.standard_normal((1, 12))
        for j in range(3):
            bary = (1.0 - tau) / 3.0 + tau * np.eye(3)[j]   # centroid to P_j
            for order in (0, 1):
                v1, v2 = (hct_shapes(mesh2, hct_reference_shapes(bary, order, (j + k) % 3),
                                     [t], loc) for k in (1, 2))
                assert np.abs(v1 - v2).max() < 1e-10


def test_hct_sub_edge_sides_agree_and_a_tie_takes_the_first():
    # on sub-edge centroid-P_j, lambda_j+1 = lambda_j+2 is the smallest
    # coordinate: both sides give one value and gradient, and without an
    # explicit sub-triangle the lower index of the two is read
    mesh = _jittered(4, 7)
    tau = np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None]
    for j in range(3):
        bary = (1.0 - tau) / 3.0 + tau * np.eye(3)[j]
        first = min((j + 1) % 3, (j + 2) % 3)
        for order in (0, 1):
            v1, v2 = (hct_shapes(mesh, hct_reference_shapes(bary, order, (j + k) % 3))
                      for k in (1, 2))
            assert _relative_gap(v1, v2) <= 1e-12
        for order in (0, 1, 2):
            tie = hct_reference_shapes(bary[1:-1], order)
            assert np.array_equal(tie, hct_reference_shapes(bary[1:-1], order, first))


def test_hct_interpolation_matches_least_squares_oracle():
    # u = x^2 y is a global cubic; the macro interpolant reproduces it, and an
    # independent least-squares construction over a redundant constraint set
    # must agree at the centroid to machine precision
    mesh = REF
    p = mesh.tri_coords()[0]
    normals = mesh.edge_normal[mesh.tri_edges[0]]

    def u(x, y):
        return x * x * y

    def grad(x, y):
        return np.array([2 * x * y, x * x])

    loc = np.zeros(12)
    for j in range(3):
        loc[3 * j] = u(*p[j])
        loc[3 * j + 1 : 3 * j + 3] = grad(*p[j])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        mid = 0.5 * (p[j] + p[k])
        loc[9 + i] = grad(*mid) @ normals[i]

    # main path value at the centroid
    centroid = p.mean(axis=0)
    vals_main = [hct_shapes(mesh, hct_reference_shapes(np.full(3, 1.0 / 3.0), 0, s), [0],
                            loc[None])[0, 0] for s in range(3)]

    # oracle: overdetermined consistent system solved by least squares
    scale = mesh.tri_diam[0]
    c = centroid
    xi_c = np.zeros(2)
    rows, rhs = [], []

    def mono_row(s, xi, kind, direction=None):
        row = np.zeros(30)
        if kind == "val":
            row[10 * s : 10 * (s + 1)] = _mono_values(xi)
        else:
            g = _mono_gradients(xi) / scale
            row[10 * s : 10 * (s + 1)] = g @ direction
        return row

    for j in range(3):
        s1 = (j + 1) % 3
        xi = (p[j] - c) / scale
        rows.append(mono_row(s1, xi, "val")); rhs.append(loc[3 * j])
        rows.append(mono_row(s1, xi, "grad", np.array([1.0, 0.0]))); rhs.append(loc[3 * j + 1])
        rows.append(mono_row(s1, xi, "grad", np.array([0.0, 1.0]))); rhs.append(loc[3 * j + 2])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        xi = (0.5 * (p[j] + p[k]) - c) / scale
        rows.append(mono_row(i, xi, "grad", normals[i])); rhs.append(loc[9 + i])
    for j in range(3):  # redundant C0/C1 matching along internal edges
        s1, s2 = (j + 1) % 3, (j + 2) % 3
        d = p[j] - c
        n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
        for tau in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            xi = (c + tau * d - c) / scale
            rows.append(mono_row(s1, xi, "val") - mono_row(s2, xi, "val")); rhs.append(0.0)
        for tau in (0.0, 0.5, 1.0):
            xi = (c + tau * d - c) / scale
            rows.append(mono_row(s1, xi, "grad", n) - mono_row(s2, xi, "grad", n)); rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    vals_oracle = [_mono_values(xi_c) @ sol[10 * s : 10 * (s + 1)] for s in range(3)]

    exact = u(*centroid)
    for vm, vo in zip(vals_main, vals_oracle):
        assert abs(vm - vo) < 1e-11
        assert abs(vm - exact) < 1e-11  # cubics are reproduced exactly


def test_hct_coeffs_match_per_cell_oracle_at_n64():
    # the reference element, pushed forward and times E_T, against the
    # per-cell 30x30 solves: values, gradients and Hessians at rule points
    assert max(hct_oracle_gaps(unit_square_mesh(64))) <= 1e-12


@pytest.mark.parametrize("n, seed", [(3, 0), (8, 1)])
def test_hct_coeffs_match_per_cell_oracle_on_jittered_meshes(n, seed):
    mesh = _jittered(n, seed)
    assert max(hct_oracle_gaps(mesh)) <= 1e-12
    assert hct_local_basis(mesh).duality_residual <= 1e-12


def test_hct_duality_residual_does_not_grow_with_translation():
    # the check evaluates the DOFs on the coordinate differences the basis is
    # built from, so coordinates far from the origin cost no accuracy there
    base = _jittered(8, 3)
    near = hct_local_basis(base).duality_residual
    far = hct_local_basis(build_triangulation(base.vertices + 1e5, base.triangles))
    assert near <= 1e-12 and far.duality_residual <= 1e-12

def test_hct_thin_triangle_raises_element_error():
    # counterclockwise, so the mesh layer accepts it, but area < 1e-14 h^2
    mesh = single_triangle([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]])
    assert 0.0 < mesh.tri_area[0] < 1e-14 * mesh.tri_diam[0] ** 2
    with pytest.raises(ElementError, match="degenerate"):
        hct_local_basis(mesh)


@pytest.mark.parametrize("quad_order", [3, 7])
def test_hct_reference_table_times_transform_gives_shape_values(quad_order):
    # rule points on a sub-triangle are F_T of the reference rule points, so
    # the tabulated reference values times E_T are the shape values there
    mesh = _jittered(4, 2)
    want = hct_oracle_shapes(mesh, hct_coeffs_oracle(mesh), quad_order, 0)
    got = hct_reference_values(quad_order) @ hct_local_basis(mesh).transform
    assert _relative_gap(got, want) <= 1e-13
    for order in (0, 1, 2):
        assert not hct_reference_values(quad_order, order).flags.writeable
    assert not hct_rule_points(quad_order).flags.writeable


def test_hct_transform_is_identity_on_the_reference_triangle():
    basis = hct_local_basis(REF)
    normals = REF.edge_normal[REF.tri_edges[0]]
    outward = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    signs = np.sign(np.sum(normals * outward, axis=1))   # global normals may point inward
    assert np.allclose(basis.transform[0], np.diag(np.r_[np.ones(9), signs]), atol=1e-15)


def test_hct_shape_functions_vanish_on_far_edges(mesh2, rng):
    # DOFs of vertex j do not influence the trace on the opposite edge
    t = 2
    tau = np.array([0.2, 0.5, 0.8])[:, None]
    for j in range(3):
        bary = (1.0 - tau) * np.eye(3)[(j + 1) % 3] + tau * np.eye(3)[(j + 2) % 3]
        for order in (0, 1):
            # sub-triangle j carries edge (j+1, j+2)
            shapes = hct_shapes(mesh2, hct_reference_shapes(bary, order, j), [t])[0]
            assert np.abs(shapes[..., 3 * j:3 * j + 3]).max() < 1e-10


# --- embeddings / prolongation --------------------------------------------------

def test_to_dgp2_preserves_values(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    f = DiscreteFunction(dm, rng.standard_normal(dm.n_free))
    g = to_dgp2(f)
    for _ in range(10):
        t = int(rng.integers(0, mesh2.num_triangles))
        lam = rng.dirichlet([1, 1, 1])
        assert abs(evaluate(f, t, lam, 0) - evaluate(g, t, lam, 0)) < 1e-12


def test_prolongation_is_exact(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.DG_P2)
    f = DiscreteFunction(dm, rng.standard_normal(dm.n_free))
    fine = refine_uniform(mesh2)
    g = prolongate_to_refined(f, fine)
    for ft in range(0, fine.num_triangles, 7):
        lam = rng.dirichlet([1, 1, 1])
        x = lam @ fine.tri_coords()[ft]
        parent = int(fine.parent_tri[ft])
        lam_c = _bary(mesh2.tri_coords()[parent], x)
        assert abs(evaluate(g, ft, lam, 0) - evaluate(f, parent, lam_c, 0)) < 1e-11


@pytest.mark.parametrize("shape", [(1,), (17,), (4, 9), (3, 2, 5)])
def test_monomial_kernels_match_power_table_bit_for_bit(rng, shape):
    xi = rng.uniform(-1.5, 1.5, shape + (2,))
    xi.flat[::7] = 0.0
    values, grads, hess = _power_table_kernels(xi)
    assert monomial_values(xi).shape == shape + (10,)
    assert np.array_equal(monomial_values(xi), values)
    assert np.array_equal(monomial_gradients(xi), grads)
    assert np.array_equal(monomial_hessians(xi), hess)
