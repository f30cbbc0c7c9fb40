import dataclasses

import numpy as np
import pytest

from platefem.fespace import (
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    evaluate,
    interpolate_nodal,
    to_dgp2,
)
from platefem.forms import (
    SchemeConfig,
    SchemeTag,
    assemble_apw,
    assemble_cdg,
    assemble_cip,
    assemble_cp,
    assemble_jump_form,
    assemble_scheme,
    jump_seminorm,
    penalty_value,
)
from platefem.functions import get_manufactured
from platefem.mesh import build_triangulation, unit_square_mesh
from platefem.quadrature import edge_rule, triangle_rule

U1 = get_manufactured("u1")


@pytest.fixture
def skewed_mesh(rng):
    """unit_square_mesh(3) with jittered interior vertices, its vertices and
    triangles renumbered and each triangle's vertex order rotated."""
    base = unit_square_mesh(3)
    vertices = base.vertices.copy()
    inner = ~base.vertex_is_boundary
    vertices[inner] += rng.uniform(-0.1, 0.1, (inner.sum(), 2)) * base.h_max
    vperm = rng.permutation(base.num_vertices)
    new_index = np.argsort(vperm)
    tris = new_index[base.triangles[rng.permutation(base.num_triangles)]]
    rot = (np.arange(3) + rng.integers(0, 3, (len(tris), 1))) % 3
    return build_triangulation(vertices[vperm], np.take_along_axis(tris, rot, axis=1))


def _evaluated_jumps(f, params, order):
    """Value (order 0) or normal-slope (order 1) jumps (ne, nq) of ``f`` at the
    edge parameters ``params``, each side evaluated on its own triangle;
    single traces on the boundary."""
    mesh = f.mesh
    out = np.zeros((mesh.num_edges, len(params)))
    for e in range(mesh.num_edges):
        pa, pb = mesh.vertices[mesh.edge_vertices[e]]
        for q, s in enumerate(params):
            x = pa + s * (pb - pa)
            for side, sign in ((0, 1.0), (1, -1.0)):
                t = int(mesh.edge_tris[e, side])
                if t < 0:
                    continue
                p0, p1, p2 = mesh.tri_coords()[t]
                lb, lc = np.linalg.solve(np.column_stack([p1 - p0, p2 - p0]), x - p0)
                val = evaluate(f, t, np.array([1.0 - lb - lc, lb, lc]), order)
                out[e, q] += sign * (val if order == 0 else val @ mesh.edge_normal[e])
    return out


# --- piecewise Hessian form ----------------------------------------------------

def test_apw_kernel_contains_affines(mesh2):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    A = assemble_apw(mesh2, dg)
    v = interpolate_nodal(dg, lambda x, y: 1.0 - 0.5 * x + 2.0 * y)
    assert abs(v.coeffs @ A.matvec(v.coeffs)) < 1e-12


def test_apw_quadratic_energy(mesh2):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    A = assemble_apw(mesh2, dg)
    v = interpolate_nodal(dg, lambda x, y: x ** 2)
    assert abs(v.coeffs @ A.matvec(v.coeffs) - 4.0) < 1e-12


def test_apw_matches_quadrature_oracle(mesh2, rng):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    A = assemble_apw(mesh2, dm)
    from platefem.fespace import local_lagrange_coeffs, p2_hessians

    for _ in range(5):
        v = DiscreteFunction(dm, rng.standard_normal(dm.n_free))
        quad = v.coeffs @ A.matvec(v.coeffs)
        lag = local_lagrange_coeffs(v)
        H = np.einsum("taij,ta->tij", p2_hessians(mesh2), lag)
        bary, w = triangle_rule(5)  # 7-point-class rule; integrand is constant
        oracle = float(np.sum(mesh2.tri_area * np.einsum("tij,tij->t", H, H)) * np.sum(w))
        assert abs(quad - oracle) < 1e-12 * max(1.0, abs(oracle))


# --- consistency (gradient-jump) form --------------------------------------------

def test_jump_form_annihilates_nonconforming(mesh2, rng):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    B = assemble_jump_form(mesh2, dg)
    for _ in range(20):
        v = to_dgp2(DiscreteFunction(dm, rng.standard_normal(dm.n_free)), dg)
        w = rng.standard_normal(dg.n_free)
        assert abs(np.dot(B.matvec(v.coeffs), w)) < 1e-12 * max(1.0, np.abs(w).max())


def test_jump_form_zero_on_matched_interior_edges(mesh1):
    # a globally smooth quadratic has matching gradients across the interior
    # edge, which therefore contributes nothing; the assembled form reduces
    # to the single-trace boundary terms
    dg = build_dof_map(mesh1, SpaceTag.DG_P2)
    B = assemble_jump_form(mesh1, dg)
    v = interpolate_nodal(dg, lambda x, y: x ** 2 + 0.5 * x * y - y ** 2)
    w = interpolate_nodal(dg, lambda x, y: x * y)
    got = np.dot(B.matvec(v.coeffs), w.coeffs)

    def grad_v(x, y):
        return np.array([2 * x + 0.5 * y, 0.5 * x - 2 * y])

    hess_w_nu = lambda nu: np.array([nu[1], nu[0]])  # D^2(xy) nu
    s, wq = edge_rule(5)
    oracle = 0.0
    for e in np.flatnonzero(mesh1.edge_is_boundary):
        a, b = mesh1.edge_vertices[e]
        pa, pb = mesh1.vertices[a], mesh1.vertices[b]
        nu = mesh1.edge_normal[e]
        for sq, ww in zip(s, wq):
            x = pa + sq * (pb - pa)
            oracle += ww * (grad_v(*x) @ hess_w_nu(nu)) * mesh1.edge_length[e]
    assert abs(got - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_jump_form_single_edge_gauss_oracle(mesh1):
    # v = x^2 on T+ and 0 on T-, w = x^2 globally: only the diagonal edge
    # contributes; cross-check with a 5-point Gauss evaluation
    dg = build_dof_map(mesh1, SpaceTag.DG_P2)
    B = assemble_jump_form(mesh1, dg)
    e = int(np.flatnonzero(~mesh1.edge_is_boundary)[0])
    tp = int(mesh1.edge_tris[e, 0])
    w_fn = interpolate_nodal(dg, lambda x, y: x ** 2)
    v = np.zeros(dg.n_free)
    v[dg.cell_dofs[tp]] = w_fn.coeffs[dg.cell_dofs[tp]]
    got = np.dot(B.matvec(v), w_fn.coeffs)

    a, b = mesh1.edge_vertices[e]
    pa, pb = mesh1.vertices[a], mesh1.vertices[b]
    nu = mesh1.edge_normal[e]
    s, wq = edge_rule(5)
    acc = 0.0
    for sq, ww in zip(s, wq):
        x = pa + sq * (pb - pa)
        jump_grad = np.array([2.0 * x[0], 0.0])        # one-sided trace of grad v
        avg_hess_nu = np.array([2.0, 0.0]) * nu[0]     # <D^2 w> nu, w = x^2 both sides
        hess_nu = np.array([2.0 * nu[0], 0.0])
        acc += ww * (jump_grad @ hess_nu)
    acc *= mesh1.edge_length[e]
    # boundary edges of T+ also carry v-jumps; subtract their contribution
    boundary_part = 0.0
    for eb in np.flatnonzero(mesh1.edge_is_boundary):
        if mesh1.edge_tris[eb, 0] != tp:
            continue
        a2, b2 = mesh1.edge_vertices[eb]
        p2a, p2b = mesh1.vertices[a2], mesh1.vertices[b2]
        nub = mesh1.edge_normal[eb]
        for sq, ww in zip(s, wq):
            x = p2a + sq * (p2b - p2a)
            boundary_part += ww * (np.array([2 * x[0], 0.0]) @ np.array([2 * nub[0], 0.0])) * mesh1.edge_length[eb]
    assert abs(got - (acc + boundary_part)) < 1e-12


# --- penalty forms ----------------------------------------------------------------

def test_cdg_value_jump_vanishes_for_continuous(mesh2, rng):
    # continuous quadratics vanishing on the boundary have no value jumps,
    # so even an enormous sigma1 contributes nothing to the penalty energy
    lag = build_dof_map(mesh2, SpaceTag.LAGRANGE_P2)
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    huge = SchemeConfig(scheme=SchemeTag.DG, sigma1=1e12, sigma2=1.0)
    tiny = SchemeConfig(scheme=SchemeTag.DG, sigma1=1e-12, sigma2=1.0)
    for _ in range(5):
        v = to_dgp2(DiscreteFunction(lag, rng.standard_normal(lag.n_free)), dg)
        a = penalty_value(v, huge)
        b = penalty_value(v, tiny)
        assert abs(a - b) < 1e-10 * max(1.0, b)


def test_cdg_zero_function(mesh2):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    C = assemble_cdg(mesh2, dg, 20.0, 20.0)
    z = np.zeros(dg.n_free)
    assert np.all(C.matvec(z) == 0.0)


def test_morley_cdg_positive_but_cp_zero(mesh2, rng):
    # nonconforming quadratics carry L2 jumps (penalized by the dG form)
    # yet all their point-value and mean-slope jumps vanish
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    cfg_dg = SchemeConfig(scheme=SchemeTag.DG)
    cfg_p = SchemeConfig(scheme=SchemeTag.WOPSIP)
    v = to_dgp2(DiscreteFunction(dm, rng.standard_normal(dm.n_free)), dg)
    assert penalty_value(v, cfg_dg) > 1e-6
    assert abs(penalty_value(v, cfg_p)) < 1e-12
    assert jump_seminorm(v) < 1e-12


def test_cip_cases(mesh2, rng):
    lag = build_dof_map(mesh2, SpaceTag.LAGRANGE_P2)
    C = assemble_cip(mesh2, lag, 20.0)
    assert np.all(C.matvec(np.zeros(lag.n_free)) == 0.0)
    # oracle: normal-slope jumps evaluated side by side at the Gauss points
    s, w = edge_rule(3)
    for _ in range(5):
        v = DiscreteFunction(lag, rng.standard_normal(lag.n_free))
        njump = _evaluated_jumps(v, s, 1)
        oracle = 20.0 * float(np.sum(w[None, :] * njump ** 2))
        got = v.coeffs @ C.matvec(v.coeffs)
        assert abs(got - oracle) < 1e-12 * max(1.0, oracle)


def test_cp_single_vertex_jump(mesh2):
    # a unit value jump at one endpoint of one edge contributes h^-4 to the
    # over-penalty; cross-checked against a full one-sided trace evaluation
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    C = assemble_cp(mesh2, dg)
    e = int(np.flatnonzero(~mesh2.edge_is_boundary)[0])
    info = mesh2.edge_side_info()
    t = int(mesh2.edge_tris[e, 0])
    la = int(info["local_a"][e, 0])
    v = np.zeros(dg.n_free)
    v[dg.cell_dofs[t, la]] = 1.0  # unit value at vertex a, T+ side only
    f = DiscreteFunction(dg, v)
    h = mesh2.edge_length[:, None]
    got = v @ C.matvec(v)

    # the isolated (edge e, endpoint a) term is exactly h_e^-4
    single_term = h[e, 0] ** -4 * 1.0 ** 2

    # brute-force all jump terms by one-sided evaluation
    expect = (np.sum(h ** -4 * _evaluated_jumps(f, (0.0, 1.0), 0) ** 2)
              + np.sum(h ** -2 * _evaluated_jumps(f, (0.5,), 1) ** 2))
    assert abs(got - expect) < 1e-9 * expect
    assert got >= single_term - 1e-12


def test_penalties_positive_semidefinite(mesh2, rng):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    lag = build_dof_map(mesh2, SpaceTag.LAGRANGE_P2)
    mats = [
        (assemble_cdg(mesh2, dg, 20.0, 20.0), dg.n_free),
        (assemble_cip(mesh2, lag, 20.0), lag.n_free),
        (assemble_cp(mesh2, dg), dg.n_free),
    ]
    for C, n in mats:
        for _ in range(30):
            v = rng.standard_normal(n)
            assert v @ C.matvec(v) >= -1e-12 * (v @ v)


# --- scheme matrices ----------------------------------------------------------------

def test_symmetric_scheme_matrix(mesh2):
    A, _ = assemble_scheme(mesh2, SchemeConfig(scheme=SchemeTag.DG, theta=1.0))
    asym = np.abs(A.to_dense() - A.to_dense().T).max()
    assert asym <= 1e-12 * np.abs(A.vals).max()
    assert A.symmetric


def test_nonsymmetric_theta(mesh2):
    A, _ = assemble_scheme(mesh2, SchemeConfig(scheme=SchemeTag.DG, theta=-1.0))
    assert not A.symmetric
    assert np.abs(A.to_dense() - A.to_dense().T).max() > 1e-3


def test_morley_matrix_spd(mesh2):
    A, dm = assemble_scheme(mesh2, SchemeConfig(scheme=SchemeTag.MORLEY))
    assert dm.n_free == 9
    eigs = np.linalg.eigvalsh(A.to_dense())
    assert eigs.min() > 0


def test_wopsip_matrix_spd(mesh2):
    A, _ = assemble_scheme(mesh2, SchemeConfig(scheme=SchemeTag.WOPSIP))
    assert np.linalg.eigvalsh(A.to_dense()).min() > 0


def test_dg_coercivity_sweep_sigma20(mesh2, rng):
    # empirical sweep at sigma1 = sigma2 = 20: the measured constant
    # comfortably exceeds 0.1 on random coefficient vectors
    cfg = SchemeConfig(scheme=SchemeTag.DG, sigma1=20.0, sigma2=20.0)
    A, dg = assemble_scheme(mesh2, cfg)
    Apw = assemble_apw(mesh2, dg)
    Cdg = assemble_cdg(mesh2, dg, 20.0, 20.0)
    for _ in range(100):
        v = rng.standard_normal(dg.n_free)
        num = v @ A.matvec(v)
        den = v @ Apw.matvec(v) + v @ Cdg.matvec(v)
        assert num >= 0.1 * den


@pytest.mark.parametrize("theta", [1.0, -0.5])
def test_scheme_matrix_sums_its_forms_at_any_parameters(mesh2, theta):
    # non-default values of every field, so assemble_scheme must read each one
    cfg = SchemeConfig(theta=theta, sigma1=70.0, sigma2=3.0, sigma_ip=41.0, quad_order=9)
    for scheme in SchemeTag:
        A, dofmap = assemble_scheme(mesh2, dataclasses.replace(cfg, scheme=scheme))
        expected = assemble_apw(mesh2, dofmap).to_dense()
        if scheme is SchemeTag.WOPSIP:
            expected += assemble_cp(mesh2, dofmap).to_dense()
        elif scheme is not SchemeTag.MORLEY:
            B = assemble_jump_form(mesh2, dofmap).to_dense()
            C = (assemble_cdg(mesh2, dofmap, 70.0, 3.0) if scheme is SchemeTag.DG
                 else assemble_cip(mesh2, dofmap, 41.0))
            expected += -theta * B - B.T + C.to_dense()
        assert np.abs(A.to_dense() - expected).max() <= 1e-12 * np.abs(expected).max()


def test_ip_restriction_of_dg(mesh2, rng):
    # on continuous quadratics the dG matrix reduces to the C0IP matrix
    # (the value-jump penalty block is inactive), for matching sigma2
    cfg = SchemeConfig(scheme=SchemeTag.DG, sigma1=123.0, sigma2=20.0)
    A_dg, dg = assemble_scheme(mesh2, cfg)
    A_ip, lag = assemble_scheme(mesh2, SchemeConfig(scheme=SchemeTag.C0IP, sigma_ip=20.0))
    scale = np.abs(A_dg.vals).max()
    for _ in range(20):
        a = rng.standard_normal(lag.n_free)
        b = rng.standard_normal(lag.n_free)
        fa = to_dgp2(DiscreteFunction(lag, a), dg)
        fb = to_dgp2(DiscreteFunction(lag, b), dg)
        lhs = fa.coeffs @ A_dg.matvec(fb.coeffs)
        rhs = a @ A_ip.matvec(b)
        assert abs(lhs - rhs) < 1e-12 * scale * max(1.0, np.abs(a).max() * np.abs(b).max())


def test_forms_require_the_meshes_own_dof_map(mesh2, mesh4):
    dofmap = build_dof_map(mesh2, SpaceTag.DG_P2)
    with pytest.raises(ValueError, match="different mesh"):
        assemble_apw(mesh4, dofmap)
    # an equal map that is not the memoized one could number differently
    copy = dataclasses.replace(dofmap, cell_dofs=dofmap.cell_dofs[:, ::-1].copy())
    for assemble in (assemble_apw, assemble_jump_form, assemble_cp):
        with pytest.raises(ValueError, match="own DOF map"):
            assemble(mesh2, copy)


def test_config_validation():
    with pytest.raises(ValueError, match="theta"):
        SchemeConfig(theta=1.5)
    with pytest.raises(ValueError, match="positive"):
        SchemeConfig(sigma1=-1.0)
    with pytest.raises(ValueError, match="quadrature"):
        SchemeConfig(quad_order=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["theta", "sigma1", "sigma2", "sigma_ip"])
def test_config_rejects_non_finite_parameters(mesh2, field, value):
    with pytest.raises(ValueError, match="theta" if field == "theta" else "finite"):
        SchemeConfig(**{field: value})
    if field == "sigma_ip":
        with pytest.raises(ValueError, match="finite"):
            assemble_cip(mesh2, build_dof_map(mesh2, SpaceTag.LAGRANGE_P2), value)
    elif field != "theta":
        sigmas = {"sigma1": 1.0, "sigma2": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            assemble_cdg(mesh2, build_dof_map(mesh2, SpaceTag.DG_P2), **sigmas)


def test_matrix_export_format(mesh1):
    A, _ = assemble_scheme(mesh1, SchemeConfig(scheme=SchemeTag.MORLEY))
    text = A.export_coo_text()
    lines = text.strip().split("\n")
    n, m, nnz = (int(x) for x in lines[0].split())
    assert (n, m, nnz) == (1, 1, len(lines) - 1)
    i, j, v = lines[1].split()
    assert int(i) == 1 and int(j) == 1 and float(v) > 0


@pytest.mark.parametrize("config", [
    SchemeConfig(scheme=SchemeTag.DG, sigma1=70.0, sigma2=3.0),
    SchemeConfig(scheme=SchemeTag.C0IP, sigma_ip=41.0),
    SchemeConfig(scheme=SchemeTag.WOPSIP),
], ids=lambda c: c.scheme.value)
def test_penalty_matrix_matches_penalty_value(skewed_mesh, rng, config):
    # the assembled penalty matrix and the edgewise sum of squared jumps are
    # two reductions of the same terms, so they agree to round-off
    dofmap = build_dof_map(skewed_mesh, config.space_tag)
    C = {SchemeTag.DG: lambda: assemble_cdg(skewed_mesh, dofmap, config.sigma1, config.sigma2),
         SchemeTag.C0IP: lambda: assemble_cip(skewed_mesh, dofmap, config.sigma_ip),
         SchemeTag.WOPSIP: lambda: assemble_cp(skewed_mesh, dofmap)}[config.scheme]()
    for _ in range(10):
        v = DiscreteFunction(dofmap, rng.standard_normal(dofmap.n_free))
        mat = v.coeffs @ C.matvec(v.coeffs)
        oracle = penalty_value(v, config)
        assert abs(mat - oracle) <= 1e-12 * max(1.0, oracle)


def test_jump_seminorm_matches_evaluated_jumps(skewed_mesh, rng):
    # j_h^2 = sum_E h_E^-2 ([v](a)^2 + [v](b)^2) + [dv/dnu](mid)^2
    dg = build_dof_map(skewed_mesh, SpaceTag.DG_P2)
    h = skewed_mesh.edge_length
    for _ in range(3):
        v = DiscreteFunction(dg, rng.standard_normal(dg.n_free))
        vjump = _evaluated_jumps(v, (0.0, 1.0), 0)
        njump = _evaluated_jumps(v, (0.5,), 1)
        oracle = np.sqrt(np.sum(vjump ** 2 / h[:, None] ** 2) + np.sum(njump ** 2))
        assert abs(jump_seminorm(v) - oracle) <= 1e-12 * oracle
