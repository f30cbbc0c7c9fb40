"""Acceptance suite: one test and one printed PASS line per criterion.

Criteria (tolerances pinned, not tuned post hoc):
  1. operator identities, exact arithmetic
  2. interpolation theory at quadrature tolerance 1e-8
  3. the two-triangle worked example, exact to 1e-12
  4. energy-norm rates: last-pair EOC in [0.85, 1.15] for all four schemes
  5. post-processed H1 rates: last-pair EOC in [1.7, 2.15]
  6. cross-scheme error equivalence: per-level max/min ratio <= 10,
     drift between consecutive levels <= 25%, and the nonconforming
     error never beats the quadratic best approximation
  7. point-load functionality with a two-levels-finer surrogate
  8. well-posedness diagnostics (positive pivots; under-penalized
     systems are diagnosed as non-coercive)
"""

import time

import numpy as np
import pytest

from platefem.fespace import (
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    local_lagrange_coeffs,
    p2_hessians,
    to_dgp2,
)
from platefem.forms import (
    SchemeConfig,
    SchemeTag,
    assemble_jump_form,
    assemble_scheme,
    penalty_value,
)
from platefem.functions import get_manufactured
from platefem.harness import mesh_sequence, reference_error_norm_h
from platefem.interp import morley_interp_avg, verify_right_inverse
from platefem.mesh import build_triangulation, unit_square_mesh
from platefem.quadrature import triangle_rule
from platefem.rhs import LoadSpec, smoothed_load_vector
from platefem.solve import (
    NonCoerciveError,
    broken_error_norms,
    compute_errors,
    multifrontal_factor,
    solve_scheme,
)

U1 = get_manufactured("u1")
U2 = get_manufactured("u2")

def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- criterion 1: operator identities -------------------------------------------

def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(101)

    rep = verify_right_inverse(mesh, samples=50)

    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    dg_map = build_dof_map(mesh, SpaceTag.DG_P2)
    B = assemble_jump_form(mesh, dg_map)
    wop = SchemeConfig(scheme=SchemeTag.WOPSIP)
    worst_b = worst_c = 0.0
    for _ in range(50):
        v = to_dgp2(DiscreteFunction(mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley_map.n_free)))
        w = to_dgp2(DiscreteFunction(mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley_map.n_free)))
        bh = -np.dot(B.matvec(v.coeffs), w.coeffs) - np.dot(B.matvec(w.coeffs), v.coeffs)
        worst_b = max(worst_b, abs(bh))
        worst_c = max(worst_c, abs(penalty_value(v, wop)))
    elapsed = time.perf_counter() - t0
    ok = rep.max_residual <= 1e-11 and worst_b <= 1e-12 and worst_c <= 1e-12 and elapsed < 1.0
    report(1, ok,
           f"right-inverse {rep.max_residual:.2e} (<=1e-11), "
           f"b_h on nonconforming pairs {worst_b:.2e} (<=1e-12), "
           f"over-penalty on embeddings {worst_c:.2e} (<=1e-12), {elapsed:.2f}s (<1s)")


# --- criterion 2: interpolation theory -------------------------------------------

def test_criterion_2_interpolation_theory():
    t0 = time.perf_counter()
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(202)
    kappa = 0.25745784465
    quad = 13

    worst_mean = 0.0
    for u in (U1, U2):
        v_m = morley_interp_avg(u, mesh)
        lag = local_lagrange_coeffs(v_m)
        H_interp = np.einsum("taij,ta->tij", p2_hessians(mesh), lag)
        bary, w = triangle_rule(quad)
        pts = np.einsum("qi,tij->tqj", bary, mesh.tri_coords())
        H_mean = np.einsum("q,tqij->tij", w, u.hess(pts[..., 0], pts[..., 1]))
        worst_mean = max(worst_mean, np.abs(H_interp - H_mean).max())

    worst_pyth = 0.0
    from platefem.forms import assemble_apw

    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    A = assemble_apw(mesh, morley_map)
    for u in (U1, U2):
        v_m = morley_interp_avg(u, mesh)
        _, _, e_i = broken_error_norms(u, v_m, quad, 2)
        for _ in range(10):
            w_m = DiscreteFunction(mesh, SpaceTag.MORLEY, rng.standard_normal(morley_map.n_free))
            _, _, e_w = broken_error_norms(u, w_m, quad, 2)
            d = w_m.coeffs - v_m.coeffs
            worst_pyth = max(
                worst_pyth,
                abs(e_w ** 2 - (e_i ** 2 + d @ A.matvec(d))) / e_w ** 2,
            )

    kappa_ok = True
    for u in (U1, U2):
        for n in (2, 4, 8):
            m = unit_square_mesh(n)
            v_m = morley_interp_avg(u, m)
            bary, w = triangle_rule(quad)
            pts = np.einsum("qi,tij->tqj", bary, m.tri_coords())
            from platefem.fespace import p2_values

            vh = np.einsum("qa,ta->tq", p2_values(bary), local_lagrange_coeffs(v_m))
            diff2 = (u.value(pts[..., 0], pts[..., 1]) - vh) ** 2
            l2w = np.sqrt(np.sum(
                m.tri_area / m.tri_diam ** 4 * np.einsum("q,tq->t", w, diff2)))
            _, _, energy = broken_error_norms(u, v_m, quad, 2)
            if l2w > kappa * energy * (1 + 1e-9):
                kappa_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-8 and worst_pyth <= 1e-8 and kappa_ok and elapsed < 5.0
    report(2, ok,
           f"Hessian mean identity {worst_mean:.2e} (<=1e-8), "
           f"orthogonal split rel {worst_pyth:.2e} (<=1e-8), "
           f"kappa=0.25745784465 bound holds: {kappa_ok}, {elapsed:.2f}s (<5s)")


# --- criterion 3: worked two-triangle example -------------------------------------

def test_criterion_3_two_triangle_example():
    def run(p3, p4):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], list(p3), list(p4)])
        mesh = build_triangulation(verts, np.array([[0, 1, 3], [1, 2, 3]]))
        lag = build_dof_map(mesh, SpaceTag.LAGRANGE_P2)
        out = morley_interp_avg(DiscreteFunction(mesh, SpaceTag.LAGRANGE_P2, np.array([1.0])))
        e = int(np.flatnonzero(~mesh.edge_is_boundary)[0])
        t1, t2 = mesh.tri_area
        expected = (mesh.edge_length[e] / 2.0) * (1.0 / t1 - 1.0 / t2)
        return out.coeffs[0], expected

    got, expected = run((1.3, 1.1), (0.2, 0.9))
    err_uneq = abs(got - expected)
    got0, _ = run((1.0, 1.0), (0.0, 1.0))
    err_eq = abs(got0)
    ok = err_uneq <= 1e-12 and err_eq <= 1e-12
    report(3, ok,
           f"unequal areas: |dof - (|E|/2)(1/T1-1/T2)| = {err_uneq:.2e} (<=1e-12), "
           f"equal areas: |dof| = {err_eq:.2e} (<=1e-12)")


# --- criteria 4-6: the desk-scale convergence study --------------------------------

ALL_SCHEMES = (SchemeTag.MORLEY, SchemeTag.DG, SchemeTag.C0IP, SchemeTag.WOPSIP)


@pytest.fixture(scope="module")
def full_study():
    meshes = mesh_sequence(4, 4)
    load = LoadSpec(density=U1.biharmonic)
    t0 = time.perf_counter()
    reports = {}
    for tag in ALL_SCHEMES:
        cfg = SchemeConfig(scheme=tag)
        reports[tag] = [compute_errors(U1, solve_scheme(m, cfg, load))
                        for m in meshes]
    return reports, time.perf_counter() - t0


def _last_eoc(values):
    return float(np.log2(values[-2] / values[-1]))


def test_criterion_4_energy_rates(full_study):
    reports, elapsed = full_study
    details = []
    ok = elapsed < 60.0
    for tag in ALL_SCHEMES:
        errs = [r.norm_scheme if tag is SchemeTag.WOPSIP else r.norm_h
                for r in reports[tag]]
        eoc = _last_eoc(errs)
        details.append(f"{tag.value}={eoc:.3f}")
        ok = ok and 0.85 <= eoc <= 1.15
    report(4, ok, "last-pair energy EOC in [0.85, 1.15]: "
           + ", ".join(details) + f"; study wall time {elapsed:.1f}s (<60s)")


def test_criterion_5_postprocessed_h1_rates(full_study):
    reports, _ = full_study
    details = []
    ok = True
    for tag in ALL_SCHEMES:
        eoc = _last_eoc([r.h1_star for r in reports[tag]])
        details.append(f"{tag.value}={eoc:.3f}")
        ok = ok and 1.7 <= eoc <= 2.15
    report(5, ok, "last-pair H1 EOC of the C1 post-processing in [1.7, 2.15]: "
           + ", ".join(details))


def test_criterion_6_comparison(full_study):
    reports, _ = full_study
    ratios = []
    lower_bound_ok = True
    for lvl in range(4):
        q = [reports[SchemeTag.MORLEY][lvl].norm_h,
             reports[SchemeTag.DG][lvl].norm_h,
             reports[SchemeTag.C0IP][lvl].norm_h,
             reports[SchemeTag.MORLEY][lvl].best_approx]
        ratios.append(max(q) / min(q))
        if reports[SchemeTag.MORLEY][lvl].norm_h < q[3] - 1e-9:
            lower_bound_ok = False
    drift = max(abs(b - a) / a for a, b in zip(ratios[:-1], ratios[1:]))
    ok = max(ratios) <= 10.0 and drift <= 0.25 and lower_bound_ok
    report(6, ok,
           f"per-level max/min ratios {[f'{r:.3f}' for r in ratios]} (<=10), "
           f"max drift {drift * 100:.1f}% (<=25%), "
           f"nonconforming error >= best approximation: {lower_bound_ok}")


# --- criterion 7: point loads -------------------------------------------------------

def test_criterion_7_point_load():
    meshes = mesh_sequence(8, 3)  # study mesh + two finer levels for the surrogate
    coarse = meshes[0]
    load = LoadSpec(points=((1.0, (0.5, 0.5)),))

    morley_map = build_dof_map(coarse, SpaceTag.MORLEY)
    b = smoothed_load_vector(coarse, morley_map, load)
    center = int(np.flatnonzero(
        (np.abs(coarse.vertices[:, 0] - 0.5) < 1e-14)
        & (np.abs(coarse.vertices[:, 1] - 0.5) < 1e-14))[0])
    shortcut = np.zeros(morley_map.n_free)
    shortcut[morley_map.vertex_dofs[center]] = 1.0
    nodal_exact = np.array_equal(b, shortcut)

    reference = solve_scheme(meshes[-1], SchemeConfig(scheme=SchemeTag.MORLEY), load)
    errors = {}
    solved = True
    for tag in ALL_SCHEMES:
        try:
            sol = solve_scheme(coarse, SchemeConfig(scheme=tag), load)
        except Exception:
            solved = False
            continue
        errors[tag.value] = reference_error_norm_h(sol.u_h, meshes, reference.u_h)
    vals = list(errors.values())
    ratio = max(vals) / min(vals)
    ok = nodal_exact and solved and len(vals) == 4 and ratio <= 10.0 and all(
        np.isfinite(v) and v > 0 for v in vals)
    report(7, ok,
           f"nodal shortcut exact: {nodal_exact}; all four schemes solved: {solved}; "
           f"surrogate error ratio {ratio:.2f} (<=10)")


# --- criterion 8: well-posedness diagnostics ----------------------------------------

def test_criterion_8_wellposedness():
    mesh = unit_square_mesh(4)
    pivots = {}
    for tag in (SchemeTag.MORLEY, SchemeTag.WOPSIP):
        A, _ = assemble_scheme(mesh, SchemeConfig(scheme=tag))
        factor = multifrontal_factor(A)  # raises on any nonpositive pivot
        pivots[tag.value] = factor.min_pivot
    spd_ok = all(p > 0 for p in pivots.values())

    diagnosed = False
    try:
        solve_scheme(unit_square_mesh(2),
                     SchemeConfig(scheme=SchemeTag.DG, sigma1=1e-6, sigma2=1e-6),
                     LoadSpec(density=U1.biharmonic))
    except NonCoerciveError:
        diagnosed = True
    ok = spd_ok and diagnosed
    report(8, ok,
           f"factorizations positive definite (min pivots "
           f"{ {k: f'{v:.2e}' for k, v in pivots.items()} }); "
           f"under-penalized system diagnosed non-coercive: {diagnosed}")
