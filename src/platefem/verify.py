"""Invariant suite behind the command line ``--verify`` flag.

Each check prints one PASS/FAIL line; the suite returns the number of
failures (nonzero exit code from the CLI).  A few monitored quantities
without asserted bounds are printed as INFO lines.
"""

from math import factorial

import numpy as np

from . import forms
from .fespace import (
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    hct_local_basis,
    morley_dof_matrix,
    morley_local_basis,
    reference_shapes,
    shapes,
    to_dgp2,
)
from .functions import get_manufactured
from .interp import companion, morley_interp_avg, verify_right_inverse
from .mesh import build_triangulation, unit_square_mesh
from .quadrature import triangle_rule
from .rhs import LoadSpec, smoothed_load_vector
from .solve import broken_error_norms, energy_distance_p2_hct, pi0_hessian_deviation, solve


def _check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    return 0 if ok else 1


def _sub_edge_jumps(mesh):
    """Largest value and gradient jumps of the shape functions at three points
    of each sub-edge, centroid to P_j, between sub-triangles j+1 and j+2,
    each side evaluated on its own cubic."""
    tau = np.array([0.2, 0.5, 0.8])[:, None]
    jumps = [0.0, 0.0]
    for j in range(3):
        bary = (1.0 - tau) / 3.0 + tau * np.eye(3)[j]
        for order in (0, 1):
            v1, v2 = (shapes(mesh, SpaceTag.HCT,
                             reference_shapes(SpaceTag.HCT, bary, order, (j + k) % 3))
                      for k in (1, 2))
            jumps[order] = max(jumps[order], float(np.abs(v1 - v2).max()))
    return jumps


def run_invariant_suite() -> int:
    seed = 11
    rng = np.random.default_rng(seed)
    failures = 0
    mesh = unit_square_mesh(4)

    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    failures += _check(
        "mesh Euler relation |V|-|E|+|T| = 1", nv - ne + nt == 1, f"{nv}-{ne}+{nt}"
    )
    failures += _check(
        "triangle areas sum to domain area",
        abs(mesh.tri_area.sum() - 1.0) < 1e-12,
    )

    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    dg_map = build_dof_map(mesh, SpaceTag.DG_P2)
    lag_map = build_dof_map(mesh, SpaceTag.LAGRANGE_P2)
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    n_vi = int(np.count_nonzero(~mesh.vertex_is_boundary))
    n_ei = int(np.count_nonzero(~mesh.edge_is_boundary))
    failures += _check(
        "DOF counts match the entity formulas",
        morley_map.n_free == n_vi + n_ei
        and dg_map.n_free == 6 * nt
        and lag_map.n_free == n_vi + n_ei
        and hct_map.n_free == 3 * n_vi + n_ei,
    )

    Mdof = morley_dof_matrix(mesh)
    C = morley_local_basis(mesh)
    dual = np.abs(np.einsum("tab,tbc->tac", Mdof, C) - np.eye(6)).max()
    failures += _check("local quadratic basis duality", dual < 1e-12, f"{dual:.2e}")
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, (nv, 2)) * mesh.h_max
    jitter *= ~mesh.vertex_is_boundary[:, None]
    jittered = build_triangulation(mesh.vertices + jitter, mesh.triangles)
    hct_dual = hct_local_basis(jittered).duality_residual
    vjump, gjump = _sub_edge_jumps(jittered)
    failures += _check("macro element on a jittered mesh: duality, C^1 across sub-edges",
                       max(hct_dual, vjump, gjump) <= 1e-10,
                       f"duality {hct_dual:.1e}, value jump {vjump:.1e}, "
                       f"gradient jump {gjump:.1e}")

    for deg in (2, 3, 5, 7):
        bary, w = triangle_rule(deg)
        worst = 0.0
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                got = 0.5 * np.sum(w * bary[:, 1] ** a * bary[:, 2] ** b)
                worst = max(worst, abs(got - exact))
        failures += _check(f"triangle rule degree {deg} moment-exact", worst < 1e-14,
                           f"{worst:.2e}")

    rep = verify_right_inverse(mesh, samples=50)
    failures += _check(
        "interpolation o companion = identity (50 samples)",
        rep.ok, f"max residual {rep.max_residual:.2e}",
    )

    B = forms.assemble_jump_form(mesh, dg_map)
    wop_cfg = forms.SchemeConfig(scheme=forms.SchemeTag.WOPSIP)
    worst_b = worst_c = 0.0
    for _ in range(50):
        vm = DiscreteFunction(mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley_map.n_free))
        wm = DiscreteFunction(mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley_map.n_free))
        ve, we = to_dgp2(vm), to_dgp2(wm)
        bh = -np.dot(B.matvec(ve.coeffs), we.coeffs) - np.dot(B.matvec(we.coeffs), ve.coeffs)
        worst_b = max(worst_b, abs(bh))
        worst_c = max(worst_c, abs(forms.penalty_value(ve, wop_cfg)))
    failures += _check("consistency form annihilates nonconforming pairs",
                       worst_b < 1e-12, f"{worst_b:.2e}")
    failures += _check("over-penalty vanishes on the nonconforming space",
                       worst_c < 1e-12, f"{worst_c:.2e}")

    u1 = get_manufactured("u1")
    v_m = morley_interp_avg(u1, mesh)
    _, _, einterp = broken_error_norms(u1, v_m, 11, 2)
    dev = pi0_hessian_deviation(u1, mesh, 11)
    failures += _check(
        "interpolant Hessian equals cellwise mean Hessian",
        abs(einterp - dev) < 1e-8 * max(dev, 1.0),
        f"|{einterp:.6f} - {dev:.6f}|",
    )

    wm = DiscreteFunction(mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley_map.n_free))
    _, _, e_wm = broken_error_norms(u1, wm, 11, 2)
    A_m = forms.assemble_apw(mesh, morley_map)
    d = wm.coeffs - v_m.coeffs
    cross = float(np.sqrt(d @ A_m.matvec(d)))
    pyth = abs(e_wm ** 2 - (einterp ** 2 + cross ** 2)) / e_wm ** 2
    failures += _check("orthogonal split of the interpolation error",
                       pyth < 1e-8, f"rel {pyth:.2e}")

    Cdg = forms.assemble_cdg(mesh, dg_map, 1.0, 1.0)
    Cip = forms.assemble_cip(mesh, lag_map, 1.0)
    Cp = forms.assemble_cp(mesh, dg_map)
    psd_ok = True
    for mat, dim in ((Cdg, dg_map.n_free), (Cip, lag_map.n_free), (Cp, dg_map.n_free)):
        for _ in range(20):
            v = rng.standard_normal(dim)
            if v @ mat.matvec(v) < -1e-12 * (v @ v):
                psd_ok = False
    failures += _check("penalty forms positive semidefinite", psd_ok)

    A, dofmap = forms.assemble_scheme(mesh, forms.SchemeConfig(forms.SchemeTag.DG, theta=-1.0))
    b = smoothed_load_vector(mesh, dofmap, LoadSpec(density=u1.biharmonic))
    x, stats = solve(A, b)
    oracle = np.linalg.solve(A.to_dense(), b)
    rel = np.abs(x - oracle).max() / np.abs(oracle).max()
    failures += _check("nonsymmetric DG (theta = -1) LU solve matches the dense solve",
                       rel <= 1e-10 and stats["backward_error"] <= 1e-12,
                       f"rel {rel:.2e}, backward error {stats['backward_error']:.1e}")

    # monitored (not asserted): distance to the companion relative to the
    # energy of the input, a proxy for the companion operator norm
    ratios = []
    for _ in range(10):
        vm = DiscreteFunction(mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley_map.n_free))
        jv = companion(vm)
        dist = energy_distance_p2_hct(vm, jv)
        energy = float(np.sqrt(vm.coeffs @ A_m.matvec(vm.coeffs)))
        ratios.append(dist / energy)
    print(f"[INFO] companion distance /// v - J v ///_pw / /// v ///_pw: "
          f"max {max(ratios):.3f} (monitored, no asserted bound)")

    return failures
