"""The operator identities and solvers carry over to irregular meshes.

Everything else in the suite runs on the structured right-triangle
family; these checks refine a skew quadrilateral so that no hidden
axis-alignment or congruence assumption survives unnoticed.
"""

import numpy as np
import pytest

from platefem.fespace import DiscreteFunction, SpaceTag, build_dof_map, to_dgp2
from platefem.forms import (
    SchemeConfig,
    SchemeTag,
    assemble_jump_form,
    assemble_scheme,
    penalty_value,
)
from platefem.harness import reference_error_norm_h
from platefem.interp import verify_right_inverse
from platefem.mesh import build_triangulation, refine_uniform
from platefem.rhs import LoadSpec
from platefem.solve import solve_scheme


def refined_skew_mesh():
    """A skew quadrilateral of two triangles, refined uniformly twice."""
    verts = np.array([[0.0, 0.0], [1.1, -0.15], [1.4, 1.2], [-0.2, 0.95]])
    mesh = build_triangulation(verts, np.array([[0, 1, 3], [1, 2, 3]]))
    for _ in range(2):
        mesh = refine_uniform(mesh)
    return mesh


@pytest.fixture(scope="module")
def skew_mesh():
    return refined_skew_mesh()


def test_right_inverse_on_skew_mesh(skew_mesh):
    rep = verify_right_inverse(skew_mesh, samples=20)
    assert rep.max_residual < 1e-11


def test_identities_on_skew_mesh(skew_mesh, rng):
    morley = build_dof_map(skew_mesh, SpaceTag.MORLEY)
    dg = build_dof_map(skew_mesh, SpaceTag.DG_P2)
    B = assemble_jump_form(skew_mesh, dg)
    wop = SchemeConfig(scheme=SchemeTag.WOPSIP)
    for _ in range(20):
        v = to_dgp2(DiscreteFunction(skew_mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley.n_free)))
        w = to_dgp2(DiscreteFunction(skew_mesh, SpaceTag.MORLEY, rng.uniform(-1, 1, morley.n_free)))
        bh = -np.dot(B.matvec(v.coeffs), w.coeffs) - np.dot(B.matvec(w.coeffs), v.coeffs)
        assert abs(bh) < 1e-12
        assert abs(penalty_value(v, wop)) < 1e-12


def test_all_schemes_solve_point_load_on_skew_mesh(skew_mesh):
    load = LoadSpec(points=((1.0, (0.55, 0.5)),))
    for tag in SchemeTag:
        sol = solve_scheme(skew_mesh, SchemeConfig(scheme=tag), load)
        assert sol.stats["residual"] < 1e-10
        assert np.isfinite(sol.u_star.coeffs).all()


def test_surrogate_errors_shrink_on_skew_domain(skew_mesh):
    # no closed-form solution on the skew domain: measure against the
    # nonconforming solution two levels further down and require decay
    chain = [skew_mesh]
    for _ in range(3):
        chain.append(refine_uniform(chain[-1]))
    load = LoadSpec(points=((1.0, (0.55, 0.5)),))
    reference = solve_scheme(chain[-1], SchemeConfig(scheme=SchemeTag.MORLEY), load)
    errs = []
    for lvl in range(2):
        sol = solve_scheme(chain[lvl], SchemeConfig(scheme=SchemeTag.MORLEY), load)
        errs.append(reference_error_norm_h(sol.u_h, chain[lvl:], reference.u_h))
    assert errs[1] < errs[0]
