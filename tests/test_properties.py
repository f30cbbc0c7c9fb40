"""Property-based checks on perturbed, renumbered unit-square meshes.

Each case jitters the interior vertices of ``unit_square_mesh(n)`` by at
most 0.15 h, then rebuilds the same triangulation with its vertices, its
triangles and the cyclic vertex order inside each triangle permuted.
Exact identities must hold on the renumbered mesh, and the error norms
must match the unpermuted mesh up to round-off.

The norms match only while each triangle keeps its cyclic vertex
order: ``triangle_rule`` is a conical-product rule, not symmetric
in the three vertices, so rotating them moves the quadrature error of
the norms (about 6e-5 relative at n=2).  The full property is kept as a
strict expected failure on the smallest such mesh.

Examples are derandomized and no example database is written, so the
suite is deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from platefem.forms import SchemeConfig, SchemeTag, assemble_scheme
from platefem.functions import get_manufactured
from platefem.interp import verify_right_inverse
from platefem.mesh import build_triangulation, unit_square_mesh
from platefem.rhs import LoadSpec, smoothed_load_vector
from platefem.solve import compute_errors, solve, solve_scheme

PROPERTY_SETTINGS = settings(database=None, derandomize=True, deadline=None,
                             max_examples=10)


def _renumbered(mesh, vperm, tperm, shifts):
    """The same triangulation renumbered.

    Vertices are taken in the order ``vperm`` and triangles in the order
    ``tperm``; the vertices of triangle k are rotated by ``shifts[k]``.
    """
    new_index = np.empty(mesh.num_vertices, dtype=np.int64)
    new_index[vperm] = np.arange(mesh.num_vertices)
    tris = new_index[mesh.triangles[tperm]]
    rot = (np.arange(3)[None, :] + shifts[:, None]) % 3
    return build_triangulation(mesh.vertices[vperm], np.take_along_axis(tris, rot, axis=1))


@st.composite
def perturbed_pairs(draw, rotate=True):
    """(jittered mesh, the same mesh renumbered)."""
    base = unit_square_mesh(draw(st.sampled_from([2, 3, 4])))
    nv, nt = base.num_vertices, base.num_triangles
    interior = np.flatnonzero(~base.vertex_is_boundary)
    # per-coordinate bound 0.15 h / sqrt(2) keeps the displacement within 0.15 h
    bound = 0.15 * base.h_max / np.sqrt(2.0)
    jitter = draw(arrays(np.float64, (interior.size, 2),
                         elements=st.floats(-bound, bound)))
    vertices = base.vertices.copy()
    vertices[interior] += jitter
    mesh = build_triangulation(vertices, base.triangles)

    vperm = np.array(draw(st.permutations(range(nv))))
    tperm = np.array(draw(st.permutations(range(nt))))
    shifts = np.zeros(nt, dtype=np.int64)
    if rotate:
        shifts = np.array(draw(st.lists(st.integers(0, 2), min_size=nt, max_size=nt)))
    return mesh, _renumbered(mesh, vperm, tperm, shifts)


def _norm_h_mismatches(mesh, renumbered):
    u = get_manufactured("u1")
    load = LoadSpec(density=u.biharmonic)
    out = []
    for tag in SchemeTag:
        config = SchemeConfig(scheme=tag)
        want = compute_errors(u, solve_scheme(mesh, config, load)).norm_h
        got = compute_errors(u, solve_scheme(renumbered, config, load)).norm_h
        if abs(got - want) > 1e-9 * want:
            out.append((tag.value, got, want))
    return out


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_right_inverse_on_renumbered_mesh(pair):
    _, renumbered = pair
    assert verify_right_inverse(renumbered).ok


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_schemes_symmetric_and_coercive_at_default_penalties(pair):
    _, renumbered = pair
    load = LoadSpec(density=get_manufactured("u1").biharmonic)
    for tag in SchemeTag:
        config = SchemeConfig(scheme=tag)
        A, dofmap = assemble_scheme(renumbered, config)
        assert A.symmetric, tag
        b = smoothed_load_vector(renumbered, dofmap, load)
        _, stats = solve(A, b, symmetric=True)
        assert stats["min_pivot"] > 0.0, tag
        assert stats["backward_error"] <= 1e-12, (tag, stats["backward_error"])


@PROPERTY_SETTINGS
@given(perturbed_pairs(rotate=False))
def test_error_norm_invariant_under_renumbering(pair):
    assert _norm_h_mismatches(*pair) == []


@pytest.mark.xfail(strict=True, reason="triangle_rule is not symmetric in the vertices "
                   "of a triangle, so the quadrature error of the norms follows their order")
def test_error_norm_invariant_under_cyclic_vertex_order():
    mesh = unit_square_mesh(2)
    nv, nt = mesh.num_vertices, mesh.num_triangles
    shifts = np.arange(nt) % 3
    assert _norm_h_mismatches(mesh, _renumbered(mesh, np.arange(nv), np.arange(nt), shifts)) == []
