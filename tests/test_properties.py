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

The assembled systems must also equal, bit for bit, those of an
oracle that sorts and sums every form's triplets and combines the forms
by sort-merges, as the assembly did before it reduced onto memoized
block patterns.  The macro-space load, which contracts the quadrature
first, must match to round-off an oracle that evaluates every shape
function at every quadrature point of one sub-triangle at a time.  The
macro basis, pushed forward from one reference element, must match the
per-cell 30x30 solves it replaced, and every form block contracted by
BLAS the plain ``np.einsum`` it replaced, both to round-off.

Examples are derandomized and no example database is written, so the
suite is deterministic.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from platefem import forms
from platefem.fespace import (
    barycentric_gradients,
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    evaluate,
    hct_local_basis,
    monomial_values,
    morley_local_basis,
    p2_gradients,
    p2_hessians,
)
from platefem.forms import SchemeConfig, SchemeTag, assemble_scheme, edge_traces
from platefem.functions import get_manufactured
from platefem.interp import _morley_vertex_grad_rows, verify_right_inverse
from platefem.mesh import build_triangulation, unit_square_mesh
from platefem.quadrature import edge_rule, triangle_rule
from platefem.rhs import LoadSpec, _hct_functional, locate_point, smoothed_load_vector
from platefem.solve import compute_errors, solve, solve_scheme
from platefem.sparse import SparseMatrix, TripletAccumulator
from test_fespace import hct_coeffs_oracle

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
        _, stats = solve(A, b)
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


# --- triplet oracle of the assembly -----------------------------------------------

def _triplet_form(mesh, dofmap, kind, blocks, symmetric=False):
    """A form built from all its (row, col, value) triplets, sorted and summed."""
    dofs = dofmap.cell_dofs
    if kind == "edge":
        t0, t1 = mesh.edge_tris.T
        side1 = dofs[np.maximum(t1, 0)].copy()
        side1[t1 < 0] = -1
        dofs = np.concatenate([dofs[t0], side1], axis=1)
    acc = TripletAccumulator(dofmap.n_free, dofmap.n_free)
    acc.add(dofs[:, :, None], dofs[:, None, :], blocks)
    return acc.build(symmetric=symmetric)


def _merged(a, b, symmetric=False):
    return SparseMatrix.from_triplets(
        a.nrows, a.ncols, np.concatenate([a.rows, b.rows]), np.concatenate([a.cols, b.cols]),
        np.concatenate([a.vals, b.vals]), symmetric=symmetric)


def _scaled(a, alpha):
    return SparseMatrix(a.nrows, a.ncols, a.rows, a.cols, alpha * a.vals)


def _oracle_scheme(mesh, config):
    dofmap = build_dof_map(mesh, config.space_tag)
    with mock.patch.object(forms, "_reduce", _triplet_form):
        A = forms.assemble_apw(mesh, dofmap)
        if config.scheme is SchemeTag.MORLEY:
            return A
        if config.scheme is SchemeTag.WOPSIP:
            return _merged(A, forms.assemble_cp(mesh, dofmap), symmetric=True)
        B = forms.assemble_jump_form(mesh, dofmap)
        if config.scheme is SchemeTag.DG:
            C = forms.assemble_cdg(mesh, dofmap, config.sigma1, config.sigma2)
        else:
            C = forms.assemble_cip(mesh, dofmap, config.sigma_ip)
    Bt = SparseMatrix.from_triplets(B.ncols, B.nrows, B.cols, B.rows, B.vals)
    A = _merged(_merged(A, _merged(_scaled(B, -config.theta), _scaled(Bt, -1.0))), C)
    if config.symmetric:
        A = SparseMatrix.from_triplets(A.nrows, A.ncols, A.rows, A.cols, A.vals, symmetric=True)
    return A


ORACLE_CONFIGS = [SchemeConfig(scheme=tag) for tag in SchemeTag] + [
    SchemeConfig(scheme=tag, theta=theta)
    for tag in (SchemeTag.DG, SchemeTag.C0IP) for theta in (0.0, -1.0)
]


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_assembly_equals_triplet_oracle_bit_for_bit(pair):
    _, renumbered = pair
    for config in ORACLE_CONFIGS:
        A, _ = assemble_scheme(renumbered, config)
        want = _oracle_scheme(renumbered, config)
        label = (config.scheme.value, config.theta)
        assert A.shape == want.shape and A.symmetric == want.symmetric, label
        assert np.array_equal(A.rows, want.rows) and np.array_equal(A.cols, want.cols), label
        assert np.array_equal(A.vals.view(np.int64), want.vals.view(np.int64)), label


def test_memoized_patterns_are_read_only(mesh2):
    for config in ORACLE_CONFIGS:
        A, _ = assemble_scheme(mesh2, config)
        assert not (A.rows.flags.writeable or A.cols.flags.writeable)
    tags = (forms.SpaceTag.MORLEY, forms.SpaceTag.DG_P2, forms.SpaceTag.LAGRANGE_P2)
    patterns = [forms._block_pattern(mesh2, tag, "cell") for tag in tags]
    patterns += [forms._block_pattern(mesh2, tag, "edge") for tag in tags[1:]]
    memo = [forms._cell_positions(mesh2, tag) for tag in tags[1:]]
    memo += [a for p in patterns for a in (p.tperm, p.gather, p.starts)]
    assert all(a.dtype == np.int32 for a in memo)   # slot indices: half the memo
    memo += [a for p in patterns for a in (p.rows, p.cols)]
    for arr in memo:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


# --- per-sub-triangle oracle of the smoothed load ------------------------------------

def _hct_functional_oracle(mesh, load, quad_order):
    """The macro-space load in the order it had before quadrature came first.

    The density term evaluates all 12 shape functions at every point of one
    sub-triangle at a time; each point load sums its weight times the value
    of every free shape function, taken from ``evaluate``.
    """
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    basis = hct_local_basis(mesh)
    cd = hct_map.cell_dofs
    b = np.zeros(hct_map.n_free)
    if load.density is not None:
        bary, w = triangle_rule(quad_order)
        for s in range(3):
            pts = np.einsum("qi,tij->tqj", bary, basis.sub_coords[:, s])
            xi = (pts - basis.center[:, None, :]) / basis.scale[:, None, None]
            vals = np.einsum("tqm,tma->tqa", monomial_values(xi), basis.coeffs[:, s])
            f = load.density(pts[..., 0], pts[..., 1])
            contrib = mesh.tri_area[:, None] / 3.0 * np.einsum("q,tq,tqa->ta", w, f, vals)
            np.add.at(b, np.maximum(cd, 0), np.where(cd >= 0, contrib, 0.0))
    for weight, xy in load.points:
        t, lam = locate_point(mesh, np.asarray(xy))
        for i in range(hct_map.n_free):
            unit = DiscreteFunction(hct_map, np.eye(1, hct_map.n_free, i)[0])
            b[i] += weight * evaluate(unit, t, lam)
    return b


def _relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("quad_order", [3, 7, 9])
@PROPERTY_SETTINGS
@given(pair=perturbed_pairs())
def test_density_load_matches_per_subtriangle_oracle(quad_order, pair):
    load = LoadSpec(density=get_manufactured("u1").biharmonic)
    for mesh in pair:
        got = _hct_functional(mesh, load, quad_order)
        assert _relative_gap(got, _hct_functional_oracle(mesh, load, quad_order)) <= 1e-13


@PROPERTY_SETTINGS
@given(pair=perturbed_pairs(),
       points=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                 st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))),
                       min_size=1, max_size=3))
def test_density_and_point_loads_match_oracle(pair, points):
    _, renumbered = pair
    load = LoadSpec(density=lambda x, y: 1.0 + x * y ** 2, points=tuple(points))
    got = _hct_functional(renumbered, load, 7)
    assert _relative_gap(got, _hct_functional_oracle(renumbered, load, 7)) <= 1e-13


# --- the macro basis against its per-cell oracle ----------------------------------

@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_hct_coeffs_match_per_cell_oracle(pair):
    for mesh in pair:
        basis = hct_local_basis(mesh)
        assert _relative_gap(basis.coeffs, hct_coeffs_oracle(mesh)) <= 1e-12
        assert basis.duality_residual <= 1e-12


# --- form blocks against the plain einsums ----------------------------------------

def _plain_einsum_matrix(mesh, config):
    """The dense scheme matrix with every block contracted by a plain einsum,
    as the forms contracted them before they went through BLAS."""
    dofmap = build_dof_map(mesh, config.space_tag)

    def dense(kind, blocks):
        return forms._reduce(mesh, dofmap, kind, blocks).to_dense()

    def dnormal(traces):
        nu = mesh.edge_normal
        return np.concatenate([np.einsum("eqai,ei->eqa", traces["G0"], nu),
                               -np.einsum("eqai,ei->eqa", traces["G1"], nu)], axis=2)

    H = p2_hessians(mesh)
    K = np.einsum("taij,tbij->tab", H, H) * mesh.tri_area[:, None, None]
    if config.scheme is SchemeTag.MORLEY:
        C = morley_local_basis(mesh)
        return dense("cell", np.einsum("tap,tab,tbq->tpq", C, K, C))
    A = dense("cell", K)
    h = mesh.edge_length[:, None, None]
    if config.scheme is SchemeTag.WOPSIP:
        traces = edge_traces(mesh, np.array([0.0, 1.0, 0.5]))
        Jv = np.concatenate([traces["N0"], -traces["N1"]], axis=2)[:, :2]
        Jn = dnormal(traces)[:, 2]
        return A + dense("edge", np.einsum("eqa,eqb->eab", Jv, Jv) / h ** 4
                         + np.einsum("ea,eb->eab", Jn, Jn) / h ** 2)
    s, w = edge_rule(forms.EDGE_GAUSS)
    traces = edge_traces(mesh, s)
    Jg = np.concatenate([traces["G0"], -traces["G1"]], axis=2)
    B = dense("edge", np.einsum("q,eqji,eai->eaj", w, Jg, forms._hess_avg_rows(mesh, traces)) * h)
    Jn = dnormal(traces)
    if config.scheme is SchemeTag.DG:
        Jv = np.concatenate([traces["N0"], -traces["N1"]], axis=2)
        pen = (config.sigma1 * np.einsum("q,eqa,eqb->eab", w, Jv, Jv) / h ** 2
               + config.sigma2 * np.einsum("q,eqa,eqb->eab", w, Jn, Jn))
    else:
        pen = config.sigma_ip * np.einsum("q,eqa,eqb->eab", w, Jn, Jn)
    return A - config.theta * B - B.T + dense("edge", pen)


EINSUM_CONFIGS = [SchemeConfig(scheme=SchemeTag.DG, theta=theta) for theta in (1.0, 0.0, -1.0)] + [
    SchemeConfig(scheme=tag) for tag in (SchemeTag.C0IP, SchemeTag.WOPSIP, SchemeTag.MORLEY)
]


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_form_blocks_match_plain_einsum(pair):
    _, renumbered = pair
    for config in EINSUM_CONFIGS:
        A, _ = assemble_scheme(renumbered, config)
        want = _plain_einsum_matrix(renumbered, config)
        assert _relative_gap(A.to_dense(), want) <= 1e-13, (config.scheme.value, config.theta)
    grads = p2_gradients(np.eye(3)[None], barycentric_gradients(renumbered))
    want = np.einsum("tvbi,tba->tvai", grads, morley_local_basis(renumbered))
    assert _relative_gap(_morley_vertex_grad_rows(renumbered), want) <= 1e-13
