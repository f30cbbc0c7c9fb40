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

The transfer operators must match the triplet construction they
replaced (``transfer_oracles``): I_M from Morley, DG_P2 and HCT and I_C
bit for bit, I_M from P2 except at its vertex entries, which are exactly
1.0, and J to 1e-15 of its largest entry.  J, closed one slice of edge
rows at a time, must equal bit for bit its closure by one sort.  The assembled systems must
also equal, bit for bit, those of an
oracle that sorts and sums every form's triplets and combines the forms
by sort-merges, as the assembly did before it reduced onto memoized
block patterns.  Every array of those patterns, dtype included, must
equal the search-based construction they replaced (``pattern_oracles``),
and all three oracles must hold on the degenerate meshes too: a lone
triangle, ``unit_square_mesh(1)`` and a refined skew quadrilateral.
The macro-space load, which contracts the quadrature first, must match
to round-off an oracle that evaluates every shape function at every
quadrature point of one sub-triangle at a time, and
the plain load of each quadratic space an oracle that evaluates every
shape function at every rule point and scatters by ``np.add.at``.  Point
loads at, within 1e-13 of, or away from the vertices must resolve to the
vertex and triangle that the scan over every vertex gave.  The
macro basis, pushed forward from one reference element, must match the
per-cell 30x30 solves it replaced, the macro-space error norms the
per-sub-triangle monomial evaluation they replaced, and every form block
contracted by BLAS the plain ``np.einsum`` of the closed-form P2 kernels
(``p2_oracles``) it replaced, all to round-off.  The P2 tables of the
forms and transfer operators, read from the reference tables, match
those kernels to 1e-14 relative, and bit for bit on the grid.

Corrupted mesh text (truncated, a bad index, a non-finite coordinate, a
folded vertex, an edge of three triangles) must raise ``MeshError``.

Examples are derandomized and no example database is written, so the
suite is deterministic.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from platefem import forms, interp
from platefem.fespace import (
    _reference_coeffs,
    barycentric_gradients,
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    evaluate,
    hct_local_basis,
    local_dof_values,
    local_lagrange_coeffs,
    morley_dof_matrix,
    morley_local_basis,
    p2_hessians,
    p2_values,
    reference_shapes,
    reference_values,
    rule,
    shapes,
)
from platefem.forms import SchemeConfig, SchemeTag, assemble_scheme, edge_traces
from platefem.functions import get_manufactured
from platefem.interp import (
    companion,
    morley_interp_avg,
    verify_right_inverse,
)
from platefem.mesh import MeshError, build_triangulation, read_mesh, unit_square_mesh, write_mesh
from platefem.quadrature import edge_rule, triangle_points, triangle_rule
from platefem.rhs import (
    VERTEX_SNAP_TOL,
    LoadSpec,
    locate_point,
    plain_load_vector,
    resolve_point_loads,
    smoothed_load_vector,
)
from platefem.solve import (
    broken_error_norms,
    compute_errors,
    energy_distance_p2_hct,
    solve,
    solve_scheme,
)
from platefem.sparse import SparseMatrix
import p2_oracles
import pattern_oracles
import transfer_oracles
from test_fespace import _EXP, _power_table_kernels, _sub_bary, hct_oracle_gaps
from test_generic_geometry import refined_skew_mesh
from test_rhs import locate_point_scan

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
    rows, cols, vals = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :], blocks)
    keep = (rows >= 0) & (cols >= 0)
    return SparseMatrix.from_triplets(dofmap.n_free, dofmap.n_free, rows[keep], cols[keep],
                                      vals[keep], symmetric=symmetric)


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


def _oracle_mismatches(mesh):
    """The ORACLE_CONFIGS whose system differs from the triplet oracle's in any bit."""
    out = []
    for config in ORACLE_CONFIGS:
        A, _ = assemble_scheme(mesh, config)
        want = _oracle_scheme(mesh, config)
        if not (A.shape == want.shape and A.symmetric == want.symmetric
                and all(got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                        for got, ref in ((A.rows, want.rows), (A.cols, want.cols),
                                         (A.vals, want.vals)))):
            out.append((config.scheme.value, config.theta))
    return out


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_assembly_equals_triplet_oracle_bit_for_bit(pair):
    _, renumbered = pair
    assert _oracle_mismatches(renumbered) == []


# --- search oracle of the block patterns ---------------------------------------------

PATTERN_SPACES = (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2)


def _pattern_mismatches(mesh):
    """Pattern arrays that differ from the search oracle's in value or dtype."""
    out = []
    for tag in PATTERN_SPACES:
        for kind in ("cell", "edge"):
            p = forms._block_pattern(mesh, tag, kind)
            want = pattern_oracles.block_pattern(mesh, tag, kind)
            for name, ref in zip(("rows", "cols", "tperm", "gather", "starts"), want):
                got = getattr(p, name)
                if got.dtype != ref.dtype or not np.array_equal(got, ref):
                    out.append((tag.value, kind, name))
        got = forms._block_pattern(mesh, tag, "edge").cell_positions
        ref = pattern_oracles.cell_positions(mesh, tag)
        if got.dtype != ref.dtype or not np.array_equal(got, ref):
            out.append((tag.value, "cell positions"))
    return out


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_block_patterns_equal_search_oracle(pair):
    _, renumbered = pair
    assert _pattern_mismatches(renumbered) == []


def _one_triangle_mesh():
    return build_triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                               np.array([[0, 1, 2]]))


@pytest.mark.parametrize("make_mesh", [_one_triangle_mesh, lambda: unit_square_mesh(1),
                                       refined_skew_mesh],
                         ids=["one_triangle", "unit_square_1", "refined_skew"])
def test_degenerate_meshes_equal_both_oracles(make_mesh):
    # empty patterns, boundary-only edges and constrained (-1) slots
    mesh = make_mesh()
    assert _pattern_mismatches(mesh) == []
    assert _oracle_mismatches(mesh) == []


def test_one_triangle_free_dofs():
    mesh = _one_triangle_mesh()
    n_free = {tag: build_dof_map(mesh, tag).n_free for tag in PATTERN_SPACES}
    assert n_free == {SpaceTag.MORLEY: 0, SpaceTag.DG_P2: 6, SpaceTag.LAGRANGE_P2: 0}
    assert forms._block_pattern(mesh, SpaceTag.LAGRANGE_P2, "edge").rows.size == 0


def test_memoized_patterns_are_read_only(mesh2):
    for config in ORACLE_CONFIGS:
        A, _ = assemble_scheme(mesh2, config)
        assert not (A.rows.flags.writeable or A.cols.flags.writeable)
    tags = (forms.SpaceTag.MORLEY, forms.SpaceTag.DG_P2, forms.SpaceTag.LAGRANGE_P2)
    patterns = [forms._block_pattern(mesh2, tag, "cell") for tag in tags]
    patterns += [forms._block_pattern(mesh2, tag, "edge") for tag in tags[1:]]
    memo = [p.cell_positions for p in patterns[len(tags):]]
    memo += [a for p in patterns for a in (p.tperm, p.gather, p.starts)]
    assert all(a.dtype == np.int32 for a in memo)   # slot indices: half the memo
    memo += [a for p in patterns for a in (p.rows, p.cols)]
    for arr in memo:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


# --- triplet oracle of the transfer operators ---------------------------------------

def _stored(A):
    """(rows, cols, vals) of the nonzero entries of ``A``."""
    keep = A.vals != 0
    return A.rows[keep], A.cols[keep], A.vals[keep]


def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _same_companion(got, want):
    return got.shape == want.shape and _same_bits((got.rows, got.cols, got.vals),
                                                  (want.rows, want.cols, want.vals))


def _transfer_mismatches(mesh):
    """The transfer operators that differ from the triplet oracle beyond their bounds.

    I_M from Morley, DG_P2 and HCT and I_C must equal it bit for bit; I_M
    from P2 only at its vertex rows, where the cell mean stores exactly 1.0;
    J to 1e-15 of its largest entry (a patch sum divided once, not 1/size
    added size times).
    """
    out = []
    pairs = [(interp.interp_matrix(mesh, tag),
              transfer_oracles.interp_matrix(mesh, tag), tag.value)
             for tag in (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.HCT)]
    pairs.append((interp.transfer_ic_matrix(mesh), transfer_oracles.transfer_ic_matrix(mesh),
                  "I_C"))
    for got, want, name in pairs:   # the stored entries: the oracle's nonzero ones
        if not _same_bits((got.rows, got.cols, got.vals), _stored(want)):
            out.append(name)
    got = interp.interp_matrix(mesh, SpaceTag.LAGRANGE_P2)
    rows, cols, vals = _stored(transfer_oracles.interp_matrix(mesh, SpaceTag.LAGRANGE_P2))
    vertex_rows = np.isin(got.rows, build_dof_map(mesh, SpaceTag.MORLEY).vertex_dofs)
    if not (_same_bits((got.rows, got.cols), (rows, cols)) and np.all(got.vals[vertex_rows] == 1.0)
            and _same_bits([got.vals[~vertex_rows]], [vals[~vertex_rows]])):
        out.append("p2c0")
    J, want = interp.companion_matrix(mesh), transfer_oracles.companion_matrix(mesh)
    if np.abs(J.to_dense() - want.to_dense()).max(initial=0.0) > \
            1e-15 * np.abs(want.vals).max(initial=0.0):
        out.append("J")
    if not _same_companion(J, transfer_oracles.companion_closed_in_one_sort(mesh)):
        out.append("J slices")
    if verify_right_inverse(mesh, samples=5).max_residual > 1e-11:
        out.append("right inverse")
    return out


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_transfer_operators_match_triplet_oracle(pair):
    for mesh in pair:
        assert _transfer_mismatches(mesh) == []


@pytest.mark.parametrize("make_mesh", [_one_triangle_mesh, lambda: unit_square_mesh(1),
                                       refined_skew_mesh],
                         ids=["one_triangle", "unit_square_1", "refined_skew"])
def test_degenerate_meshes_transfer_operators_match_triplet_oracle(make_mesh):
    assert _transfer_mismatches(make_mesh()) == []


def _jittered_n8():
    base = unit_square_mesh(8)
    interior = np.flatnonzero(~base.vertex_is_boundary)
    vertices = base.vertices.copy()
    vertices[interior] += np.random.default_rng(8).uniform(-0.01, 0.01, (interior.size, 2))
    return build_triangulation(vertices, base.triangles)


def _renumbered_n8():
    base, rng = unit_square_mesh(8), np.random.default_rng(9)
    return _renumbered(base, rng.permutation(base.num_vertices),
                       rng.permutation(base.num_triangles),
                       rng.integers(0, 3, base.num_triangles))


@pytest.mark.parametrize("make_mesh",
                         [*(lambda n=n: unit_square_mesh(n) for n in (1, 2, 3, 8, 33)),
                          _jittered_n8, _renumbered_n8],
                         ids=["n1", "n2", "n3", "n8", "n33", "jittered_n8", "renumbered_n8"])
def test_companion_slices_equal_one_sort_bit_for_bit(make_mesh):
    # at n=2 some free edges have both ends on the boundary: rows without closure terms
    mesh = make_mesh()
    assert _same_companion(interp.companion_matrix(mesh),
                           transfer_oracles.companion_closed_in_one_sort(mesh))


@pytest.mark.parametrize("n", [8, 16])
def test_companion_closes_in_more_than_one_slice(n):
    # one call sums the cell mean, one more closes each slice
    with mock.patch.object(SparseMatrix, "from_triplets",
                           wraps=SparseMatrix.from_triplets) as from_triplets:
        interp.companion_matrix(unit_square_mesh(n))
    assert from_triplets.call_count > 2


# --- per-sub-triangle oracle of the smoothed load ------------------------------------

def _macro_load_oracle(mesh, load, quad_order):
    """The macro-space load in the order it had before quadrature came first.

    The density term evaluates all 12 shape functions at every point of one
    sub-triangle at a time; each point load sums its weight times the value
    of every free shape function, taken from ``evaluate``.
    """
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    cd = hct_map.cell_dofs
    b = np.zeros(hct_map.n_free)
    if load.density is not None:
        bary, w = triangle_rule(quad_order)
        p = mesh.tri_coords()
        for s in range(3):
            corners = np.stack([p[:, (s + 1) % 3], p[:, (s + 2) % 3], p.mean(axis=1)], axis=1)
            pts = np.einsum("qi,tij->tqj", bary, corners)
            vals = shapes(mesh, SpaceTag.HCT,
                          reference_shapes(SpaceTag.HCT, bary @ _sub_bary(s), 0, s))
            f = load.density(pts[..., 0], pts[..., 1])
            contrib = mesh.tri_area[:, None] / 3.0 * np.einsum("q,tq,tqa->ta", w, f, vals)
            np.add.at(b, np.maximum(cd, 0), np.where(cd >= 0, contrib, 0.0))
    for weight, xy in load.points:
        t, lam = locate_point(mesh, np.asarray(xy))
        for i in range(hct_map.n_free):
            unit = DiscreteFunction(mesh, SpaceTag.HCT, np.eye(1, hct_map.n_free, i)[0])
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
        got = plain_load_vector(mesh, build_dof_map(mesh, SpaceTag.HCT), load, quad_order)
        assert _relative_gap(got, _macro_load_oracle(mesh, load, quad_order)) <= 1e-13


@PROPERTY_SETTINGS
@given(pair=perturbed_pairs(),
       points=st.lists(st.tuples(st.floats(-2.0, 2.0),
                                 st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))),
                       min_size=1, max_size=3))
def test_density_and_point_loads_match_oracle(pair, points):
    _, renumbered = pair
    load = LoadSpec(density=lambda x, y: 1.0 + x * y ** 2, points=tuple(points))
    got = plain_load_vector(renumbered, build_dof_map(renumbered, SpaceTag.HCT), load, 7)
    assert _relative_gap(got, _macro_load_oracle(renumbered, load, 7)) <= 1e-13


# --- the one load path against the two paths it replaced -----------------------

def _resolve_point_loads_oracle(mesh, load):
    """Point location by a scan of every vertex, as it was before it went
    through ``locate_point`` alone: a point within ``VERTEX_SNAP_TOL`` of its
    nearest vertex snaps to it, in the first triangle of the vertex patch;
    any other point is located by a scan of every triangle.  Returns
    (vertex or -1, triangle, bary)."""
    out = []
    for _, xy in load.points:
        xy = np.asarray(xy, dtype=np.float64)
        dists = np.linalg.norm(mesh.vertices - xy[None, :], axis=1)
        v = int(np.argmin(dists))
        if dists[v] <= VERTEX_SNAP_TOL:
            indptr, tris, lv = mesh.vertex_tri_patches()
            bary = np.zeros(3)
            bary[lv[indptr[v]]] = 1.0
            out.append((v, int(tris[indptr[v]]), bary))
        else:
            out.append((-1, *locate_point_scan(mesh, xy)))
    return out


def _plain_load_oracle(mesh, dofmap, load, quad_order):
    """The density load of a quadratic space with every shape function
    evaluated at every rule point and scattered by ``np.add.at``, as it was
    before the weighted values met the reference table first."""
    tag = dofmap.tag
    bary, w = rule(tag, quad_order)
    pts = triangle_points(bary, mesh.tri_coords())
    f = load.density(pts[..., 0], pts[..., 1])
    vals = shapes(mesh, tag, reference_values(tag, quad_order))
    loc = mesh.tri_area[:, None] * np.einsum("q,tq,tqa->ta", w, f, vals)
    b = np.zeros(dofmap.n_free)
    cd = dofmap.cell_dofs
    np.add.at(b, np.maximum(cd, 0), np.where(cd >= 0, loc, 0.0))
    return b


@PROPERTY_SETTINGS
@given(pair=perturbed_pairs(),
       picks=st.lists(st.tuples(st.sampled_from(["vertex", "near", "edge", "inside"]),
                                st.integers(0, 10 ** 6), st.floats(0.05, 0.95),
                                st.floats(0.05, 0.95)), min_size=1, max_size=8))
def test_point_location_matches_vertex_scan_oracle(pair, picks):
    for mesh in pair:
        points = []
        for kind, i, a, c in picks:
            if kind in ("vertex", "near"):
                xy = mesh.vertices[i % mesh.num_vertices]
                if kind == "near":   # within 1e-13 of the vertex
                    xy = xy + 1e-13 * np.array([a - 0.5, c - 0.5])
            elif kind == "edge":
                p, q = mesh.vertices[mesh.edge_vertices[i % mesh.num_edges]]
                xy = (1.0 - a) * p + a * q
            else:
                xy = np.array([a, (1.0 - a) * c, (1.0 - a) * (1.0 - c)]) @ \
                    mesh.tri_coords()[i % mesh.num_triangles]
            points.append((1.0, tuple(xy)))
        load = LoadSpec(points=tuple(points))
        for got, (v, t, bary) in zip(resolve_point_loads(mesh, load),
                                     _resolve_point_loads_oracle(mesh, load)):
            assert got.snapped == (v >= 0) and got.triangle == t
            assert np.array_equal(got.bary, bary)
            if got.snapped:
                assert mesh.triangles[t, np.argmax(got.bary)] == v


@pytest.mark.parametrize("quad_order", [3, 7])
@PROPERTY_SETTINGS
@given(pair=perturbed_pairs())
def test_plain_load_matches_per_point_oracle(quad_order, pair):
    load = LoadSpec(density=get_manufactured("u1").biharmonic)
    for mesh in pair:
        for tag in (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
            dm = build_dof_map(mesh, tag)
            got = plain_load_vector(mesh, dm, load, quad_order)
            assert _relative_gap(got, _plain_load_oracle(mesh, dm, load, quad_order)) <= 1e-14


# --- the macro basis against its per-cell oracle ----------------------------------

@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_hct_coeffs_match_per_cell_oracle(pair):
    for mesh in pair:
        assert max(hct_oracle_gaps(mesh)) <= 1e-12
        assert hct_local_basis(mesh).duality_residual <= 1e-12


# --- macro-space norms against their per-sub-triangle oracles -----------------------

def _oracle_frame(mesh, bary):
    """Rule points ``bary`` on every sub-triangle and their coordinates in the
    frame (x - centroid) / h_T of ``hct_coeffs_oracle``, both (nt, 3, nq, 2)."""
    p = mesh.tri_coords()
    c = p.mean(axis=1)
    corners = np.stack([p[:, [1, 2, 0]], p[:, [2, 0, 1]], np.broadcast_to(c[:, None], p.shape)],
                       axis=2)
    pts = bary @ corners
    return pts, (pts - c[:, None, None]) / mesh.tri_diam[:, None, None, None]


def _polymul(P, Q):
    """Product of polynomials held as coefficients (nt, 4, 4) of x^i y^j,
    truncated to degree 3."""
    R = np.zeros_like(P)
    for i, j in _EXP:
        for k, m in _EXP:
            if i + j + k + m <= 3:
                R[:, i + k, j + m] += P[:, i, j] * Q[:, k, m]
    return R


def _pushforward_coeffs(mesh):
    """Monomial coefficients (nt, 3, 10, 12) of the macro shape functions in
    the frame (x - centroid) / h_T, as ``hct_local_basis`` kept them before E_T
    became the only per-cell data: the reference cubics in x_hat - c_hat =
    (h_T / h_hat) B_T^-1 xi, times E_T."""
    nt = mesh.num_triangles
    A = (mesh.tri_diam / np.sqrt(2.0))[:, None, None] * barycentric_gradients(mesh)[:, 1:]
    lin = np.zeros((2, nt, 4, 4))
    lin[:, :, 1, 0], lin[:, :, 0, 1] = A[:, :, 0].T, A[:, :, 1].T
    one = np.zeros((nt, 4, 4))
    one[:, 0, 0] = 1.0
    S = np.empty((nt, 10, 10))   # column m: (A xi)^m in the monomials of xi
    for m, (a, b) in enumerate(_EXP):
        poly = one
        for factor in [lin[0]] * a + [lin[1]] * b:
            poly = _polymul(poly, factor)
        S[:, :, m] = poly[:, _EXP[:, 0], _EXP[:, 1]]
    return (S[:, None] @ _reference_coeffs()) @ hct_local_basis(mesh).transform[:, None]


def _oracle_polynomials(f):
    """Monomial coefficients of a macro-space function per sub-triangle, (nt, 3, 10)."""
    return (_pushforward_coeffs(f.mesh) @ local_dof_values(f)[:, None, :, None])[..., 0]


def hct_error_norms_oracle(u, f_star, quad_order):
    """The L2 and H1 errors of a macro-space function as they were computed
    from per-cell monomial coefficients, one sub-triangle at a time."""
    mesh = f_star.mesh
    loc = _oracle_polynomials(f_star)
    bary, w = triangle_rule(quad_order)
    pts, xi = _oracle_frame(mesh, bary)
    third = mesh.tri_area / 3.0
    h = mesh.tri_diam[:, None, None]
    l2 = h1 = 0.0
    for s in range(3):
        x, y = pts[:, s, ..., 0], pts[:, s, ..., 1]
        values, grads, _ = _power_table_kernels(xi[:, s])
        vh = (values @ loc[:, s, :, None])[..., 0]
        gh = (loc[:, s, None, None, :] @ grads)[..., 0, :] / h
        l2 += np.einsum("t,q,tq->", third, w, (u.value(x, y) - vh) ** 2)
        h1 += np.einsum("t,q,tqi->", third, w, (u.grad(x, y) - gh) ** 2)
    return np.sqrt(l2), np.sqrt(h1)


def energy_distance_oracle(f, s):
    """``solve.energy_distance_p2_hct`` as it read per-cell monomial
    coefficients, one sub-triangle at a time."""
    mesh = f.mesh
    Hf = np.einsum("taij,ta->tij", p2_oracles.p2_hessians(mesh), local_lagrange_coeffs(f))
    loc = _oracle_polynomials(s)
    bary, w = triangle_rule(4)
    _, xi = _oracle_frame(mesh, bary)
    third = mesh.tri_area / 3.0
    h2 = (mesh.tri_diam ** 2)[:, None, None]
    total = 0.0
    for sub in range(3):
        hess = _power_table_kernels(xi[:, sub])[2].reshape(-1, w.size, 10, 4)
        diff = (loc[:, sub, None, None, :] @ hess)[..., 0, :] / h2 - Hf.reshape(-1, 1, 4)
        total += np.einsum("t,q,tqk->", third, w, diff ** 2)
    return float(np.sqrt(total))


def _macro_norm_gap(v, v_star):
    """Largest relative gap of the L2 and H1 errors of ``v_star`` against u1
    and of the energy distance between ``v`` and ``v_star``, to the oracles."""
    u = get_manufactured("u1")
    got = (*broken_error_norms(u, v_star, 7, 1), energy_distance_p2_hct(v, v_star))
    want = (*hct_error_norms_oracle(u, v_star, 7), energy_distance_oracle(v, v_star))
    return max(abs(g - w) / w for g, w in zip(got, want))


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_macro_norms_match_per_subtriangle_oracles(pair):
    load = LoadSpec(density=get_manufactured("u1").biharmonic)
    for mesh in pair:
        for tag in (SchemeTag.MORLEY, SchemeTag.DG):
            sol = solve_scheme(mesh, SchemeConfig(scheme=tag), load)
            assert _macro_norm_gap(sol.u_h, sol.u_star) <= 1e-12, tag


def test_macro_norms_match_per_subtriangle_oracles_at_n64():
    v = morley_interp_avg(get_manufactured("u1"), unit_square_mesh(64))
    assert _macro_norm_gap(v, companion(v)) <= 1e-12


# --- the generic evaluator against the closed-form oracles -------------------------

def evaluate_p2_oracle(f, tri, lam, order):
    """``evaluate`` of a quadratic-space function as it was written before one
    evaluator served every space: the closed-form P2 kernels in physical
    coordinates."""
    mesh = f.mesh
    loc = local_dof_values(f)[tri]
    if f.tag is SpaceTag.MORLEY:
        loc = morley_local_basis(mesh)[tri] @ loc
    if order == 0:
        return float(p2_values(lam) @ loc)
    if order == 1:
        return (p2_oracles.p2_gradients(lam[None], barycentric_gradients(mesh)[tri:tri + 1])[0].T
                @ loc)
    return np.einsum("aij,a->ij", p2_oracles.p2_hessians(mesh)[tri], loc)


def evaluate_hct_oracle(f, tri, lam, order):
    """``evaluate`` of a macro-space function from its per-cell monomial
    coefficients on the sub-triangle opposite the smallest coordinate."""
    mesh = f.mesh
    p = mesh.tri_coords()[tri]
    h = mesh.tri_diam[tri]
    sub = int(np.argmin(lam))
    kernel = _power_table_kernels((lam @ p - p.mean(axis=0)) / h)[order]
    return np.moveaxis(kernel, 0, -1) @ _oracle_polynomials(f)[tri, sub] / h ** order


def broken_error_norms_oracle(u, f, quad_order):
    """``broken_error_norms`` of a quadratic-space function as it was written
    before: the physical gradient of every basis function at every point."""
    mesh = f.mesh
    bary, w = triangle_rule(quad_order)
    pts = np.einsum("qi,tij->tqj", bary, mesh.tri_coords())
    x, y = pts[..., 0], pts[..., 1]
    lag = local_lagrange_coeffs(f)
    vh = np.einsum("qa,ta->tq", p2_values(bary), lag)
    G = p2_oracles.p2_gradients(bary[None], barycentric_gradients(mesh))
    gh = np.einsum("tqai,ta->tqi", G, lag)
    Hh = np.einsum("taij,ta->tij", p2_oracles.p2_hessians(mesh), lag)
    area = mesh.tri_area
    l2 = np.einsum("t,q,tq->", area, w, (u.value(x, y) - vh) ** 2)
    h1 = np.einsum("t,q,tqi->", area, w, (u.grad(x, y) - gh) ** 2)
    h2 = np.einsum("t,q,tqij->", area, w, (u.hess(x, y) - Hh[:, None]) ** 2)
    return np.sqrt(l2), np.sqrt(h1), np.sqrt(h2)


@PROPERTY_SETTINGS
@given(pair=perturbed_pairs(), seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_matches_closed_form_oracles(pair, seed):
    rng = np.random.default_rng(seed)
    for mesh in pair:
        for tag in SpaceTag:
            dm = build_dof_map(mesh, tag)
            f = DiscreteFunction(mesh, tag, rng.standard_normal(dm.n_free))
            oracle = evaluate_hct_oracle if tag is SpaceTag.HCT else evaluate_p2_oracle
            cells = rng.integers(mesh.num_triangles, size=8)
            points = rng.dirichlet(np.ones(3), size=8)
            for order in (0, 1, 2):
                got = np.array([evaluate(f, int(t), lam, order) for t, lam in zip(cells, points)])
                want = np.array([oracle(f, int(t), lam, order) for t, lam in zip(cells, points)])
                assert _relative_gap(got, want) <= 1e-12, (tag.value, order)


@PROPERTY_SETTINGS
@given(pair=perturbed_pairs(), seed=st.integers(0, 2 ** 32 - 1))
def test_quadratic_norms_match_closed_form_oracle(pair, seed):
    rng = np.random.default_rng(seed)
    u = get_manufactured("u1")
    for mesh in pair:
        for tag in (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
            dm = build_dof_map(mesh, tag)
            f = DiscreteFunction(mesh, tag, 0.01 * rng.standard_normal(dm.n_free))
            got = broken_error_norms(u, f, 7, 2)
            want = broken_error_norms_oracle(u, f, 7)
            assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-12, tag.value


# --- form blocks against the plain einsums ----------------------------------------

def _plain_einsum_matrix(mesh, config):
    """The dense scheme matrix with every block contracted by a plain einsum
    from the closed-form P2 kernels, as the forms built them before they
    went through BLAS and the reference tables."""
    dofmap = build_dof_map(mesh, config.space_tag)

    def dense(kind, blocks):
        return forms._reduce(mesh, dofmap, kind, blocks).to_dense()

    def dnormal(traces):
        nu = mesh.edge_normal
        return np.concatenate([np.einsum("eqai,ei->eqa", traces["G0"], nu),
                               -np.einsum("eqai,ei->eqa", traces["G1"], nu)], axis=2)

    H = p2_oracles.p2_hessians(mesh)
    K = np.einsum("taij,tbij->tab", H, H) * mesh.tri_area[:, None, None]
    if config.scheme is SchemeTag.MORLEY:
        C = np.linalg.inv(p2_oracles.morley_dof_matrix(mesh))
        return dense("cell", np.einsum("tap,tab,tbq->tpq", C, K, C))
    A = dense("cell", K)
    h = mesh.edge_length[:, None, None]
    if config.scheme is SchemeTag.WOPSIP:
        traces = p2_oracles.edge_traces(mesh, np.array([0.0, 1.0, 0.5]))
        Jv = np.concatenate([traces["N0"], -traces["N1"]], axis=2)[:, :2]
        Jn = dnormal(traces)[:, 2]
        return A + dense("edge", np.einsum("eqa,eqb->eab", Jv, Jv) / h ** 4
                         + np.einsum("ea,eb->eab", Jn, Jn) / h ** 2)
    s, w = edge_rule(forms.EDGE_GAUSS)
    traces = p2_oracles.edge_traces(mesh, s)
    Jg = np.concatenate([traces["G0"], -traces["G1"]], axis=2)
    Hn = p2_oracles.hess_avg_rows(mesh, traces)
    B = dense("edge", np.einsum("q,eqji,eai->eaj", w, Jg, Hn) * h)
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


# --- P2 tables from the reference tables against the closed-form kernels -----------

def _p2_table_pairs(mesh):
    """(name, table, closed-form oracle) for every P2 table the forms and
    transfer operators read."""
    vertex_grads = shapes(mesh, SpaceTag.MORLEY, reference_shapes(SpaceTag.MORLEY, np.eye(3), 1))
    yield "hessians", p2_hessians(mesh), p2_oracles.p2_hessians(mesh)
    yield "morley_dofs", morley_dof_matrix(mesh), p2_oracles.morley_dof_matrix(mesh)
    yield "vertex_grads", vertex_grads, p2_oracles.morley_vertex_grad_rows(mesh).swapaxes(2, 3)
    for params in (edge_rule(forms.EDGE_GAUSS)[0], np.array([0.0, 1.0, 0.5])):
        want = p2_oracles.edge_traces(mesh, params)
        # the signed jump rows: side 0's traces, then side 1's negated
        for key, got in zip("NG", edge_traces(mesh, params)):
            signed = np.concatenate([want[f"{key}0"], -want[f"{key}1"]], axis=2)
            yield f"{key} at {params.size} points", got, signed


@PROPERTY_SETTINGS
@given(perturbed_pairs())
def test_p2_tables_match_closed_form_oracles(pair):
    for mesh in pair:
        gaps = {name: _relative_gap(got, want) for name, got, want in _p2_table_pairs(mesh)}
        assert max(gaps.values()) <= 1e-14, gaps


@pytest.mark.parametrize("n", [1, 2, 4])
def test_p2_tables_equal_closed_form_oracles_on_the_grid(n):
    for name, got, want in _p2_table_pairs(unit_square_mesh(n)):
        assert np.array_equal(got, want), name


# --- malformed mesh text -------------------------------------------------------

def _corrupted(kind, lines, n, data):
    """Mesh text ``lines`` of ``unit_square_mesh(n)`` with one fault of
    ``kind``; returns the text and whether the fault is found while parsing
    (then the error names its line)."""
    nv = (n + 1) ** 2
    tri_lines = range(1 + nv, len(lines))
    if kind == "truncated":
        keep = data.draw(st.integers(0, len(lines) - 1))
        tokens = data.draw(st.integers(0, 3))
        words = lines[keep].split()
        partial = " ".join(words[:tokens]) if tokens < len(words) else ""
        return "\n".join(lines[:keep] + [partial]) + "\n", True
    if kind == "index":
        k, slot = data.draw(st.sampled_from(tri_lines)), data.draw(st.integers(0, 2))
        ids = lines[k].split()
        ids[slot] = data.draw(st.sampled_from([str(nv), str(nv + 7), "-1", str(2 ** 63),
                                               ids[(slot + 1) % 3]]))
        lines[k] = " ".join(ids)
        return "\n".join(lines) + "\n", True
    if kind == "nonfinite":
        k, slot = data.draw(st.integers(1, nv)), data.draw(st.integers(0, 1))
        xy = lines[k].split()
        xy[slot] = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
        lines[k] = " ".join(xy)
        return "\n".join(lines) + "\n", True
    if kind == "folded":
        # an interior vertex moved out of the hexagon of its neighbours turns
        # one of its triangles clockwise against the others
        i, j = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        dx = data.draw(st.floats(1.1, 2.5)) * data.draw(st.sampled_from([-1.0, 1.0]))
        dy = data.draw(st.floats(-1.0, 1.0))
        if data.draw(st.booleans()):
            dx, dy = dy, dx
        lines[1 + j * (n + 1) + i] = f"{(i + dx) / n!r} {(j + dy) / n!r}"
        return "\n".join(lines) + "\n", False
    # an edge shared by three triangles: one triangle line twice
    k = data.draw(st.sampled_from(tri_lines))
    lines[0] = f"{nv} {len(tri_lines) + 1}"
    return "\n".join(lines[:k + 1] + [lines[k]] + lines[k + 1:]) + "\n", False


@pytest.mark.parametrize("kind", ["truncated", "index", "nonfinite", "folded", "shared"])
@PROPERTY_SETTINGS
@given(n=st.integers(2, 4), data=st.data())
def test_malformed_mesh_text_raises_mesh_error(kind, n, data):
    text, parse_level = _corrupted(kind, write_mesh(unit_square_mesh(n)).splitlines(), n, data)
    with pytest.raises(MeshError, match=r"^line \d+: " if parse_level else None):
        read_mesh(text)


@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), data=st.data())
def test_reversed_triangle_line_is_reoriented(n, data):
    mesh = unit_square_mesh(n)
    lines = write_mesh(mesh).splitlines()
    k = data.draw(st.integers(1 + mesh.num_vertices, len(lines) - 1))
    lines[k] = " ".join(lines[k].split()[::-1])
    again = read_mesh("\n".join(lines) + "\n")
    assert again.io_warnings == 1
    assert write_mesh(again) == write_mesh(mesh)
