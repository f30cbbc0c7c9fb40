import dataclasses

import numpy as np
import pytest

from platefem.fespace import SpaceTag, barycentric_gradients, build_dof_map
from platefem.forms import edge_traces
from platefem.interp import companion_matrix, interp_matrix
from platefem.mesh import (
    MeshError,
    barycentric,
    build_triangulation,
    cross2,
    derived,
    read_mesh,
    refine_uniform,
    unit_square_mesh,
    write_mesh,
)


def canonical_signature(mesh):
    verts = np.sort(mesh.vertices.view([("x", float), ("y", float)]).ravel())
    areas = np.sort(mesh.tri_area)
    return verts, areas


def test_unit_square_counts():
    m = unit_square_mesh(1)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (4, 2, 5)
    m = unit_square_mesh(2)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (9, 8, 16)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    m = unit_square_mesh(4)
    assert m.num_triangles == 32
    assert m.h_max == np.sqrt(2.0) / 4.0


def test_area_sum_and_orientation():
    for n in (1, 3, 5):
        m = unit_square_mesh(n)
        assert abs(m.tri_area.sum() - 1.0) < 1e-12
        assert np.all(m.tri_area > 0)


def test_edge_adjacency_and_normals():
    m = unit_square_mesh(3)
    interior = ~m.edge_is_boundary
    assert np.all(m.edge_tris[interior, 1] >= 0)
    assert np.all(m.edge_tris[~interior, 1] == -1)
    # T+ has the smaller triangle index on interior edges
    assert np.all(m.edge_tris[interior, 0] < m.edge_tris[interior, 1])
    # unit normals, orthogonal to their edges, outward of T+
    assert np.allclose(np.linalg.norm(m.edge_normal, axis=1), 1.0)
    edge_vec = m.vertices[m.edge_vertices[:, 1]] - m.vertices[m.edge_vertices[:, 0]]
    assert np.allclose(np.einsum("ei,ei->e", m.edge_normal, edge_vec), 0.0)
    centroids = m.vertices[m.triangles].mean(axis=1)
    dots = np.einsum("ei,ei->e", m.edge_normal, m.edge_midpoint - centroids[m.edge_tris[:, 0]])
    assert np.all(dots > 0)
    # boundary normals point out of the unit square
    for e in np.flatnonzero(~interior):
        outward = m.edge_midpoint[e] + 1e-3 * m.edge_normal[e]
        assert not (0 <= outward[0] <= 1 and 0 <= outward[1] <= 1)


def test_refine_counts_and_hmax():
    m = unit_square_mesh(1)
    r = refine_uniform(m)
    assert r.num_triangles == 8
    assert r.parent_tri is not None and np.all(r.parent_tri == np.repeat([0, 1], 4))
    # two refinements of n=2: exact mesh sizes (binary-representable)
    m = unit_square_mesh(2)
    for k in (1, 2):
        m = refine_uniform(m)
        assert m.h_max == np.sqrt(2.0) / 2.0 / 2 ** k
        assert m.num_triangles == 8 * 4 ** k


def test_refined_equals_finer_grid_up_to_renumbering():
    a = refine_uniform(unit_square_mesh(1))
    b = unit_square_mesh(2)
    va, aa = canonical_signature(a)
    vb, ab = canonical_signature(b)
    assert np.array_equal(va, vb)
    assert np.allclose(aa, ab)


def _unique_edge_numbering(triangles):
    """Edge numbering as ``build_triangulation`` derived it from
    ``np.unique(axis=0)``: edge vertices, tri_edges, the adjacent triangles
    (T+ the smaller index) and the number of triangles per edge."""
    nt = triangles.shape[0]
    pairs = np.stack(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=1
    ).reshape(-1, 2)
    edge_vertices, inverse, counts = np.unique(
        np.sort(pairs, axis=1), axis=0, return_inverse=True, return_counts=True
    )
    edge_tris = np.full((edge_vertices.shape[0], 2), -1, dtype=np.int64)
    order = np.argsort(inverse, kind="stable")
    sorted_edges, sorted_tris = inverse[order], np.repeat(np.arange(nt), 3)[order]
    first = np.concatenate(([True], sorted_edges[1:] != sorted_edges[:-1]))
    edge_tris[sorted_edges[first], 0] = sorted_tris[first]
    edge_tris[sorted_edges[~first], 1] = sorted_tris[~first]
    swap = (edge_tris[:, 1] >= 0) & (edge_tris[:, 0] > edge_tris[:, 1])
    edge_tris[swap] = edge_tris[swap][:, ::-1]
    return edge_vertices, inverse.reshape(nt, 3), edge_tris, counts


def test_edge_numbering_matches_unique_oracle_on_renumbered_refined_mesh():
    rng = np.random.default_rng(8)
    base = refine_uniform(unit_square_mesh(5))
    vperm = rng.permutation(base.num_vertices)
    new_index = np.argsort(vperm)
    tris = new_index[base.triangles[rng.permutation(base.num_triangles)]]
    tris = np.take_along_axis(tris, (np.arange(3) + rng.integers(0, 3, (len(tris), 1))) % 3, 1)
    mesh = build_triangulation(base.vertices[vperm], tris)
    edge_vertices, tri_edges, edge_tris, counts = _unique_edge_numbering(mesh.triangles)
    assert np.array_equal(mesh.edge_vertices, edge_vertices)
    assert np.array_equal(mesh.tri_edges, tri_edges)
    assert mesh.tri_edges.dtype == tri_edges.dtype
    assert np.array_equal(mesh.edge_tris, edge_tris)
    assert np.array_equal(mesh.edge_is_boundary, counts == 1)
    pa, pb = mesh.vertices[edge_vertices[:, 0]], mesh.vertices[edge_vertices[:, 1]]
    assert np.array_equal(mesh.edge_midpoint, 0.5 * (pa + pb))
    assert np.array_equal(mesh.edge_length, np.hypot(*(pb - pa).T))
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[edge_vertices[counts == 1].ravel()] = True
    assert np.array_equal(mesh.vertex_is_boundary, boundary)


def test_edge_shared_by_three_triangles_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]])
    with pytest.raises(MeshError, match="more than two"):
        build_triangulation(verts, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))


def test_shape_regularity_invariant_under_refinement():
    m = unit_square_mesh(3)
    q0 = (m.tri_diam ** 2 / m.tri_area).max()
    r = refine_uniform(m)
    q1 = (r.tri_diam ** 2 / r.tri_area).max()
    assert abs(q0 - q1) < 1e-12 * q0


def test_interior_edges_opposite_orientation():
    m = refine_uniform(unit_square_mesh(2))
    info = m.edge_side_info()
    interior = np.flatnonzero(~m.edge_is_boundary)
    for e in interior:
        for side in range(2):
            t = m.edge_tris[e, side]
            la, lb = info["local_a"][e, side], info["local_b"][e, side]
            # ccw order of (a, b) within the triangle alternates between sides
            assert (lb - la) % 3 in (1, 2)
        s0 = (info["local_b"][e, 0] - info["local_a"][e, 0]) % 3
        s1 = (info["local_b"][e, 1] - info["local_a"][e, 1]) % 3
        assert {s0, s1} == {1, 2}


# --- ASCII I/O ---------------------------------------------------------------

def test_roundtrip_canonical():
    m = unit_square_mesh(1)
    text = write_mesh(m)
    again = write_mesh(read_mesh(text))
    assert text == again
    # comments and spacing normalize away
    noisy = "# unit square\n 4   2 \n0 0\n1 0 # se\n0 1\n1 1\n0 1 3\n0 3 2\n"
    parsed = read_mesh(noisy)
    assert write_mesh(read_mesh(write_mesh(parsed))) == write_mesh(parsed)


def test_barycentric_sums_to_one_and_reproduces_the_point(rng):
    corners = rng.uniform(-1.0, 1.0, (300, 3, 2))
    area = cross2(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    corners = corners[np.abs(area) > 0.05]
    points = rng.uniform(-1.0, 1.0, (corners.shape[0], 4, 2))
    lam = barycentric(points, corners[:, None])
    assert lam.shape == (corners.shape[0], 4, 3)
    assert np.abs(lam.sum(axis=-1) - 1.0).max() <= 1e-13 * np.abs(lam).max()
    assert np.abs(lam @ corners - points).max() <= 1e-13 * np.abs(lam).max()
    # one point against every triangle broadcasts the same way
    assert np.array_equal(barycentric(points[0, 0], corners)[0], lam[0, 0])


def test_empty_mesh_rejected():
    with pytest.raises(MeshError, match="empty mesh"):
        read_mesh("2 0\n0 0\n1 0\n")


def test_clockwise_reoriented_with_warning():
    text = "3 1\n0 0\n1 0\n0 1\n0 2 1\n"  # clockwise triangle
    m = read_mesh(text)
    assert m.io_warnings == 1
    assert m.tri_area[0] > 0


def test_dangling_vertex_index():
    text = "3 1\n0 0\n1 0\n0 1\n0 1 7\n"
    with pytest.raises(MeshError, match="line 5.*dangling"):
        read_mesh(text)


def test_malformed_counts_and_lines():
    with pytest.raises(MeshError, match="header"):
        read_mesh("4\n")
    with pytest.raises(MeshError, match="malformed counts"):
        read_mesh("four 2\n")
    with pytest.raises(MeshError, match="line 2"):
        read_mesh("3 1\n0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshError, match="line 5: malformed triangle"):
        read_mesh("3 1\n0 0\n1 0\n0 1\n0 1 99999999999999999999\n")


def test_degenerate_triangle_rejected():
    text = "3 1\n0 0\n1 0\n2 0\n0 1 2\n"
    with pytest.raises(MeshError, match="degenerate"):
        read_mesh(text)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_vertex_rejected(token):
    with pytest.raises(MeshError, match="line 4: non-finite vertex"):
        read_mesh(f"3 1\n0 0\n1 0\n{token} 1\n0 1 2\n")
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [float(token), 1.0]])
    with pytest.raises(MeshError, match="vertex 2 has a non-finite coordinate"):
        build_triangulation(verts, np.array([[0, 1, 2]]))


def test_overlapping_triangles_rejected():
    # both counterclockwise, both on the left of the shared edge (1, 3)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(MeshError, match="triangles 0 and 1 overlap"):
        build_triangulation(verts, np.array([[0, 1, 3], [1, 3, 2]]))


def test_build_rejects_nonccw():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="counterclockwise"):
        build_triangulation(verts, np.array([[0, 2, 1]]))


def test_derived_repeated_call_returns_same_object():
    m = unit_square_mesh(2)
    assert m.vertex_tri_patches() is m.vertex_tri_patches()
    assert m.edge_side_info() is m.edge_side_info()
    assert barycentric_gradients(m) is barycentric_gradients(m)
    assert companion_matrix(m) is companion_matrix(m)


def test_derived_keys_on_arguments():
    m = unit_square_mesh(2)
    maps = {tag: build_dof_map(m, tag) for tag in SpaceTag}
    assert len({id(dm) for dm in maps.values()}) == len(SpaceTag)
    for tag, dm in maps.items():
        assert dm.tag is tag
        assert build_dof_map(m, tag) is dm
        assert build_dof_map(mesh=m, tag=tag) is dm
    # equal arrays share an entry; different values or dtypes do not
    a = edge_traces(m, np.array([0.0, 1.0, 0.5]))
    assert edge_traces(m, np.array([0.0, 1.0, 0.5])) is a
    assert edge_traces(m, np.array([0.0, 0.5, 1.0])) is not a

    calls = []

    @derived
    def probe(mesh, *args):
        calls.append(args)
        return object()

    x = np.array([0.0, 1.0])
    first = probe(m, x)
    assert probe(m, x.copy()) is first
    assert probe(m, x.view(np.int64)) is not first  # same bytes, other dtype
    assert probe(m, x.reshape(2, 1)) is not first   # same bytes, other shape
    assert len(calls) == 3


def test_derived_cached_and_failures_store_nothing():
    m = unit_square_mesh(2)
    calls = []

    @derived
    def probe(mesh, fail):
        calls.append(fail)
        if fail:
            raise RuntimeError("no entry")
        return object()

    assert not probe.cached(m, False)
    first = probe(m, fail=False)
    assert probe.cached(m, False) and probe.cached(mesh=m, fail=False)
    assert probe(m, False) is first
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no entry"):
            probe(m, True)
        assert not probe.cached(m, True)
    assert calls == [False, True, True]


def test_derived_entries_do_not_reach_refined_mesh():
    coarse = unit_square_mesh(2)
    calls = []

    @derived
    def probe(mesh):
        calls.append(mesh)
        return object()

    coarse_value = probe(coarse)
    dg = build_dof_map(coarse, SpaceTag.DG_P2)
    fine = refine_uniform(coarse)
    assert probe(fine) is not coarse_value
    assert calls == [coarse, fine]
    fine_dg = build_dof_map(fine, SpaceTag.DG_P2)
    assert fine_dg is not dg and build_dof_map(fine, SpaceTag.DG_P2) is fine_dg
    assert fine_dg.n_free == 4 * dg.n_free


def test_replaced_mesh_recomputes_derived_data():
    mesh = unit_square_mesh(2)
    grads = barycentric_gradients(mesh)
    # scaled by 2: the areas grow by 4 and the gradients halve, exactly
    doubled = dataclasses.replace(mesh, vertices=2.0 * mesh.vertices)
    assert not doubled._cache
    assert np.array_equal(doubled.tri_area, 4.0 * mesh.tri_area)
    assert np.array_equal(doubled.edge_length, 2.0 * mesh.edge_length)
    assert np.array_equal(doubled.edge_normal, mesh.edge_normal)
    doubled_grads = barycentric_gradients(doubled)
    assert doubled_grads is not grads
    assert np.array_equal(doubled_grads, 0.5 * grads)
    assert barycentric_gradients(mesh) is grads


def test_geometry_is_not_a_constructor_argument():
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(mesh, tri_area=4.0 * mesh.tri_area)
    bad = mesh.vertices.copy()
    bad[4] = np.nan
    with pytest.raises(MeshError, match="non-finite"):
        dataclasses.replace(mesh, vertices=bad)


def test_interp_matrix_is_memoized_per_space():
    m = unit_square_mesh(2)
    mat = interp_matrix(m, SpaceTag.DG_P2)
    assert interp_matrix(m, SpaceTag.DG_P2) is mat
    assert interp_matrix(m, SpaceTag.HCT) is not mat
