import numpy as np
import pytest

from platefem.fespace import DiscreteFunction, SpaceTag, build_dof_map, evaluate
from platefem.functions import get_manufactured
from platefem.interp import smoother
from platefem.mesh import barycentric, build_triangulation, unit_square_mesh
from platefem.quadrature import triangle_rule
from platefem.rhs import (
    LOCATE_TOL,
    LoadError,
    LoadSpec,
    locate_point,
    plain_load_vector,
    resolve_point_loads,
    smoothed_load_vector,
)

U1 = get_manufactured("u1")


def test_empty_load_gives_zero(mesh2):
    for tag in (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        dm = build_dof_map(mesh2, tag)
        assert np.all(smoothed_load_vector(mesh2, dm, LoadSpec()) == 0.0)
        assert np.all(plain_load_vector(mesh2, dm, LoadSpec()) == 0.0)


def test_point_load_at_interior_vertex_is_nodal_shortcut():
    mesh = unit_square_mesh(8)
    dm = build_dof_map(mesh, SpaceTag.MORLEY)
    load = LoadSpec(points=((1.0, (0.5, 0.5)),))
    b = smoothed_load_vector(mesh, dm, load)
    center = int(np.flatnonzero(
        (np.abs(mesh.vertices[:, 0] - 0.5) < 1e-14)
        & (np.abs(mesh.vertices[:, 1] - 0.5) < 1e-14)
    )[0])
    dof = dm.vertex_dofs[center]
    expected = np.zeros(dm.n_free)
    expected[dof] = 1.0
    assert np.array_equal(b, expected)  # bit-exact nodal shortcut


def test_point_load_snap_tolerance(mesh2):
    eps = 1e-13  # within the snap tolerance of a vertex
    load = LoadSpec(points=((2.0, (0.5 + eps, 0.5)),))
    resolved = resolve_point_loads(mesh2, load)
    assert resolved[0].snapped
    assert resolved[0].weight == 2.0


def test_point_load_general_evaluation_oracle(mesh2, rng):
    # non-vertex load: component i equals the smoothed basis function at the
    # load point, recomputed by direct evaluation
    a = (0.3, 0.45)
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    b = smoothed_load_vector(mesh2, dg, LoadSpec(points=((1.0, a),)))
    t, lam = locate_point(mesh2, np.array(a))
    for i in rng.choice(dg.n_free, size=12, replace=False):
        e = np.zeros(dg.n_free)
        e[i] = 1.0
        val = evaluate(smoother(DiscreteFunction(mesh2, SpaceTag.DG_P2, e)), t, lam, 0)
        assert abs(b[i] - val) < 1e-12


def locate_point_scan(mesh, xy):
    """Point location by the barycentrics of every triangle, as it was
    before the bucket grid: the first triangle whose barycentrics are all
    >= -LOCATE_TOL."""
    xy = np.asarray(xy, dtype=np.float64)
    lam = barycentric(xy, mesh.tri_coords())
    hits = np.flatnonzero(lam.min(axis=1) >= -LOCATE_TOL)
    if hits.size == 0:
        raise LoadError(f"point load at {xy.tolist()} lies outside the domain")
    t = int(hits[0])
    return t, np.clip(lam[t], 0.0, None) / np.clip(lam[t], 0.0, None).sum()


def _located(locate, mesh, xy):
    try:
        t, bary = locate(mesh, xy)
    except LoadError as err:
        return str(err)
    return t, bary.tobytes()


@pytest.mark.parametrize("kind", ["square", "jittered", "shuffled"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32])
def test_bucket_grid_locates_as_the_scan(n, kind):
    # random points in and around the square, vertices, edge midpoints,
    # points a little below and left of the vertices, where a triangle
    # further on passes the tolerance, and points within and beyond
    # LOCATE_TOL outside the square: same triangle, same bits, same
    # LoadError; a non-finite point lies outside
    rng = np.random.default_rng(n)
    mesh = unit_square_mesh(n)
    vertices, triangles = mesh.vertices.copy(), mesh.triangles
    if kind == "jittered":
        interior = ~mesh.vertex_is_boundary
        vertices[interior] += rng.uniform(-0.1 / n, 0.1 / n, (interior.sum(), 2))
    elif kind == "shuffled":    # triangles in random order
        triangles = triangles[rng.permutation(mesh.num_triangles)]
    mesh = build_triangulation(vertices, triangles)
    side, near = rng.uniform(0.0, 1.0, 8), 0.5 * LOCATE_TOL / n
    corners = mesh.vertices[rng.permutation(mesh.num_vertices)[:200]]
    points = [*rng.uniform(-0.05, 1.05, (40, 2)), *corners, *mesh.edge_midpoint[:200],
              *(corners - (near, 0.0)), *(corners - (0.0, near)),
              *np.column_stack([side, np.full(8, -0.5 * LOCATE_TOL)]),
              *np.column_stack([np.full(8, 1.0 + 2.0 * LOCATE_TOL), side]),
              (-1e-11, -1e-11), (1.0 + 1e-9, 1.0)]
    for xy in points:
        assert _located(locate_point, mesh, xy) == _located(locate_point_scan, mesh, xy)
    for xy in ((np.nan, 0.5), (0.5, np.inf)):
        with pytest.raises(LoadError, match="outside"):
            locate_point(mesh, xy)


def test_point_load_outside_domain_rejected(mesh2):
    with pytest.raises(LoadError, match="outside"):
        smoothed_load_vector(mesh2, build_dof_map(mesh2, SpaceTag.MORLEY),
                             LoadSpec(points=((1.0, (1.5, 0.5)),)))


def test_plain_rejects_point_loads(mesh2):
    for tag in (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        with pytest.raises(LoadError, match="L2"):
            plain_load_vector(mesh2, build_dof_map(mesh2, tag),
                              LoadSpec(points=((1.0, (0.5, 0.5)),)))


def test_plain_point_loads_on_the_macro_space(mesh2):
    # a snapped point is exactly its vertex's value DOF; any other point
    # gives the value of every macro shape function there
    load = LoadSpec(points=((2.5, (0.5, 0.5)), (1.0, (0.3, 0.45))))
    hct = build_dof_map(mesh2, SpaceTag.HCT)
    b = plain_load_vector(mesh2, hct, load)
    at_vertex = plain_load_vector(mesh2, hct, LoadSpec(points=load.points[:1]))
    center = int(np.flatnonzero(np.all(mesh2.vertices == 0.5, axis=1))[0])
    assert np.array_equal(at_vertex, 2.5 * np.eye(1, hct.n_free, hct.vertex_dofs[center, 0])[0])
    t, lam = locate_point(mesh2, (0.3, 0.45))
    for i in range(hct.n_free):
        phi = evaluate(DiscreteFunction(mesh2, SpaceTag.HCT, np.eye(1, hct.n_free, i)[0]), t, lam)
        assert abs(b[i] - at_vertex[i] - phi) < 1e-12


def test_plain_partition_of_unity(mesh2):
    dg = build_dof_map(mesh2, SpaceTag.DG_P2)
    b = plain_load_vector(mesh2, dg, LoadSpec(density=lambda x, y: np.ones_like(x)))
    per_tri = b.reshape(-1, 6).sum(axis=1)
    assert np.abs(per_tri - mesh2.tri_area).max() < 1e-15


def test_plain_high_order_oracle():
    # the biharmonic load of u1 oscillates at the (2 pi)^4 scale; an
    # independent higher-order rule confirms the vector to 1e-9 relative
    # once the primary rule resolves it (order 11 on the n=8 grid)
    mesh = unit_square_mesh(8)
    dg = build_dof_map(mesh, SpaceTag.DG_P2)
    load = LoadSpec(density=U1.biharmonic)
    b_primary = plain_load_vector(mesh, dg, load, quad_order=11)
    b_oracle = plain_load_vector(mesh, dg, load, quad_order=13)
    scale = np.abs(b_oracle).max()
    assert np.abs(b_primary - b_oracle).max() < 1e-9 * scale


def test_quadrature_order_validation(mesh2):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    load = LoadSpec(density=lambda x, y: np.ones_like(x))
    with pytest.raises(LoadError, match="order"):
        smoothed_load_vector(mesh2, dm, load, quad_order=2)
    with pytest.raises(LoadError, match="order"):
        plain_load_vector(mesh2, dm, load, quad_order=2)


def test_linearity(mesh2):
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    l1 = LoadSpec(density=U1.biharmonic)
    l2 = LoadSpec(density=lambda x, y: x * y, points=((0.7, (0.3, 0.4)),))
    combined = LoadSpec(
        density=lambda x, y: 2.0 * U1.biharmonic(x, y) + x * y,
        points=((0.7, (0.3, 0.4)),),
    )
    b = smoothed_load_vector(mesh2, dm, combined, quad_order=9)
    b1 = smoothed_load_vector(mesh2, dm, l1, quad_order=9)
    b2 = smoothed_load_vector(mesh2, dm, l2, quad_order=9)
    assert np.abs(b - (2.0 * b1 + b2)).max() < 1e-12 * max(1.0, np.abs(b).max())


def test_smoothed_on_macro_space_rejected(mesh2):
    hct = build_dof_map(mesh2, SpaceTag.HCT)
    with pytest.raises(ValueError, match="trial space"):
        smoothed_load_vector(mesh2, hct, LoadSpec(density=lambda x, y: x))


def test_density_callable_receives_two_dimensional_arrays(mesh2):
    # a density written for (rows, nq) arrays only, evaluated row by row
    def density(x, y):
        if x.ndim != 2 or x.shape != y.shape or x.shape[1] != nq:
            raise TypeError(f"expected two (rows, {nq}) arrays, got {x.shape} and {y.shape}")
        return np.stack([U1.biharmonic(rx, ry) for rx, ry in zip(x, y)])

    nq = triangle_rule(7)[1].size
    dm = build_dof_map(mesh2, SpaceTag.MORLEY)
    got = smoothed_load_vector(mesh2, dm, LoadSpec(density=density), quad_order=7)
    want = smoothed_load_vector(mesh2, dm, LoadSpec(density=U1.biharmonic), quad_order=7)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
