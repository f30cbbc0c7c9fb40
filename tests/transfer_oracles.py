"""The triplet construction of the transfer operators, kept as an oracle.

``interp`` once built I_M (from each input space), the companion J and
I_C as lists of (row, col, value) triplets: a branch per input space, a
loop over the two sides of every interior edge and the vertex patches
of ``Triangulation.vertex_tri_patches``, each triplet already scaled by
1/size.  It now takes the cell mean of local rows; the tests compare
both ways.  Constrained (-1) DOFs are dropped here as they were then.
"""

import numpy as np

from platefem.fespace import (
    SpaceTag,
    build_dof_map,
    morley_dof_matrix,
    morley_local_basis,
    reference_shapes,
    shapes,
)
from platefem.interp import _cell_mean
from platefem.sparse import SparseMatrix, ragged_positions


def _matrix(nrows, ncols, triplets):
    """The summed triplets; each item of ``triplets`` is a broadcastable (rows, cols, vals)."""
    parts = [np.broadcast_arrays(*t) for t in triplets]
    rows, cols, vals = (np.concatenate([p[k].ravel() for p in parts]) for k in range(3))
    keep = (rows >= 0) & (cols >= 0)
    return SparseMatrix.from_triplets(nrows, ncols, rows[keep], cols[keep], vals[keep])


def _vertex_patches(mesh, vids):
    """(owner, tris, lv, size): entry k is triangle ``tris[k]``, in which vertex
    ``vids[owner[k]]`` is local vertex ``lv[k]``, of a patch of ``size[k]``."""
    indptr, tris, lv = mesh.vertex_tri_patches()
    pos, count = ragged_positions(indptr, vids)
    owner = np.repeat(np.arange(vids.size), count)
    return owner, tris[pos], lv[pos], count[owner]


def interp_matrix(mesh, tag):
    space_map = build_dof_map(mesh, tag)
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    vids = np.flatnonzero(~mesh.vertex_is_boundary)
    eids = np.flatnonzero(~mesh.edge_is_boundary)
    out = []
    if tag is SpaceTag.MORLEY:
        eye = np.arange(morley_map.n_free)
        out.append((eye, eye, 1.0))
    elif tag in (SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        owner, t_in, lv_in, size = _vertex_patches(mesh, vids)
        out.append((morley_map.vertex_dofs[vids][owner], space_map.cell_dofs[t_in, lv_in],
                    1.0 / size))
        Mdof = morley_dof_matrix(mesh)
        info = mesh.edge_side_info()
        for side in range(2):
            t = mesh.edge_tris[eids, side]
            le = info["local_edge"][eids, side]
            out.append((np.repeat(morley_map.edge_dofs[eids], 6),
                        space_map.cell_dofs[t].ravel(), 0.5 * Mdof[t, 3 + le, :].ravel()))
    else:
        out.append((morley_map.vertex_dofs[vids], space_map.vertex_dofs[vids, 0], 1.0))
        rows = morley_map.edge_dofs[eids]
        out.append((rows, space_map.edge_dofs[eids], np.full(eids.size, 4.0 / 6.0)))
        nu = mesh.edge_normal[eids]
        for endpoint in range(2):
            v = mesh.edge_vertices[eids, endpoint]
            for comp in range(2):
                out.append((rows, space_map.vertex_dofs[v, 1 + comp], nu[:, comp] / 6.0))
    return _matrix(morley_map.n_free, space_map.n_free, out)


def companion_matrix(mesh):
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    vids = np.flatnonzero(~mesh.vertex_is_boundary)
    out = [(hct_map.vertex_dofs[vids, 0], morley_map.vertex_dofs[vids], 1.0)]
    Gv = shapes(mesh, SpaceTag.MORLEY, reference_shapes(SpaceTag.MORLEY, np.eye(3), 1))
    owner, t_in, lv_in, size = _vertex_patches(mesh, vids)
    cols = morley_map.cell_dofs[t_in]
    for comp in range(2):
        rows = np.repeat(hct_map.vertex_dofs[vids, 1 + comp][owner], 6).reshape(-1, 6)
        out.append((rows, cols, (1.0 / size)[:, None] * Gv[t_in, lv_in, comp]))
    eids = np.flatnonzero(~mesh.edge_is_boundary)
    erows = hct_map.edge_dofs[eids]
    out.append((erows, morley_map.edge_dofs[eids], 1.5))
    nu = mesh.edge_normal[eids]
    for endpoint in range(2):
        v = mesh.edge_vertices[eids, endpoint]
        sel = np.flatnonzero(~mesh.vertex_is_boundary[v])
        owner, t_in, lv_in, size = _vertex_patches(mesh, v[sel])
        gdot = np.einsum("nia,ni->na", Gv[t_in, lv_in], nu[sel][owner])
        rows = np.repeat(erows[sel][owner], 6).reshape(-1, 6)
        out.append((rows, morley_map.cell_dofs[t_in], (-0.25 / size)[:, None] * gdot))
    return _matrix(hct_map.n_free, morley_map.n_free, out)


def transfer_ic_matrix(mesh):
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    lag_map = build_dof_map(mesh, SpaceTag.LAGRANGE_P2)
    vids = np.flatnonzero(~mesh.vertex_is_boundary)
    out = [(lag_map.vertex_dofs[vids], morley_map.vertex_dofs[vids], 1.0)]
    C = morley_local_basis(mesh)
    info = mesh.edge_side_info()
    eids = np.flatnonzero(~mesh.edge_is_boundary)
    for side in range(2):
        t = mesh.edge_tris[eids, side]
        le = info["local_edge"][eids, side]
        rows = np.repeat(lag_map.edge_dofs[eids], 6).reshape(-1, 6)
        out.append((rows, morley_map.cell_dofs[t], 0.5 * C[t, 3 + le, :]))
    return _matrix(lag_map.n_free, morley_map.n_free, out)


def companion_closed_in_one_sort(mesh):
    """J as ``interp`` built it before it closed the edge rows in slices:
    the cell mean and every closure term summed by one ``from_triplets``."""
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    L = np.zeros((mesh.num_triangles, 12, 6))
    L[:, [0, 3, 6], [0, 1, 2]] = 1.0
    Gv = shapes(mesh, SpaceTag.MORLEY, reference_shapes(SpaceTag.MORLEY, np.eye(3), 1))
    L[:, [1, 2, 4, 5, 7, 8]] = Gv.reshape(-1, 6, 6)
    L[:, [9, 10, 11], [3, 4, 5]] = 1.5
    A = _cell_mean(mesh, SpaceTag.HCT, SpaceTag.MORLEY, L)
    grad_rows = hct_map.vertex_dofs[mesh.edge_vertices, 1:]     # (ne, end, comp)
    edge_rows = np.broadcast_to(hct_map.edge_dofs[:, None, None], grad_rows.shape)
    weight = np.broadcast_to(-0.25 * mesh.edge_normal[:, None, :], grad_rows.shape)
    keep = (grad_rows >= 0) & (edge_rows >= 0)
    pos, count = ragged_positions(np.searchsorted(A.rows, np.arange(A.nrows + 1)),
                                  grad_rows[keep])
    closed = SparseMatrix.from_triplets(
        A.nrows, A.ncols, np.concatenate([A.rows, np.repeat(edge_rows[keep], count)]),
        np.concatenate([A.cols, A.cols[pos]]),
        np.concatenate([A.vals, np.repeat(weight[keep], count) * A.vals[pos]]))
    nonzero = closed.vals != 0
    return SparseMatrix(closed.nrows, closed.ncols, closed.rows[nonzero], closed.cols[nonzero],
                        closed.vals[nonzero])
