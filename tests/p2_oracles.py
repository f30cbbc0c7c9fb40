"""The closed-form P2 kernels in physical coordinates, kept as oracles.

The forms and transfer operators once computed the physical derivatives
of the P2 basis with these kernels: gradients from the barycentric
gradients of each triangle, Hessians as sums of their outer products.
They now read the reference tables of ``fespace.reference_shapes``
pushed forward per cell; the tests compare both ways.  The nodal DG
interpolant the tests build quadratics with is kept here too.
"""

import numpy as np

from platefem.fespace import DiscreteFunction, SpaceTag, barycentric_gradients, p2_values

EDGE_MID_BARY = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])


def p2_gradients(lam, g):
    """Physical gradients of the P2 basis, shape (nt, ..., 6, 2).

    ``g`` is (nt, 3, 2) and the barycentric points ``lam`` are
    (nt, ..., 3), or (1, ..., 3) for points shared by all cells.
    """
    lam = np.asarray(lam)
    nt = g.shape[0]
    gx = g.reshape((nt,) + (1,) * (lam.ndim - 2) + (3, 2))
    out = np.zeros((nt,) + lam.shape[1:-1] + (6, 2))
    for i in range(3):
        out[..., i, :] = (4.0 * lam[..., i, None] - 1.0) * gx[..., i, :]
        j, k = (i + 1) % 3, (i + 2) % 3
        out[..., 3 + i, :] = 4.0 * (
            lam[..., k, None] * gx[..., j, :] + lam[..., j, None] * gx[..., k, :]
        )
    return out


def p2_hessians(mesh):
    """Constant Hessians of the P2 basis per triangle, shape (nt, 6, 2, 2)."""
    g = barycentric_gradients(mesh)
    H = np.empty((mesh.num_triangles, 6, 2, 2))
    for i in range(3):
        H[:, i] = 4.0 * np.einsum("ti,tj->tij", g[:, i], g[:, i])
        j, k = (i + 1) % 3, (i + 2) % 3
        H[:, 3 + i] = 4.0 * (
            np.einsum("ti,tj->tij", g[:, j], g[:, k])
            + np.einsum("ti,tj->tij", g[:, k], g[:, j])
        )
    return H


def morley_dof_matrix(mesh):
    """Morley DOF functionals applied to the local P2 basis, (nt, 6, 6)."""
    M = np.zeros((mesh.num_triangles, 6, 6))
    M[:, :3, :3] = np.eye(3)
    grads = p2_gradients(EDGE_MID_BARY[None], barycentric_gradients(mesh))  # (nt, 3, 6, 2)
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2)
    M[:, 3:, :] = np.einsum("teai,tei->tea", grads, normals)
    return M


def interpolate_nodal(mesh, fn):
    """Nodal interpolant of ``fn(x, y)`` in the discontinuous P2 space on
    ``mesh``: its values at every triangle's vertices and edge midpoints."""
    vvals = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    evals = fn(mesh.edge_midpoint[:, 0], mesh.edge_midpoint[:, 1])
    loc = np.concatenate([vvals[mesh.triangles], evals[mesh.tri_edges]], axis=1)
    return DiscreteFunction(mesh, SpaceTag.DG_P2, loc.ravel())


def edge_traces(mesh, params):
    """P2 basis values ``N`` (ne, nq, 6) and gradients ``G`` (ne, nq, 6, 2)
    on both sides of every edge, side 1 zero on boundary edges."""
    params = np.asarray(params, dtype=np.float64)
    info = mesh.edge_side_info()
    g = barycentric_gradients(mesh)
    out = {"interior": ~mesh.edge_is_boundary}
    for side in range(2):
        t = mesh.edge_tris[:, side]
        valid = t >= 0
        ts = np.maximum(t, 0)
        onehot_a = (np.arange(3)[None, :] == info["local_a"][:, side][:, None]).astype(float)
        onehot_b = (np.arange(3)[None, :] == info["local_b"][:, side][:, None]).astype(float)
        lam = (
            onehot_a[:, None, :] * (1.0 - params)[None, :, None]
            + onehot_b[:, None, :] * params[None, :, None]
        )
        N = p2_values(lam)
        G = p2_gradients(lam, g[ts])
        N[~valid] = 0.0
        G[~valid] = 0.0
        out[f"N{side}"] = N
        out[f"G{side}"] = G
        out[f"t{side}"] = ts
        out[f"valid{side}"] = valid
    return out


def morley_vertex_grad_rows(mesh):
    """Gradients (nt, 3, 6, 2) of the local Morley shape functions at the
    vertices: entry [t, lv, a] belongs to local vertex lv and DOF a."""
    grads = p2_gradients(np.eye(3)[None], barycentric_gradients(mesh))  # (nt, 3, 6, 2)
    C = np.linalg.inv(morley_dof_matrix(mesh))
    return C.transpose(0, 2, 1)[:, None] @ grads


def hess_avg_rows(mesh, traces):
    """Weighted normal rows <D^2 psi> nu of both sides' basis, (ne, 12, 2)."""
    H = p2_hessians(mesh)
    nu = mesh.edge_normal
    Hn0 = np.einsum("eaij,ej->eai", H[traces["t0"]], nu)
    Hn1 = np.einsum("eaij,ej->eai", H[traces["t1"]], nu)
    Hn1[~traces["valid1"]] = 0.0
    w1 = np.where(traces["interior"], 0.5, 1.0)[:, None, None]
    return np.concatenate([w1 * Hn0, w1 * Hn1], axis=1)
