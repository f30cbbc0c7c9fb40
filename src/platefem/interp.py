"""Interpolation and transfer operators between the discrete spaces.

* ``morley_interp_local``  - per-triangle quadratic interpolation that
  matches vertex values and edge means of the normal derivative (a
  projection on piecewise quadratics).
* ``morley_interp_avg``    - interpolation onto the nonconforming
  quadratic space for possibly discontinuous input: vertex DOFs average
  the one-sided values over the vertex patch, edge DOFs take the edge
  mean of the averaged normal-derivative traces.
* ``companion``            - right-inverse of the averaging interpolation
  mapping into the C^1 macro-element space: vertex values are copied,
  vertex gradients are patch averages, and the edge-midpoint normal
  slope is closed so the edge mean of the normal derivative is preserved
  (the normal derivative of a cubic is quadratic along the edge, so a
  Simpson closure is exact).
* ``transfer_ic``          - transfer onto continuous quadratics by
  averaging edge-midpoint traces.
* ``smoother``             - companion composed with the averaging
  interpolation; evaluates functionals that need H^2-conforming input.

All operators are exposed both as functions on DiscreteFunction and as
sparse matrices (for transposed application when assembling load
vectors).
"""

from dataclasses import dataclass

import numpy as np

from .fespace import (
    DiscreteFunction,
    DofMap,
    SpaceTag,
    build_dof_map,
    local_lagrange_coeffs,
    morley_dof_matrix,
    morley_local_basis,
    reference_shapes,
    shapes,
    to_dgp2,
)
from .mesh import Triangulation, derived
from .quadrature import edge_rule
from .sparse import SparseMatrix, TripletAccumulator, ragged_positions

ANALYTIC_EDGE_GAUSS = 5  # exact for normal derivatives of degree <= 9


@dataclass(frozen=True)
class InterpolationReport:
    """Residual record for an operator identity check."""

    max_residual: float
    tolerance: float

    @property
    def ok(self):
        return self.max_residual <= self.tolerance


def _vertex_patches(mesh, vids):
    """The triangles around each vertex of ``vids``, concatenated.

    Returns ``(owner, tris, lv, size)``: entry k is triangle ``tris[k]``,
    in which vertex ``vids[owner[k]]`` is local vertex ``lv[k]``, and
    ``size[k]`` is the number of triangles around that vertex.
    """
    indptr, tris, lv = mesh.vertex_tri_patches()
    pos, count = ragged_positions(indptr, vids)
    owner = np.repeat(np.arange(vids.size), count)
    return owner, tris[pos], lv[pos], count[owner]


def interp_matrix(space_map: DofMap) -> SparseMatrix:
    """Averaging interpolation onto the nonconforming space as a matrix.

    Maps coefficients of ``space_map`` (quadratic spaces or the macro
    space) to coefficients of the Morley-type space on the same mesh.
    """
    return _interp_matrix(space_map.mesh, space_map.tag)


@derived
def _interp_matrix(mesh: Triangulation, tag: SpaceTag) -> SparseMatrix:
    space_map = build_dof_map(mesh, tag)
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    acc = TripletAccumulator(morley_map.n_free, space_map.n_free)

    if space_map.tag is SpaceTag.MORLEY:
        eye = np.arange(morley_map.n_free)
        acc.add(eye, eye, np.ones(morley_map.n_free))
    elif space_map.tag in (SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        # vertex rows: patch average of one-sided point values
        vids = np.flatnonzero(~mesh.vertex_is_boundary)
        owner, t_in, lv_in, size = _vertex_patches(mesh, vids)
        rows = morley_map.vertex_dofs[vids][owner]
        cols = space_map.cell_dofs[t_in, lv_in]
        acc.add(rows, cols, 1.0 / size)
        # edge rows: mean of the two normal-derivative edge means
        Mdof = morley_dof_matrix(mesh)
        info = mesh.edge_side_info()
        eids = np.flatnonzero(~mesh.edge_is_boundary)
        for side in range(2):
            t = mesh.edge_tris[eids, side]
            le = info["local_edge"][eids, side]
            rows = np.repeat(morley_map.edge_dofs[eids], 6)
            cols = space_map.cell_dofs[t].ravel()
            vals = 0.5 * Mdof[t, 3 + le, :].ravel()
            acc.add(rows, cols, vals)
    elif space_map.tag is SpaceTag.HCT:
        vids = np.flatnonzero(~mesh.vertex_is_boundary)
        acc.add(
            morley_map.vertex_dofs[vids],
            space_map.vertex_dofs[vids, 0],
            np.ones(vids.size),
        )
        # edge mean of the normal derivative by exact Simpson closure
        eids = np.flatnonzero(~mesh.edge_is_boundary)
        rows = morley_map.edge_dofs[eids]
        acc.add(rows, space_map.edge_dofs[eids], np.full(eids.size, 4.0 / 6.0))
        nu = mesh.edge_normal[eids]
        for endpoint in range(2):
            v = mesh.edge_vertices[eids, endpoint]
            for comp in range(2):
                acc.add(rows, space_map.vertex_dofs[v, 1 + comp], nu[:, comp] / 6.0)
    else:
        raise ValueError(f"no interpolation from {space_map.tag}")
    return acc.build()


@derived
def companion_matrix(mesh: Triangulation) -> SparseMatrix:
    """The right-inverse into the C^1 macro space as a sparse matrix."""
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    acc = TripletAccumulator(hct_map.n_free, morley_map.n_free)

    vids = np.flatnonzero(~mesh.vertex_is_boundary)
    acc.add(hct_map.vertex_dofs[vids, 0], morley_map.vertex_dofs[vids], np.ones(vids.size))

    # vertex gradients: arithmetic mean over the vertex patch; Gv[t, lv, :, a]
    # is the gradient at local vertex lv of the shape function of local DOF a
    Gv = shapes(mesh, SpaceTag.MORLEY, reference_shapes(SpaceTag.MORLEY, np.eye(3), 1))
    owner, t_in, lv_in, size = _vertex_patches(mesh, vids)
    w = (1.0 / size)[:, None]
    cols = morley_map.cell_dofs[t_in]  # (N, 6)
    for comp in range(2):
        rows = np.repeat(hct_map.vertex_dofs[vids, 1 + comp][owner], 6).reshape(-1, 6)
        acc.add(rows, cols, w * Gv[t_in, lv_in, comp])

    # edge slope: q(mid) = (6*mean - q(a) - q(b)) / 4
    eids = np.flatnonzero(~mesh.edge_is_boundary)
    erows = hct_map.edge_dofs[eids]
    acc.add(erows, morley_map.edge_dofs[eids], np.full(eids.size, 1.5))
    nu = mesh.edge_normal[eids]
    for endpoint in range(2):
        v = mesh.edge_vertices[eids, endpoint]
        inner = ~mesh.vertex_is_boundary[v]  # boundary endpoint gradients are clamped
        sel = np.flatnonzero(inner)
        owner, t_in, lv_in, size = _vertex_patches(mesh, v[sel])
        w = -0.25 / size
        gdot = np.einsum("nia,ni->na", Gv[t_in, lv_in], nu[sel][owner])
        rows = np.repeat(erows[sel][owner], 6).reshape(-1, 6)
        acc.add(rows, morley_map.cell_dofs[t_in], w[:, None] * gdot)

    return acc.build()


@derived
def transfer_ic_matrix(mesh: Triangulation) -> SparseMatrix:
    """Transfer onto continuous quadratics (midpoint-trace averaging)."""
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    lag_map = build_dof_map(mesh, SpaceTag.LAGRANGE_P2)
    acc = TripletAccumulator(lag_map.n_free, morley_map.n_free)
    vids = np.flatnonzero(~mesh.vertex_is_boundary)
    acc.add(lag_map.vertex_dofs[vids], morley_map.vertex_dofs[vids], np.ones(vids.size))
    # midpoint value of the one-sided trace is the local midpoint coefficient
    C = morley_local_basis(mesh)
    info = mesh.edge_side_info()
    eids = np.flatnonzero(~mesh.edge_is_boundary)
    for side in range(2):
        t = mesh.edge_tris[eids, side]
        le = info["local_edge"][eids, side]
        rows = np.repeat(lag_map.edge_dofs[eids], 6).reshape(-1, 6)
        vals = 0.5 * C[t, 3 + le, :]
        acc.add(rows, morley_map.cell_dofs[t], vals)
    return acc.build()


# ---------------------------------------------------------------------------
# high-level operator application
# ---------------------------------------------------------------------------

def _analytic_edge_means(mesh, fn, eids=None):
    """Edge means of the normal derivative of an analytic function."""
    if eids is None:
        eids = np.arange(mesh.num_edges)
    s, w = edge_rule(ANALYTIC_EDGE_GAUSS)
    pa = mesh.vertices[mesh.edge_vertices[eids, 0]]
    pb = mesh.vertices[mesh.edge_vertices[eids, 1]]
    pts = pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]
    grads = fn.grad(pts[..., 0], pts[..., 1])
    dn = np.einsum("eqi,ei->eq", grads, mesh.edge_normal[eids])
    return dn @ w


def morley_interp_avg(v, mesh: Triangulation | None = None) -> DiscreteFunction:
    """Averaging interpolation onto the nonconforming quadratic space.

    ``v`` is a DiscreteFunction (quadratic spaces, the macro space, or
    already nonconforming) or an analytic function with a ``grad``
    callback (then ``mesh`` is required); for globally H^2 input this is
    the classical interpolation.
    """
    if isinstance(v, DiscreteFunction):
        mat = interp_matrix(v.space)
        return DiscreteFunction(build_dof_map(v.mesh, SpaceTag.MORLEY), mat.matvec(v.coeffs))
    if mesh is None:
        raise ValueError("mesh is required for analytic input")
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    out = np.zeros(morley_map.n_free)
    vd = morley_map.vertex_dofs
    keep = vd >= 0
    out[vd[keep]] = v.value(mesh.vertices[keep, 0], mesh.vertices[keep, 1])
    ed = morley_map.edge_dofs
    eids = np.flatnonzero(ed >= 0)
    out[ed[eids]] = _analytic_edge_means(mesh, v, eids)
    return DiscreteFunction(morley_map, out)


def morley_interp_local(v, mesh: Triangulation | None = None) -> DiscreteFunction:
    """Per-triangle quadratic interpolation (discontinuous output).

    Matches the one-sided vertex values and edge means of the normal
    derivative on every triangle; piecewise quadratic input reproduces
    itself, and the Hessian of the output is the per-triangle integral
    mean of the input Hessian.
    """
    if isinstance(v, DiscreteFunction):
        if v.tag is SpaceTag.HCT:   # C^1 input: one-sided and averaged DOFs coincide
            return to_dgp2(morley_interp_avg(v))
        mesh = v.mesh
        lag = local_lagrange_coeffs(v)
        dofs = np.einsum("tab,tb->ta", morley_dof_matrix(mesh), lag)
    else:
        if mesh is None:
            raise ValueError("mesh is required for analytic input")
        dofs = np.empty((mesh.num_triangles, 6))
        coords = mesh.tri_coords()
        dofs[:, :3] = v.value(coords[..., 0], coords[..., 1])
        means = _analytic_edge_means(mesh, v)
        dofs[:, 3:] = means[mesh.tri_edges]
    C = morley_local_basis(mesh)
    lag = np.einsum("tba,ta->tb", C, dofs)
    return DiscreteFunction(build_dof_map(mesh, SpaceTag.DG_P2), lag.ravel())


def companion(v: DiscreteFunction) -> DiscreteFunction:
    """Map a nonconforming function to its C^1 macro-element companion."""
    if v.tag is not SpaceTag.MORLEY:
        raise ValueError("companion expects a function in the nonconforming space")
    mat = companion_matrix(v.mesh)
    return DiscreteFunction(build_dof_map(v.mesh, SpaceTag.HCT), mat.matvec(v.coeffs))


def transfer_ic(v: DiscreteFunction) -> DiscreteFunction:
    """Transfer a nonconforming function onto continuous quadratics."""
    if v.tag is not SpaceTag.MORLEY:
        raise ValueError("transfer expects a function in the nonconforming space")
    mat = transfer_ic_matrix(v.mesh)
    return DiscreteFunction(build_dof_map(v.mesh, SpaceTag.LAGRANGE_P2), mat.matvec(v.coeffs))


def smoother(v: DiscreteFunction) -> DiscreteFunction:
    """The H^2-conforming smoothing J I_M applied to a discrete function."""
    return companion(morley_interp_avg(v))


def verify_right_inverse(mesh: Triangulation, samples: int = 50, seed: int = 2024,
                         tolerance: float = 1e-11) -> InterpolationReport:
    """Check that interpolation after the companion is the identity."""
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    J = companion_matrix(mesh)
    I = interp_matrix(hct_map)
    rng = np.random.default_rng(seed)
    resid = np.zeros(morley_map.n_free)
    for _ in range(samples):
        u = rng.uniform(-1.0, 1.0, morley_map.n_free)
        r = I.matvec(J.matvec(u)) - u
        resid = np.maximum(resid, np.abs(r))
    return InterpolationReport(float(resid.max()) if resid.size else 0.0, tolerance)
