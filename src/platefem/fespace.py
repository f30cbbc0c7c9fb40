"""Discrete spaces on a triangulation and their local shape functions.

Four spaces are supported:

* ``MORLEY``      - nonconforming quadratics; DOFs are vertex values and
  integral means of the normal derivative over edges (global edge
  normals, shared by both adjacent triangles).
* ``DG_P2``       - fully discontinuous quadratics, 6 Lagrange DOFs per
  triangle (3 vertices + 3 edge midpoints).
* ``LAGRANGE_P2`` - continuous quadratics vanishing on the boundary.
* ``HCT``         - C^1 cubic macro element: each triangle is split at
  its centroid into three sub-triangles carrying cubics glued with C^1
  continuity; DOFs are vertex values + gradients and edge-midpoint
  normal derivatives.

All local polynomial work is done in explicit coordinates (barycentric
for quadratics, a scaled monomial frame for the macro cubics); normal
derivatives are not affine-covariant, so nothing is pulled back to a
reference element.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mesh import Triangulation, barycentric, derived
from .quadrature import triangle_points


class ElementError(ValueError):
    """Raised when a local element construction fails (degenerate geometry)."""


class SpaceTag(Enum):
    MORLEY = "morley"
    DG_P2 = "dgp2"
    LAGRANGE_P2 = "p2c0"
    HCT = "hct"


# ---------------------------------------------------------------------------
# quadratic Lagrange machinery (shared by Morley / dG / continuous P2)
# ---------------------------------------------------------------------------

@derived
def barycentric_gradients(mesh: Triangulation):
    """Gradients of the barycentric coordinates, shape (nt, 3, 2)."""
    p = mesh.tri_coords()
    det = 2.0 * mesh.tri_area
    g = np.empty((mesh.num_triangles, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
        g[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
    return g


def p2_values(lam):
    """Quadratic Lagrange basis at barycentric points, shape (..., 6).

    Order: vertex functions 0..2, then midpoint function of the edge
    opposite vertex 0..2.
    """
    lam = np.asarray(lam)
    out = np.empty(lam.shape[:-1] + (6,))
    for i in range(3):
        out[..., i] = lam[..., i] * (2.0 * lam[..., i] - 1.0)
        j, k = (i + 1) % 3, (i + 2) % 3
        out[..., 3 + i] = 4.0 * lam[..., j] * lam[..., k]
    return out


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


@derived
def p2_hessians(mesh: Triangulation):
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


_EDGE_MID_BARY = np.array(
    [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
)  # midpoint of the edge opposite vertex i


def morley_dof_matrix(mesh: Triangulation):
    """DOF functionals applied to the local P2 Lagrange basis, (nt, 6, 6).

    Rows 0..2: point values at the vertices.  Rows 3..5: integral mean of
    the normal derivative over edge i (opposite vertex i) with the global
    edge normal; for quadratics this mean equals the midpoint value.
    """
    g = barycentric_gradients(mesh)
    M = np.zeros((mesh.num_triangles, 6, 6))
    M[:, :3, :3] = np.eye(3)
    grads = p2_gradients(_EDGE_MID_BARY[None], g)  # (nt, 3, 6, 2)
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2)
    M[:, 3:, :] = np.einsum("teai,tei->tea", grads, normals)
    return M


@derived
def morley_local_basis(mesh: Triangulation):
    """Morley shape functions as P2 Lagrange coefficients, (nt, 6, 6).

    Column a of ``C[t]`` holds the Lagrange coefficients of the shape
    function dual to local DOF a; for local Morley DOFs ``u`` the local
    Lagrange coefficients are ``C[t] @ u``.
    """
    scale = mesh.tri_diam ** 2
    if np.any(mesh.tri_area < 1e-14 * scale):
        bad = int(np.argmin(mesh.tri_area / scale))
        raise ElementError(f"triangle {bad} is numerically degenerate")
    return np.linalg.inv(morley_dof_matrix(mesh))


# ---------------------------------------------------------------------------
# HCT macro element
# ---------------------------------------------------------------------------

# Cubic monomials x^a y^b (a + b <= 3), ordered 1, x, y, x^2, xy, y^2,
# x^3, x^2 y, x y^2, y^3, and their derivatives as direct column products.

def monomial_values(xi):
    """Cubic monomials 1, x, y, ..., y^3 at points xi (..., 2) -> (..., 10)."""
    x, y = xi[..., 0], xi[..., 1]
    xx, yy = x * x, y * y
    out = np.empty(x.shape + (10,))
    out[..., 0] = 1.0
    out[..., 1] = x
    out[..., 2] = y
    out[..., 3] = xx
    out[..., 4] = x * y
    out[..., 5] = yy
    out[..., 6] = xx * x
    out[..., 7] = xx * y
    out[..., 8] = x * yy
    out[..., 9] = yy * y
    return out


def monomial_gradients(xi):
    """Gradients of the cubic monomials, (..., 10, 2) (frame coordinates)."""
    x, y = xi[..., 0], xi[..., 1]
    x2, y2 = 2.0 * x, 2.0 * y
    out = np.zeros(x.shape + (10, 2))
    out[..., 1, 0] = 1.0
    out[..., 2, 1] = 1.0
    out[..., 3, 0] = x2
    out[..., 4, 0] = y
    out[..., 4, 1] = x
    out[..., 5, 1] = y2
    out[..., 6, 0] = 3.0 * (x * x)
    out[..., 7, 0] = x2 * y
    out[..., 7, 1] = x * x
    out[..., 8, 0] = y * y
    out[..., 8, 1] = x2 * y
    out[..., 9, 1] = 3.0 * (y * y)
    return out


def monomial_hessians(xi):
    """Second derivatives of the cubic monomials, (..., 10, 2, 2)."""
    x, y = xi[..., 0], xi[..., 1]
    x2, y2 = 2.0 * x, 2.0 * y
    out = np.zeros(x.shape + (10, 2, 2))
    out[..., 3, 0, 0] = 2.0
    out[..., 4, 0, 1] = out[..., 4, 1, 0] = 1.0
    out[..., 5, 1, 1] = 2.0
    out[..., 6, 0, 0] = 6.0 * x
    out[..., 7, 0, 0] = y2
    out[..., 7, 0, 1] = out[..., 7, 1, 0] = x2
    out[..., 8, 0, 1] = out[..., 8, 1, 0] = y2
    out[..., 8, 1, 1] = x2
    out[..., 9, 1, 1] = 6.0 * y
    return out


@dataclass(frozen=True)
class HctBasis:
    """Macro shape functions of the HCT element for every triangle.

    ``coeffs[t, s, :, a]`` are the 10 monomial coefficients on
    sub-triangle s of shape function a (12 DOFs: value, d/dx, d/dy at the
    three vertices, then normal derivative at the three edge midpoints).
    The monomial frame is centered at the centroid and scaled by h_T.
    """

    center: np.ndarray     # (nt, 2)
    scale: np.ndarray      # (nt,)
    sub_coords: np.ndarray  # (nt, 3, 3, 2) vertices of the sub-triangles
    coeffs: np.ndarray     # (nt, 3, 10, 12)

    def to_frame(self, t, points):
        return (points - self.center[t]) / self.scale[t][..., None]

    def sub_points(self, bary):
        """Rule points ``bary`` (nq, 3) on every sub-triangle.

        Returns the physical points and their frame coordinates, both of
        shape (nt, 3, nq, 2).
        """
        pts = triangle_points(bary, self.sub_coords)
        xi = (pts - self.center[:, None, None, :]) / self.scale[:, None, None, None]
        return pts, xi


@derived
def hct_local_basis(mesh: Triangulation) -> HctBasis:
    """Build the 12 macro shape functions on every triangle.

    Solves one 30x30 system per triangle (3 sub-triangles x 10 cubic
    coefficients) with the 12 DOF conditions plus interior continuity:
    value and gradient ties at the vertices and the centroid and the
    normal-derivative match at the midpoint of each internal sub-edge
    (those 18 conditions imply full C^1 across the internal edges, which
    is verified for random data in the test suite).
    """
    nt = mesh.num_triangles
    p = mesh.tri_coords()
    center = p.mean(axis=1)
    scale = mesh.tri_diam
    xi_v = (p - center[:, None, :]) / scale[:, None, None]  # vertices in frame
    h = scale[:, None, None]   # frame gradients to physical ones

    A = np.zeros((nt, 30, 30))
    rhs = np.zeros((30, 12))

    def cols(s):
        return slice(10 * s, 10 * (s + 1))

    row = 0
    # 12 DOF rows
    for j in range(3):
        s = (j + 1) % 3  # K_s = conv{P_{j+2}, P_j, centroid} contains P_j
        A[:, row, cols(s)] = monomial_values(xi_v[:, j])
        rhs[row, 3 * j] = 1.0
        grad = monomial_gradients(xi_v[:, j]) / h
        A[:, row + 1, cols(s)] = grad[..., 0]
        A[:, row + 2, cols(s)] = grad[..., 1]
        rhs[row + 1, 3 * j + 1] = 1.0
        rhs[row + 2, 3 * j + 2] = 1.0
        row += 3
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2) global normals
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        xi_mid = 0.5 * (xi_v[:, j] + xi_v[:, k])
        grad = monomial_gradients(xi_mid) / h
        A[:, row, cols(i)] = np.einsum("tmi,ti->tm", grad, normals[:, i])
        rhs[row, 9 + i] = 1.0
        row += 1
    # vertex ties: the second sub-triangle containing P_j matches value+gradient
    for j in range(3):
        s1, s2 = (j + 1) % 3, (j + 2) % 3
        val = monomial_values(xi_v[:, j])
        grad = monomial_gradients(xi_v[:, j]) / h
        A[:, row, cols(s1)] = val
        A[:, row, cols(s2)] = -val
        A[:, row + 1, cols(s1)] = grad[..., 0]
        A[:, row + 1, cols(s2)] = -grad[..., 0]
        A[:, row + 2, cols(s1)] = grad[..., 1]
        A[:, row + 2, cols(s2)] = -grad[..., 1]
        row += 3
    # centroid ties (frame origin)
    xi_c = np.zeros((nt, 2))
    val_c = monomial_values(xi_c)
    grad_c = monomial_gradients(xi_c) / h
    for s1, s2 in ((0, 1), (1, 2)):
        A[:, row, cols(s1)] = val_c
        A[:, row, cols(s2)] = -val_c
        A[:, row + 1, cols(s1)] = grad_c[..., 0]
        A[:, row + 1, cols(s2)] = -grad_c[..., 0]
        A[:, row + 2, cols(s1)] = grad_c[..., 1]
        A[:, row + 2, cols(s2)] = -grad_c[..., 1]
        row += 3
    # internal sub-edge centroid-P_j: normal-derivative match at its midpoint
    for j in range(3):
        s1, s2 = (j + 1) % 3, (j + 2) % 3
        direction = xi_v[:, j]  # from the origin towards P_j in frame coords
        n = np.column_stack([direction[:, 1], -direction[:, 0]])
        n /= np.linalg.norm(n, axis=1)[:, None]
        grad = monomial_gradients(0.5 * xi_v[:, j]) / h
        rows_n = np.einsum("tmi,ti->tm", grad, n)
        A[:, row, cols(s1)] = rows_n
        A[:, row, cols(s2)] = -rows_n
        row += 1
    assert row == 30

    try:
        sol = np.linalg.solve(A, np.broadcast_to(rhs, (nt, 30, 12)))
    except np.linalg.LinAlgError as exc:
        raise ElementError("singular HCT local system (degenerate geometry)") from exc

    coeffs = sol.reshape(nt, 3, 10, 12)
    # duality check: DOF functionals applied to the basis give the identity
    dofs = A[:, :12] @ sol
    resid = np.abs(dofs - rhs[:12]).max()
    if not np.isfinite(resid) or resid > 1e-8:
        raise ElementError(f"HCT construction failed duality check ({resid:.3e})")

    sub = np.empty((nt, 3, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        sub[:, i, 0] = p[:, j]
        sub[:, i, 1] = p[:, k]
        sub[:, i, 2] = center
    return HctBasis(center=center, scale=scale, sub_coords=sub, coeffs=coeffs)


# ---------------------------------------------------------------------------
# DOF maps and discrete functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofMap:
    """Global enumeration of the free DOFs of one discrete space.

    ``cell_dofs[t, a]`` is the global index of local DOF a on triangle t,
    or -1 when the DOF is constrained to zero (clamped boundary).
    ``vertex_dofs``/``edge_dofs`` expose the entity-based numbering used
    by the interpolation operators (None for the cell-based DG space).
    """

    tag: SpaceTag
    mesh: Triangulation
    n_free: int
    cell_dofs: np.ndarray
    vertex_dofs: np.ndarray | None = None
    edge_dofs: np.ndarray | None = None


def _number(flags):
    """Sequential numbering of the True entries; -1 elsewhere."""
    out = np.full(flags.shape, -1, dtype=np.int64)
    out[flags] = np.arange(np.count_nonzero(flags))
    return out


@derived
def build_dof_map(mesh: Triangulation, tag: SpaceTag) -> DofMap:
    nv, ne, nt = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    vi = ~mesh.vertex_is_boundary
    ei = ~mesh.edge_is_boundary
    if tag is SpaceTag.DG_P2:
        cell = np.arange(6 * nt, dtype=np.int64).reshape(nt, 6)
        return DofMap(tag, mesh, 6 * nt, cell)
    if tag in (SpaceTag.MORLEY, SpaceTag.LAGRANGE_P2):
        vdof = _number(vi)
        edof = _number(ei)
        edof[ei] += np.count_nonzero(vi)
        cell = np.concatenate([vdof[mesh.triangles], edof[mesh.tri_edges]], axis=1)
        n = int(np.count_nonzero(vi) + np.count_nonzero(ei))
        return DofMap(tag, mesh, n, cell, vdof, edof)
    if tag is SpaceTag.HCT:
        vdof = np.full((nv, 3), -1, dtype=np.int64)
        vdof[vi] = np.arange(3 * np.count_nonzero(vi)).reshape(-1, 3)
        edof = _number(ei)
        edof[ei] += 3 * np.count_nonzero(vi)
        cell = np.concatenate(
            [vdof[mesh.triangles].reshape(nt, 9), edof[mesh.tri_edges]], axis=1
        )
        n = int(3 * np.count_nonzero(vi) + np.count_nonzero(ei))
        return DofMap(tag, mesh, n, cell, vdof, edof)
    raise ValueError(f"unknown space tag {tag}")


@dataclass
class DiscreteFunction:
    """Coefficient vector over the free DOFs of one space."""

    space: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.space.n_free,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match "
                f"free DOF count {self.space.n_free}"
            )

    @property
    def tag(self):
        return self.space.tag

    @property
    def mesh(self):
        return self.space.mesh


def zeros(dofmap: DofMap) -> DiscreteFunction:
    return DiscreteFunction(dofmap, np.zeros(dofmap.n_free))


def local_dof_values(f: DiscreteFunction):
    """Per-triangle local DOF values, constrained DOFs as zeros, (nt, nl)."""
    cd = f.space.cell_dofs
    vals = np.where(cd >= 0, f.coeffs[np.maximum(cd, 0)], 0.0)
    return vals


def local_lagrange_coeffs(f: DiscreteFunction):
    """Local P2 Lagrange coefficients of a quadratic-space function, (nt, 6)."""
    loc = local_dof_values(f)
    if f.tag is SpaceTag.MORLEY:
        C = morley_local_basis(f.mesh)
        return np.einsum("tba,ta->tb", C, loc)
    if f.tag in (SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        return loc
    raise ValueError(f"{f.tag} is not a quadratic space")


def to_dgp2(f: DiscreteFunction, dg_map: DofMap | None = None) -> DiscreteFunction:
    """Embed a quadratic-space function into the discontinuous P2 space."""
    if dg_map is None:
        dg_map = build_dof_map(f.mesh, SpaceTag.DG_P2)
    return DiscreteFunction(dg_map, local_lagrange_coeffs(f).ravel())


def locate_subtriangle(basis: HctBasis, t, points):
    """Sub-triangle index of each point (n, 2) inside triangle t.

    The sub-triangle whose smallest barycentric coordinate is largest,
    the first one on a tie.
    """
    lam = barycentric(np.atleast_2d(points)[:, None, :], basis.sub_coords[t])
    return lam.min(axis=-1).argmax(axis=-1)


def evaluate(f: DiscreteFunction, tri: int, bary, order: int = 0):
    """Evaluate value (order 0), gradient (1) or Hessian (2) at one point.

    ``bary`` are barycentric coordinates with respect to triangle ``tri``;
    the point must lie inside it (coordinates >= -1e-12).
    """
    lam = np.asarray(bary, dtype=np.float64)
    if lam.shape != (3,):
        raise ValueError("barycentric point must have 3 components")
    if lam.min() < -1e-12:
        raise ValueError("point lies outside the triangle")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    mesh = f.mesh
    if f.tag is SpaceTag.HCT:
        basis = hct_local_basis(mesh)
        x = lam @ mesh.tri_coords()[tri]
        s = int(locate_subtriangle(basis, tri, x[None])[0])
        xi = basis.to_frame(tri, x)
        loc = local_dof_values(f)[tri]
        poly = basis.coeffs[tri, s] @ loc  # 10 monomial coefficients
        if order == 0:
            return float(monomial_values(xi) @ poly)
        if order == 1:
            return (monomial_gradients(xi).T @ poly) / basis.scale[tri]
        return np.einsum("mij,m->ij", monomial_hessians(xi), poly) / basis.scale[tri] ** 2

    coeffs = local_lagrange_coeffs(f)[tri]
    if order == 0:
        return float(p2_values(lam) @ coeffs)
    g = barycentric_gradients(mesh)[tri : tri + 1]
    if order == 1:
        grads = p2_gradients(lam[None], g)[0]
        return grads.T @ coeffs
    H = p2_hessians(mesh)[tri]
    return np.einsum("aij,a->ij", H, coeffs)


def interpolate_nodal(dofmap: DofMap, fn, grad=None) -> DiscreteFunction:
    """Classical nodal interpolation of a smooth function.

    For the quadratic spaces this uses vertex and edge-midpoint values;
    for HCT it uses vertex values/gradients and edge-midpoint normal
    derivatives (``grad`` required).  Constrained DOFs are dropped.
    """
    mesh = dofmap.mesh
    if dofmap.tag in (SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        vvals = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
        evals = fn(mesh.edge_midpoint[:, 0], mesh.edge_midpoint[:, 1])
        if dofmap.tag is SpaceTag.DG_P2:
            loc = np.concatenate(
                [vvals[mesh.triangles], evals[mesh.tri_edges]], axis=1
            )
            return DiscreteFunction(dofmap, loc.ravel())
        out = np.zeros(dofmap.n_free)
        vd, ed = dofmap.vertex_dofs, dofmap.edge_dofs
        out[vd[vd >= 0]] = vvals[vd >= 0]
        out[ed[ed >= 0]] = evals[ed >= 0]
        return DiscreteFunction(dofmap, out)
    if dofmap.tag is SpaceTag.HCT:
        if grad is None:
            raise ValueError("HCT interpolation needs the gradient callback")
        out = np.zeros(dofmap.n_free)
        vd, ed = dofmap.vertex_dofs, dofmap.edge_dofs
        vvals = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
        vgrad = grad(mesh.vertices[:, 0], mesh.vertices[:, 1])
        keep = vd[:, 0] >= 0
        out[vd[keep, 0]] = vvals[keep]
        out[vd[keep, 1]] = vgrad[keep, 0]
        out[vd[keep, 2]] = vgrad[keep, 1]
        mg = grad(mesh.edge_midpoint[:, 0], mesh.edge_midpoint[:, 1])
        keep = ed >= 0
        out[ed[keep]] = np.einsum("ei,ei->e", mg[keep], mesh.edge_normal[keep])
        return DiscreteFunction(dofmap, out)
    raise ValueError(f"nodal interpolation not defined for {dofmap.tag}")


def prolongate_to_refined(f: DiscreteFunction, fine: Triangulation,
                          fine_dg: DofMap | None = None) -> DiscreteFunction:
    """Exact re-expansion of a quadratic-space function on a red-refined mesh.

    ``fine`` must be one application of ``refine_uniform`` to ``f``'s
    mesh (chain calls for deeper refinement); the result lives in the
    fine DG space since the input may be discontinuous across coarse
    edges.
    """
    if fine_dg is None:
        fine_dg = build_dof_map(fine, SpaceTag.DG_P2)
    par = fine.parent_tri
    coarse = f.mesh
    if par is None or fine.num_triangles != 4 * coarse.num_triangles:
        raise ValueError("fine mesh is not a one-level red refinement of the input mesh")
    coarse_coeffs = local_lagrange_coeffs(f)  # (nt_coarse, 6)
    # fine nodes (3 vertices + 3 edge midpoints) in coarse barycentric coords
    pts = np.concatenate(
        [fine.tri_coords(), fine.edge_midpoint[fine.tri_edges]], axis=1
    )  # (nt_fine, 6, 2)
    lam = barycentric(pts, coarse.tri_coords()[par][:, None])
    vals = np.einsum("tna,ta->tn", p2_values(lam), coarse_coeffs[par])
    return DiscreteFunction(fine_dg, vals.ravel())
