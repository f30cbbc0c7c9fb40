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
for quadratics, a scaled monomial frame for the macro cubics).  The
macro basis is solved once on a reference triangle and pushed to each
triangle by the affine change of frame and a 12x12 DOF transform, which
corrects the normal derivatives (they are not affine-covariant).
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .mesh import Triangulation, barycentric, derived
from .quadrature import triangle_points, triangle_rule


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
    _check_nondegenerate(mesh)
    return np.linalg.inv(morley_dof_matrix(mesh))


def _check_nondegenerate(mesh):
    ratio = mesh.tri_area / mesh.tri_diam ** 2
    if np.any(ratio < 1e-14):
        raise ElementError(f"triangle {int(np.argmin(ratio))} is numerically degenerate")


# ---------------------------------------------------------------------------
# HCT macro element
# ---------------------------------------------------------------------------

# Cubic monomials x^a y^b (a + b <= 3), ordered 1, x, y, x^2, xy, y^2,
# x^3, x^2 y, x y^2, y^3.  Their derivatives are monomials again:
# d/dx_c of monomial n is the sum over m of _DIFF[c, m, n] times monomial m.
_DIFF = np.zeros((2, 10, 10))
_DIFF[0, [0, 1, 2, 3, 4, 5], [1, 3, 4, 6, 7, 8]] = [1.0, 2.0, 1.0, 3.0, 2.0, 1.0]
_DIFF[1, [0, 1, 2, 3, 4, 5], [2, 4, 5, 7, 8, 9]] = [1.0, 1.0, 2.0, 1.0, 2.0, 3.0]
_DIFF2 = np.einsum("imk,jkn->ijmn", _DIFF, _DIFF)   # d/dx_i d/dx_j


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
    g = monomial_values(xi) @ _DIFF.transpose(1, 0, 2).reshape(10, 20)
    return np.swapaxes(g.reshape(g.shape[:-1] + (2, 10)), -1, -2)


def monomial_hessians(xi):
    """Second derivatives of the cubic monomials, (..., 10, 2, 2)."""
    H = monomial_values(xi) @ _DIFF2.transpose(2, 0, 1, 3).reshape(10, 40)
    return np.moveaxis(H.reshape(H.shape[:-1] + (2, 2, 10)), -1, -3)


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
    jacobian: np.ndarray   # (nt, 2, 2) B_T of x = c_T + B_T (x_hat - c_hat)
    normals: np.ndarray    # (nt, 3, 2) the normals of the edge DOFs
    duality_residual: float  # max |DOF functionals of the basis - identity|

    @property
    def transform(self):
        """E_T (nt, 12, 12): the basis is psi_hat o F_T^-1 times E_T.  Rebuilt
        on each call; kept, it would hold 9.4 MB per mesh of 8192 triangles."""
        return _hct_dof_transform(self.jacobian, self.normals)

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


def _sub_triangles(p):
    """Sub-triangle s = (P_s+1, P_s+2, centroid) of triangles p (..., 3, 2)."""
    c = np.broadcast_to(p.mean(axis=-2, keepdims=True), p.shape)
    return np.stack([p[..., [1, 2, 0], :], p[..., [2, 0, 1], :], c], axis=-2)


# the reference triangle; edge i runs from P_i+1 to P_i+2
_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REF_EDGE = _REF_VERTICES[[2, 0, 1]] - _REF_VERTICES[[1, 2, 0]]
_REF_LENGTH = np.linalg.norm(_REF_EDGE, axis=1)
_REF_TANGENT, _REF_SCALE = _REF_EDGE / _REF_LENGTH[:, None], _REF_LENGTH.max()
_REF_NORMAL = _REF_TANGENT @ np.array([[0.0, -1.0], [1.0, 0.0]])   # outward


@lru_cache(maxsize=None)
def _reference_coeffs():
    """Monomial coefficients (3, 10, 12) of the reference macro basis: the
    12 DOF conditions, value and gradient ties at the vertices and the
    centroid and normal-derivative ties at the internal sub-edge midpoints
    (these imply C^1 across the sub-edges, checked by the test suite)."""
    xi = (_REF_VERTICES - _REF_VERTICES.mean(axis=0)) / _REF_SCALE
    A = np.zeros((30, 30))

    def put(row, rows, s1, s2=None):   # rows on sub-triangle s1, negated on s2
        A[row:row + len(rows), 10 * s1:10 * s1 + 10] = rows
        if s2 is not None:
            A[row:row + len(rows), 10 * s2:10 * s2 + 10] = -rows

    def value_and_gradient(x):
        return np.vstack([monomial_values(x), monomial_gradients(x).T / _REF_SCALE])

    for j in range(3):
        put(3 * j, value_and_gradient(xi[j]), (j + 1) % 3)          # DOF rows 0..8
        mid = 0.5 * (xi[(j + 1) % 3] + xi[(j + 2) % 3])           # DOF rows 9..11
        put(9 + j, (monomial_gradients(mid) @ _REF_NORMAL[j] / _REF_SCALE)[None], j)
        put(12 + 3 * j, value_and_gradient(xi[j]), (j + 1) % 3, (j + 2) % 3)
        n = np.array([xi[j, 1], -xi[j, 0]]) / np.linalg.norm(xi[j])  # sub-edge centroid-P_j
        put(27 + j, (monomial_gradients(0.5 * xi[j]) @ n / _REF_SCALE)[None], (j + 1) % 3,
            (j + 2) % 3)
    put(21, value_and_gradient(np.zeros(2)), 0, 1)                  # centroid ties
    put(24, value_and_gradient(np.zeros(2)), 1, 2)
    return np.linalg.solve(A, np.eye(30, 12)).reshape(3, 10, 12)


@lru_cache(maxsize=None)
def hct_reference_values(quad_order):
    """Reference shape values (3 nq, 12) at the ``triangle_rule(quad_order)``
    points of sub-triangle 0, 1, then 2 (the order of ``sub_points``)."""
    bary, _ = triangle_rule(quad_order)
    xi = triangle_points(bary, _sub_triangles(_REF_VERTICES)) - _REF_VERTICES.mean(axis=0)
    table = (monomial_values(xi / _REF_SCALE) @ _reference_coeffs()).reshape(-1, 12)
    table.flags.writeable = False
    return table


def _monomial_substitution(A):
    """(nt * 10, 10): row (t, n), column m is the coefficient of xi^n in (A_t xi)^m,
    block diagonal by degree: with x, y the components of A_t xi, x^(d-k) y^k
    is x^(d-1-k) y^k times x, and y^d is y^(d-1) times y."""
    nt = A.shape[0]
    S = np.zeros((nt, 10, 10))
    S[:, 0, 0] = 1.0
    prev = S[:, :1, :1]
    for d in (1, 2, 3):
        lo = d * (d + 1) // 2
        block = S[:, lo:lo + d + 1, lo:lo + d + 1]
        block[:, :d, :d] = A[:, 0, 0, None, None] * prev
        block[:, 1:, :d] += A[:, 0, 1, None, None] * prev
        block[:, :d, d] = A[:, 1, 0, None] * prev[:, :, d - 1]
        block[:, 1:, d] += A[:, 1, 1, None] * prev[:, :, d - 1]
        prev = block
    return S.reshape(nt * 10, 10)


def _hct_dof_transform(B, normals):
    """DOF transform E_T (nt, 12, 12) of x = c_T + B_T (x_hat - c_hat).

    The DOFs of psi_hat o F_T^-1 are M_T times the reference ones and
    E_T = M_T^-1 (Kirby, SMAI J. Comput. Math. 2018): values pass, gradients
    go through B_T^T.  With B_T^-1 nu_i = alpha_i n_i + beta_i t_i, the
    normal derivative at the midpoint of edge i is alpha_i times the
    reference one plus beta_i times the tangential derivative of the cubic
    Hermite trace, 1.5 (u(P_k) - u(P_j)) / |e_i| - 0.25 t_i . (grad u(P_j)
    + grad u(P_k)); row 9+i inverts that."""
    det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    nx, ny = normals[..., 0] / det[:, None], normals[..., 1] / det[:, None]
    px = B[:, 1, 1, None] * nx - B[:, 0, 1, None] * ny    # B^-1 nu_i = (px, py)[:, i]
    py = B[:, 0, 0, None] * ny - B[:, 1, 0, None] * nx
    alpha = px * _REF_NORMAL[:, 0] + py * _REF_NORMAL[:, 1]
    ratio = (px * _REF_TANGENT[:, 0] + py * _REF_TANGENT[:, 1]) / alpha
    tangent = B[:, None, :, 0] * _REF_TANGENT[:, :1] + B[:, None, :, 1] * _REF_TANGENT[:, 1:]
    ends = 3 * np.array([[1, 2], [2, 0], [0, 1]])   # value DOFs of the ends of edge i
    grad, edge = np.array([[1, 2], [4, 5], [7, 8]]), np.arange(9, 12)[:, None]
    E = np.zeros((B.shape[0], 12, 12))
    E[:, [0, 3, 6], [0, 3, 6]] = 1.0
    E[:, grad[:, :, None], grad[:, None, :]] = B.transpose(0, 2, 1)[:, None]
    E[:, edge[:, 0], edge[:, 0]] = 1.0 / alpha
    E[:, edge, ends] = (1.5 / _REF_LENGTH * ratio)[..., None] * [1.0, -1.0]
    E[:, edge, (ends[..., None] + [1, 2]).reshape(3, 4)] = np.tile(
        0.25 * ratio[..., None] * tangent, 2)
    return E


@derived
def hct_local_basis(mesh: Triangulation) -> HctBasis:
    """Build the 12 macro shape functions on every triangle.

    The centroid split is affine-invariant, so the macro space of T is the
    reference one composed with F_T^-1.  Both frames are centred at the
    centroid, so xi_hat = (h_T / h_hat) B_T^-1 xi is linear and carries the
    reference coefficients to T in one gemm per sub-triangle; E_T makes
    them dual to T's DOFs.  A duality residual above 1e-8 raises ElementError.
    """
    _check_nondegenerate(mesh)
    nt = mesh.num_triangles
    p = mesh.tri_coords()
    center = p.mean(axis=1)
    scale = mesh.tri_diam
    d = p - p[:, :1]   # B_T and the duality check below both read these differences
    B = np.stack([d[:, 1], d[:, 2]], axis=2)
    Binv = barycentric_gradients(mesh)[:, 1:]   # x_hat = (lambda_1, lambda_2)
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2) global normals
    E = _hct_dof_transform(B, normals)
    St = _monomial_substitution((scale / _REF_SCALE)[:, None, None] * Binv)
    coeffs = np.empty((nt, 3, 10, 12))
    for s in range(3):
        np.matmul((St @ _reference_coeffs()[s]).reshape(nt, 10, 12), E, out=coeffs[:, s])

    # sub-triangle s holds vertex s+2 and edge s: the value, gradient and
    # normal-derivative rows there, applied to the basis, are rows of I
    xi_v = (d - d.mean(axis=1, keepdims=True)) / scale[:, None, None]
    vert = xi_v[:, [2, 0, 1]]
    pts = np.stack([vert, 0.5 * (xi_v[:, [1, 2, 0]] + vert)], axis=2)
    g = np.swapaxes(monomial_gradients(pts), 3, 4) / scale[:, None, None, None, None]
    dn = g[:, :, 1, 0] * normals[..., :1] + g[:, :, 1, 1] * normals[..., 1:]
    dofs = np.concatenate([monomial_values(vert)[:, :, None], g[:, :, 0], dn[:, :, None]],
                          axis=2) @ coeffs
    dofs -= np.eye(12)[[[6, 7, 8, 9], [0, 1, 2, 10], [3, 4, 5, 11]]]
    resid = float(np.abs(dofs, out=dofs).max())
    if not np.isfinite(resid) or resid > 1e-8:
        raise ElementError(f"HCT construction failed duality check ({resid:.3e})")
    return HctBasis(center, scale, _sub_triangles(p), coeffs, B, normals, resid)


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
