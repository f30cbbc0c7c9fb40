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

Every discrete function and shape function is evaluated one way:
reference table x d x_hat/dx pushforward x per-cell transform.  The
reference coordinates are x_hat = (lambda_1, lambda_2).
``reference_shapes`` tabulates the reference functions of a space (the
six P2 Lagrange functions, or the twelve macro functions, which are
solved once on the reference triangle in a scaled monomial frame);
``rule`` and ``reference_values`` give the quadrature points of a space
and its cached tables there.  ``shapes`` pushes derivative axes through
d x_hat / dx and multiplies by the space's ``cell_transform``, which the
loads read too: C_T (``morley_local_basis``) for Morley, the 12x12 DOF
transform E_T for HCT, which corrects the normal derivatives (they are
not affine-covariant), and none for the Lagrange spaces.
``hct_local_basis`` keeps E_T and nothing else per triangle.  The P2
tables of the forms and transfer operators (``p2_hessians``,
``morley_dof_matrix``, the edge traces, the vertex gradients) are read
from the same reference tables, pushed forward per cell.
"""

from dataclasses import dataclass, field
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

_REF_DLAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])   # d lambda / d x_hat


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


def p2_gradients(lam):
    """x_hat gradients of the P2 basis at barycentric points, (..., 6, 2)."""
    lam = np.asarray(lam)
    out = np.empty(lam.shape[:-1] + (6, 2))
    for i in range(3):
        out[..., i, :] = (4.0 * lam[..., i, None] - 1.0) * _REF_DLAM[i]
        j, k = (i + 1) % 3, (i + 2) % 3
        out[..., 3 + i, :] = 4.0 * (
            lam[..., k, None] * _REF_DLAM[j] + lam[..., j, None] * _REF_DLAM[k]
        )
    return out


@derived
def p2_hessians(mesh: Triangulation):
    """Constant Hessians of the P2 basis per triangle, shape (nt, 6, 2, 2)."""
    H = shapes(mesh, SpaceTag.DG_P2, reference_shapes(SpaceTag.DG_P2, np.full(3, 1.0 / 3.0), 2))
    return np.moveaxis(H[:, 0], -1, 1)


_EDGE_MID_BARY = (1.0 - np.eye(3)) / 2.0   # midpoint of the edge opposite vertex i


def morley_dof_matrix(mesh: Triangulation):
    """DOF functionals applied to the local P2 Lagrange basis, (nt, 6, 6).

    Rows 0..2: point values at the vertices.  Rows 3..5: integral mean of
    the normal derivative over edge i (opposite vertex i) with the global
    edge normal; for quadratics this mean equals the midpoint value.
    """
    M = np.zeros((mesh.num_triangles, 6, 6))
    M[:, :3, :3] = np.eye(3)
    grads = shapes(mesh, SpaceTag.DG_P2, reference_shapes(SpaceTag.DG_P2, _EDGE_MID_BARY, 1))
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2)
    M[:, 3:, :] = (normals[:, :, None] @ grads)[:, :, 0]
    return M


@derived
def morley_local_basis(mesh: Triangulation):
    """Morley shape functions as P2 Lagrange coefficients, (nt, 6, 6).

    Column a of ``C[t]`` holds the Lagrange coefficients of the shape
    function dual to local DOF a; for local Morley DOFs ``u`` the local
    Lagrange coefficients are ``C[t] @ u``.  The DOF matrix is
    [[I, 0], [B, D]] with D = diag(d)(J - 2I), J the all-ones 3x3 matrix
    and d_i = 2 grad lambda_i . nu_i, so C = [[I, 0], [-D^-1 B, D^-1]]
    with D^-1 = (J - I) diag(1/d) / 2, in closed form.
    """
    _check_nondegenerate(mesh)
    C = morley_dof_matrix(mesh)   # inverted in place, block by block
    d = -C[:, [3, 4, 5], [3, 4, 5]]
    Dinv = 0.5 * (1.0 - np.eye(3)) / d[:, None, :]
    C[:, 3:, 3:] = Dinv
    C[:, 3:, :3] = -Dinv @ C[:, 3:, :3]
    return C


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

    On triangle T they are psi_hat o F_T^-1 times ``transform[T]`` (E_T):
    psi_hat are the 12 reference shape functions (``reference_shapes``)
    and F_T maps the reference coordinates x_hat = (lambda_1, lambda_2) to x.
    The 12 DOFs are value, d/dx, d/dy at the three vertices, then the normal
    derivative at the three edge midpoints.  ``shapes`` evaluates them.
    """

    transform: np.ndarray    # E_T (nt, 12, 12)
    duality_residual: float  # max |DOF functionals of the basis - identity|


# the reference triangle; edge i runs from P_i+1 to P_i+2
_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REF_CENTER = _REF_VERTICES.mean(axis=0)
_REF_EDGE = _REF_VERTICES[[2, 0, 1]] - _REF_VERTICES[[1, 2, 0]]
_REF_LENGTH = np.linalg.norm(_REF_EDGE, axis=1)
_REF_TANGENT, _REF_SCALE = _REF_EDGE / _REF_LENGTH[:, None], _REF_LENGTH.max()
_REF_NORMAL = _REF_TANGENT @ np.array([[0.0, -1.0], [1.0, 0.0]])   # outward
# barycentric vertices of sub-triangle s = (P_s+1, P_s+2, centroid), (3, 3, 3)
_SUB_BARY = np.stack([np.eye(3)[[1, 2, 0]], np.eye(3)[[2, 0, 1]], np.full((3, 3), 1.0 / 3.0)],
                     axis=1)


@lru_cache(maxsize=None)
def _reference_coeffs():
    """Monomial coefficients (3, 10, 12) of the reference macro basis in the
    frame (x_hat - centroid) / h_hat: the 12 DOF conditions, value and
    gradient ties at the vertices and the centroid and normal-derivative
    ties at the internal sub-edge midpoints (these imply C^1 across the
    sub-edges, checked by the test suite)."""
    xi = (_REF_VERTICES - _REF_CENTER) / _REF_SCALE
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
    """Build the DOF transforms E_T of the macro shape functions.

    The centroid split is affine-invariant, so the macro space of T is the
    reference one composed with F_T^-1; E_T makes it dual to T's DOFs.  The
    check applies T's DOF functionals to psi_hat o F_T^-1, from the reference
    values and gradients at the vertices and edge midpoints, as M_T: a
    residual |M_T E_T - I| above 1e-8 raises ElementError.
    """
    _check_nondegenerate(mesh)
    p = mesh.tri_coords()
    normals = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2) global normals
    E = _hct_dof_transform(np.swapaxes(p[:, 1:] - p[:, :1], 1, 2), normals)   # B_T

    # sub-triangle j+1 holds vertex j, sub-triangle i holds edge i
    G = barycentric_gradients(mesh)[:, 1:]   # d x_hat / dx
    M = np.empty_like(E)
    M[:, [0, 3, 6]] = reference_shapes(SpaceTag.HCT, np.eye(3), 0, [1, 2, 0])
    M[:, [[1, 2], [4, 5], [7, 8]]] = np.einsum(
        "tki,jka->tjia", G, reference_shapes(SpaceTag.HCT, np.eye(3), 1, [1, 2, 0]))
    M[:, 9:] = np.einsum("tkl,til,ika->tia", G, normals,
                         reference_shapes(SpaceTag.HCT, _EDGE_MID_BARY, 1, [0, 1, 2]))
    M = M @ E
    M -= np.eye(12)
    resid = float(np.abs(M, out=M).max())
    if not np.isfinite(resid) or resid > 1e-8:
        raise ElementError(f"HCT construction failed duality check ({resid:.3e})")
    return HctBasis(E, resid)


# ---------------------------------------------------------------------------
# one evaluator for every space: reference table x d x_hat/dx x transform
# ---------------------------------------------------------------------------

def reference_shapes(tag: SpaceTag, bary, order=0, sub=None):
    """The reference shape functions of ``tag`` at barycentric points (P, 3).

    The reference coordinates are x_hat = (lambda_1, lambda_2).  Returns the
    values (P, n), for ``order`` 1 the x_hat gradients (P, 2, n) and for 2
    the x_hat Hessians (P, 2, 2, n): the six P2 Lagrange functions for the
    quadratic spaces, the twelve macro functions for HCT.  A macro function
    is the cubic on the sub-triangle opposite each point's smallest
    coordinate (the first one on a tie), or on sub-triangle ``sub`` (one
    index, or one per point).  Values and gradients agree across the
    sub-edges; a Hessian on a sub-edge is the chosen side's.
    """
    lam = np.reshape(np.asarray(bary, dtype=np.float64), (-1, 3))
    if tag is SpaceTag.HCT:
        sub = lam.argmin(axis=1) if sub is None else np.broadcast_to(sub, lam.shape[:1])
        kernel = (monomial_values, monomial_gradients, monomial_hessians)[order]
        mono = kernel((lam[:, 1:] - _REF_CENTER) / _REF_SCALE) / _REF_SCALE ** order
        coeffs = _reference_coeffs()[sub].reshape((-1,) + (1,) * order + (10, 12))
        return (np.moveaxis(mono, 1, -1)[..., None, :] @ coeffs)[..., 0, :]
    if order == 0:
        return p2_values(lam)
    if order == 1:
        return np.swapaxes(p2_gradients(lam), 1, 2)
    # the gradients are affine in x_hat: their differences between the
    # reference vertices (0, 0), (1, 0) and (0, 1) are the constant Hessians
    g = p2_gradients(np.eye(3))
    return np.repeat((g[1:] - g[0]).transpose(2, 0, 1)[None], len(lam), axis=0)


@lru_cache(maxsize=None)
def rule(tag: SpaceTag, q):
    """Barycentric points and weights, summing to one per triangle, of the
    rule that integrates ``tag``'s functions: ``triangle_rule(q)`` on the
    cell for the quadratic spaces, and on sub-triangle 0, 1, then 2 (each a
    third of the area) for HCT.  Read-only."""
    bary, w = triangle_rule(q)
    if tag is SpaceTag.HCT:
        bary, w = triangle_points(bary, _SUB_BARY).reshape(-1, 3), np.tile(w, 3) / 3.0
    else:
        bary, w = bary.copy(), w.copy()
    bary.flags.writeable = w.flags.writeable = False
    return bary, w


@lru_cache(maxsize=None)
def reference_values(tag: SpaceTag, q, order=0):
    """``reference_shapes`` of derivative ``order`` at the points of
    ``rule(tag, q)``, a macro point on its own sub-triangle.  Read-only."""
    bary = rule(tag, q)[0]
    sub = np.arange(3).repeat(len(bary) // 3) if tag is SpaceTag.HCT else None
    table = reference_shapes(tag, bary, order, sub)
    table.flags.writeable = False
    return table


def pushforward(mesh: Triangulation, order, cells=slice(None)):
    """The chain rule of ``order`` derivative axes on triangles ``cells``.

    Returns D (c, 2^order, 2^order): D[t, (i..), (k..)] is the product over
    axes j of d x_hat_(k_j) / d x_(i_j), so D[t] times x_hat derivatives
    gives the x derivatives on t.
    """
    G = barycentric_gradients(mesh)[cells, 1:]   # d x_hat / dx
    D = np.ones((len(G), 1, 1))
    for _ in range(order):
        D = np.einsum("tIK,tki->tIiKk", D, G).reshape(len(G), 2 * D.shape[1], 2 * D.shape[2])
    return D


def cell_transform(mesh: Triangulation, tag: SpaceTag):
    """The per-cell transform (c, n, n) of ``tag``'s shape functions, which
    multiplies the reference rows: E_T for HCT, C_T for Morley, None for
    DG_P2 and LAGRANGE_P2."""
    if tag is SpaceTag.HCT:
        return hct_local_basis(mesh).transform
    return morley_local_basis(mesh) if tag is SpaceTag.MORLEY else None


def shapes(mesh: Triangulation, tag: SpaceTag, ref, cells=slice(None), dofs=None):
    """The shape functions of ``tag`` on triangles ``cells`` from reference rows.

    ``ref`` comes from ``reference_shapes`` or ``reference_values``.  Its
    shape axis is multiplied by ``cell_transform`` and its derivative axes
    are pushed through d x_hat / dx, giving (c, P, [2, [2,]] n).  Given
    the local DOF values ``dofs`` (c, n), returns that function instead,
    (c, P[, 2[, 2]]): the pushforward and the transform then act on the
    coefficients, and one gemm with the table evaluates them.
    """
    E = cell_transform(mesh, tag)
    D = pushforward(mesh, ref.ndim - 2, cells)
    c, m, P = len(D), D.shape[1], len(ref)
    if dofs is not None:
        coeffs = dofs if E is None else np.einsum("tab,tb->ta", E[cells], dofs)
        W = (D[..., None] * coeffs[:, None, None]).reshape(c * m, m * ref.shape[-1])
        out = (W @ ref.reshape(P, -1).T).reshape(c, m, P).swapaxes(1, 2)
        return out.reshape((c,) + ref.shape[:-1])
    out = (ref.reshape(P, m, -1) if E is None
           else (ref.reshape(P * m, -1) @ E[cells]).reshape(c, P, m, ref.shape[-1]))
    return (D[:, None] @ out).reshape((c,) + ref.shape)


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
    A map holds no mesh; ``check_dof_map`` tells whether it is a mesh's own.
    """

    tag: SpaceTag
    n_free: int
    cell_dofs: np.ndarray
    vertex_dofs: np.ndarray | None = None
    edge_dofs: np.ndarray | None = None


@derived
def build_dof_map(mesh: Triangulation, tag: SpaceTag) -> DofMap:
    """DG_P2 numbers 6 DOFs per cell; every other space numbers k DOFs per
    free vertex (k = 3 for HCT, else 1), then one DOF per free edge."""
    nt, nv = mesh.num_triangles, mesh.num_vertices
    if tag is SpaceTag.DG_P2:
        return DofMap(tag, 6 * nt, np.arange(6 * nt, dtype=np.int64).reshape(nt, 6))
    if tag not in (SpaceTag.MORLEY, SpaceTag.LAGRANGE_P2, SpaceTag.HCT):
        raise ValueError(f"unknown space tag {tag}")
    k = 3 if tag is SpaceTag.HCT else 1
    free = np.concatenate([np.repeat(~mesh.vertex_is_boundary, k), ~mesh.edge_is_boundary])
    n_free = int(np.count_nonzero(free))
    dofs = np.full(free.size, -1, dtype=np.int64)
    dofs[free] = np.arange(n_free)
    vdof, edof = dofs[: k * nv].reshape(nv, k), dofs[k * nv:]
    cell = np.concatenate([vdof[mesh.triangles].reshape(nt, 3 * k), edof[mesh.tri_edges]], axis=1)
    return DofMap(tag, n_free, cell, vdof if k == 3 else vdof[:, 0], edof)


def check_dof_map(mesh: Triangulation, dofmap: DofMap):
    """Raise ValueError unless ``dofmap`` is ``mesh``'s own map, the
    memoized ``build_dof_map(mesh, dofmap.tag)``: a map of another mesh,
    or an equal copy, could number the DOFs differently."""
    if build_dof_map(mesh, dofmap.tag) is not dofmap:
        raise ValueError("DOF map belongs to a different mesh or is a copy; "
                         "pass build_dof_map(mesh, tag)")


@dataclass
class DiscreteFunction:
    """Coefficients over the free DOFs ``space = build_dof_map(mesh, tag)``."""

    mesh: Triangulation
    tag: SpaceTag
    coeffs: np.ndarray
    space: DofMap = field(init=False, repr=False)

    def __post_init__(self):
        self.space = build_dof_map(self.mesh, self.tag)
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.space.n_free,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match "
                f"free DOF count {self.space.n_free}"
            )


def local_dof_values(f: DiscreteFunction, cells=slice(None)):
    """Local DOF values on triangles ``cells``, constrained DOFs as zeros, (c, nl)."""
    cd = f.space.cell_dofs[cells]
    return np.where(cd >= 0, f.coeffs[np.maximum(cd, 0)], 0.0)


def local_lagrange_coeffs(f: DiscreteFunction):
    """Local P2 Lagrange coefficients of a quadratic-space function, (nt, 6)."""
    if f.tag is SpaceTag.HCT:
        raise ValueError(f"{f.tag} is not a quadratic space")
    C, loc = cell_transform(f.mesh, f.tag), local_dof_values(f)
    return loc if C is None else np.einsum("tba,ta->tb", C, loc)


def to_dgp2(f: DiscreteFunction) -> DiscreteFunction:
    """Embed a quadratic-space function into the discontinuous P2 space."""
    return DiscreteFunction(f.mesh, SpaceTag.DG_P2, local_lagrange_coeffs(f).ravel())


def evaluate(f: DiscreteFunction, tri: int, bary, order: int = 0):
    """Evaluate value (order 0), gradient (1) or Hessian (2) at one point.

    ``bary`` are barycentric coordinates with respect to triangle ``tri``;
    the point must lie inside it (coordinates >= -1e-12).  Only the DOFs of
    ``tri`` are read, through ``shapes``.  A macro-space function is
    evaluated on the sub-triangle opposite the smallest coordinate, the
    first one on a tie.
    """
    lam = np.asarray(bary, dtype=np.float64)
    if lam.shape != (3,):
        raise ValueError("barycentric point must have 3 components")
    if lam.min() < -1e-12:
        raise ValueError("point lies outside the triangle")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    loc = local_dof_values(f, [tri])
    out = shapes(f.mesh, f.tag, reference_shapes(f.tag, lam, order), [tri], loc)[0, 0]
    return float(out) if order == 0 else out


def prolongate_to_refined(f: DiscreteFunction, fine: Triangulation) -> DiscreteFunction:
    """Exact re-expansion of a quadratic-space function on a red-refined mesh.

    ``fine`` must be one application of ``refine_uniform`` to ``f``'s
    mesh (chain calls for deeper refinement); the result lives in the
    fine DG space since the input may be discontinuous across coarse
    edges.
    """
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
    N = reference_shapes(SpaceTag.DG_P2, lam).reshape(-1, 6, 6)
    vals = np.einsum("tna,ta->tn", N, coarse_coeffs[par])
    return DiscreteFunction(fine, SpaceTag.DG_P2, vals.ravel())
