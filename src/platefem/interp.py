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
vectors).  Each matrix is a cell mean (``_cell_mean``): every triangle
applies its local rows to its own DOFs, and a global DOF takes the sum
over the triangles that hold it divided by their number.
"""

from dataclasses import dataclass

import numpy as np

from .fespace import (
    DiscreteFunction,
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
from .sparse import SparseMatrix, ragged_positions

ANALYTIC_EDGE_GAUSS = 5  # exact for normal derivatives of degree <= 9


@dataclass(frozen=True)
class InterpolationReport:
    """Residual record for an operator identity check."""

    max_residual: float
    tolerance: float

    @property
    def ok(self):
        return self.max_residual <= self.tolerance


def _cell_mean(mesh, out_tag, in_tag, L):
    """The cell mean of the local rows ``L`` (nt, n_out, n_in) or (n_out, n_in).

    Cell t maps its ``in_tag`` DOFs to values of its ``out_tag`` DOFs by
    ``L[t]``; a global output DOF takes the sum of those values over the
    cells that hold it, divided by their number.  Constrained DOFs are
    dropped, and so is every entry that sums to zero.
    """
    out_map, in_map = build_dof_map(mesh, out_tag), build_dof_map(mesh, in_tag)
    rows, cols = np.broadcast_arrays(out_map.cell_dofs[:, :, None], in_map.cell_dofs[:, None])
    L = np.broadcast_to(L, rows.shape)
    keep = (rows >= 0) & (cols >= 0) & (L != 0)
    A = SparseMatrix.from_triplets(out_map.n_free, in_map.n_free, rows[keep], cols[keep], L[keep])
    held = out_map.cell_dofs[out_map.cell_dofs >= 0]
    return _without_zeros(A, A.vals / np.bincount(held, minlength=A.nrows)[A.rows])


def _without_zeros(A, vals):
    keep = vals != 0
    return SparseMatrix(A.nrows, A.ncols, A.rows[keep], A.cols[keep], vals[keep])


@derived
def interp_matrix(mesh: Triangulation, tag: SpaceTag) -> SparseMatrix:
    """Averaging interpolation onto the nonconforming space as a matrix.

    Maps coefficients of the space ``tag`` (quadratic spaces or the macro
    space) on ``mesh`` to coefficients of the Morley-type space there.
    """
    if tag is SpaceTag.MORLEY:
        L = np.eye(6)
    elif tag is SpaceTag.HCT:
        # vertex values, and the edge mean of the normal derivative by the
        # exact Simpson rule: 4/6 at the midpoint, nu/6 . gradient at both ends
        L = np.zeros((mesh.num_triangles, 6, 12))
        L[:, [0, 1, 2], [0, 3, 6]] = 1.0
        L[:, [3, 4, 5], [9, 10, 11]] = 4.0 / 6.0
        nu = mesh.edge_normal[mesh.tri_edges] / 6.0
        for i in range(3):     # the d/dx, d/dy DOFs at both ends of edge i
            for v in ((i + 1) % 3, (i + 2) % 3):
                L[:, 3 + i, 3 * v + 1:3 * v + 3] = nu[:, i]
    else:   # DG_P2 and LAGRANGE_P2: the one-sided DOF functionals
        L = morley_dof_matrix(mesh)
    return _cell_mean(mesh, SpaceTag.MORLEY, tag, L)


@derived
def companion_matrix(mesh: Triangulation) -> SparseMatrix:
    """The right-inverse into the C^1 macro space as a sparse matrix.

    The cell mean of the vertex values, the Morley gradients at the
    vertices and 1.5 times the edge means, closed on every edge by
    -1/4 nu . (g_a + g_b) with g the mean gradients at its ends: the
    midpoint slope q(mid) = (6 mean - q(a) - q(b)) / 4 of a quadratic.

    The closure is the product of the closure weights with the cell mean,
    summed one slice of edge rows at a time (Gustavson's row-wise
    product): each slice sorts its own entries of the cell mean followed
    by its closure terms, and expands no more terms than the cell mean
    stores.  Every entry sums the same terms in the same order as one
    sort of all of them would.
    """
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    L = np.zeros((mesh.num_triangles, 12, 6))
    L[:, [0, 3, 6], [0, 1, 2]] = 1.0
    # Gv[t, lv, :, a] is the gradient at local vertex lv of the shape function of DOF a
    Gv = shapes(mesh, SpaceTag.MORLEY, reference_shapes(SpaceTag.MORLEY, np.eye(3), 1))
    L[:, [1, 2, 4, 5, 7, 8]] = Gv.reshape(-1, 6, 6)
    L[:, [9, 10, 11], [3, 4, 5]] = 1.5
    A = _cell_mean(mesh, SpaceTag.HCT, SpaceTag.MORLEY, L)
    del L, Gv

    # the free edges' rows follow the vertex rows, in edge order
    free = hct_map.edge_dofs >= 0
    first = A.nrows - np.count_nonzero(free)
    grad_rows = hct_map.vertex_dofs[mesh.edge_vertices[free], 1:].reshape(-1, 4)  # (a,x) .. (b,y)
    weight = np.repeat(-0.25 * mesh.edge_normal[free], 2, axis=0).reshape(-1, 4)
    indptr = np.searchsorted(A.rows, np.arange(A.nrows + 1))
    # clamped gradients add nothing; an edge's four rows are distinct rows of A,
    # so every edge fits in a slice of A.nnz terms
    terms = np.where(grad_rows >= 0, np.diff(indptr)[grad_rows], 0).sum(axis=1)
    ends = np.concatenate(([0], np.cumsum(terms)))
    parts = [(A.rows[:indptr[first]], A.cols[:indptr[first]], A.vals[:indptr[first]])]
    e0 = 0
    while e0 < terms.size:
        e1 = int(np.searchsorted(ends, ends[e0] + A.nnz, side="right")) - 1
        keep = grad_rows[e0:e1] >= 0
        pos, count = ragged_positions(indptr, grad_rows[e0:e1][keep])
        erows = first + e0 + np.nonzero(keep)[0]
        own = slice(indptr[first + e0], indptr[first + e1])
        S = SparseMatrix.from_triplets(
            A.nrows, A.ncols, np.concatenate([A.rows[own], np.repeat(erows, count)]),
            np.concatenate([A.cols[own], A.cols[pos]]),
            np.concatenate([A.vals[own], np.repeat(weight[e0:e1][keep], count) * A.vals[pos]]))
        S = _without_zeros(S, S.vals)
        parts.append((S.rows, S.cols, S.vals))
        e0 = e1
    return SparseMatrix(A.nrows, A.ncols, *(np.concatenate(p) for p in zip(*parts)))


@derived
def transfer_ic_matrix(mesh: Triangulation) -> SparseMatrix:
    """Transfer onto continuous quadratics: the cell mean of C_T, which
    averages the one-sided midpoint traces."""
    return _cell_mean(mesh, SpaceTag.LAGRANGE_P2, SpaceTag.MORLEY, morley_local_basis(mesh))


# ---------------------------------------------------------------------------
# high-level operator application
# ---------------------------------------------------------------------------

def _analytic_dofs(v, mesh):
    """Vertex values and edge means of the normal derivative of the analytic
    function ``v``, on every vertex and edge of ``mesh``."""
    if mesh is None:
        raise ValueError("mesh is required for analytic input")
    s, w = edge_rule(ANALYTIC_EDGE_GAUSS)
    pa, pb = (mesh.vertices[mesh.edge_vertices[:, k]] for k in (0, 1))
    pts = pa[:, None, :] + s[None, :, None] * (pb - pa)[:, None, :]
    dn = np.einsum("eqi,ei->eq", v.grad(pts[..., 0], pts[..., 1]), mesh.edge_normal)
    return v.value(mesh.vertices[:, 0], mesh.vertices[:, 1]), dn @ w


def morley_interp_avg(v, mesh: Triangulation | None = None) -> DiscreteFunction:
    """Averaging interpolation onto the nonconforming quadratic space.

    ``v`` is a DiscreteFunction (quadratic spaces, the macro space, or
    already nonconforming) or an analytic function with a ``grad``
    callback (then ``mesh`` is required); for globally H^2 input this is
    the classical interpolation.
    """
    if isinstance(v, DiscreteFunction):
        return DiscreteFunction(v.mesh, SpaceTag.MORLEY,
                                interp_matrix(v.mesh, v.tag).matvec(v.coeffs))
    values, means = _analytic_dofs(v, mesh)
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    out = np.zeros(morley_map.n_free)
    for dofs, x in ((morley_map.vertex_dofs, values), (morley_map.edge_dofs, means)):
        out[dofs[dofs >= 0]] = x[dofs >= 0]
    return DiscreteFunction(mesh, SpaceTag.MORLEY, out)


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
        values, means = _analytic_dofs(v, mesh)
        dofs = np.concatenate([values[mesh.triangles], means[mesh.tri_edges]], axis=1)
    C = morley_local_basis(mesh)
    lag = np.einsum("tba,ta->tb", C, dofs)
    return DiscreteFunction(mesh, SpaceTag.DG_P2, lag.ravel())


def companion(v: DiscreteFunction) -> DiscreteFunction:
    """Map a nonconforming function to its C^1 macro-element companion."""
    if v.tag is not SpaceTag.MORLEY:
        raise ValueError("companion expects a function in the nonconforming space")
    return DiscreteFunction(v.mesh, SpaceTag.HCT, companion_matrix(v.mesh).matvec(v.coeffs))


def transfer_ic(v: DiscreteFunction) -> DiscreteFunction:
    """Transfer a nonconforming function onto continuous quadratics."""
    if v.tag is not SpaceTag.MORLEY:
        raise ValueError("transfer expects a function in the nonconforming space")
    return DiscreteFunction(v.mesh, SpaceTag.LAGRANGE_P2,
                            transfer_ic_matrix(v.mesh).matvec(v.coeffs))


def smoother(v: DiscreteFunction) -> DiscreteFunction:
    """The H^2-conforming smoothing J I_M applied to a discrete function."""
    return companion(morley_interp_avg(v))


RIGHT_INVERSE_SEED = 2024
RIGHT_INVERSE_TOL = 1e-11


def verify_right_inverse(mesh: Triangulation, samples: int = 50) -> InterpolationReport:
    """Check that interpolation after the companion is the identity."""
    morley_map = build_dof_map(mesh, SpaceTag.MORLEY)
    J = companion_matrix(mesh)
    I = interp_matrix(mesh, SpaceTag.HCT)
    rng = np.random.default_rng(RIGHT_INVERSE_SEED)
    resid = np.zeros(morley_map.n_free)
    for _ in range(samples):
        u = rng.uniform(-1.0, 1.0, morley_map.n_free)
        r = I.matvec(J.matvec(u)) - u
        resid = np.maximum(resid, np.abs(r))
    return InterpolationReport(float(resid.max()) if resid.size else 0.0, RIGHT_INVERSE_TOL)
