"""Load functionals: plain L^2 densities and the smoothed right-hand side.

The smoothed functional evaluates F on the C^1 image of the averaged
interpolation of the discrete test function, so loads that are only in
H^-2 (point forces) are well defined for the discontinuous schemes.
Point loads always go through the smoothing; the plain functional
refuses them.
"""

from dataclasses import dataclass, field

import numpy as np

from .fespace import (
    DofMap,
    SpaceTag,
    build_dof_map,
    hct_local_basis,
    hct_reference_shapes,
    hct_reference_values,
    hct_rule_points,
    hct_shapes,
    morley_local_basis,
    p2_values,
)
from .functions import ScalarFunction
from .interp import companion_matrix, interp_matrix
from .mesh import Triangulation, barycentric
from .quadrature import triangle_points, triangle_rule

VERTEX_SNAP_TOL = 1e-12


class LoadError(ValueError):
    pass


@dataclass(frozen=True)
class LoadSpec:
    """Right-hand side description.

    ``density`` is a vectorized callable f(x, y) (or a ScalarFunction).
    It receives two float64 arrays of the same shape (rows, nq), one row
    of quadrature points per (sub-)triangle, and returns f at every
    point, as an array of that shape.  ``density_degree`` may declare it
    piecewise polynomial of that total degree, which selects an exact
    quadrature rule.  ``points`` is a sequence of (weight, (x, y)) point
    loads inside the closed domain.
    """

    density: object | None = None
    density_degree: int | None = None
    points: tuple = field(default_factory=tuple)

    def density_fn(self):
        if self.density is None:
            return None
        if isinstance(self.density, ScalarFunction):
            return self.density.value
        return self.density


@dataclass(frozen=True)
class ResolvedPointLoad:
    weight: float
    location: np.ndarray
    triangle: int
    bary: np.ndarray
    vertex: int   # snapped mesh vertex, or -1
    snapped: bool


def locate_point(mesh: Triangulation, xy, tol=1e-10):
    """Containing triangle and barycentric coordinates (first match)."""
    xy = np.asarray(xy, dtype=np.float64)
    lam = barycentric(xy, mesh.tri_coords())
    inside = lam.min(axis=1) >= -tol
    hits = np.flatnonzero(inside)
    if hits.size == 0:
        raise LoadError(f"point load at {xy.tolist()} lies outside the domain")
    t = int(hits[0])
    return t, np.clip(lam[t], 0.0, None) / np.clip(lam[t], 0.0, None).sum()


def resolve_point_loads(mesh: Triangulation, load: LoadSpec):
    """Locate every point load; snaps to mesh vertices within 1e-12."""
    resolved = []
    for weight, xy in load.points:
        xy = np.asarray(xy, dtype=np.float64)
        dists = np.linalg.norm(mesh.vertices - xy[None, :], axis=1)
        v = int(np.argmin(dists))
        if dists[v] <= VERTEX_SNAP_TOL:
            indptr, tris, lv = mesh.vertex_tri_patches()
            t = int(tris[indptr[v]])
            bary = np.zeros(3)
            bary[lv[indptr[v]]] = 1.0
            resolved.append(ResolvedPointLoad(float(weight), xy, t, bary, v, True))
        else:
            t, bary = locate_point(mesh, xy)
            resolved.append(ResolvedPointLoad(float(weight), xy, t, bary, -1, False))
    return resolved


def _hct_functional(mesh, load: LoadSpec, quad_order):
    """The load functional applied to every free DOF of the macro space."""
    hct_map = build_dof_map(mesh, SpaceTag.HCT)
    b = np.zeros(hct_map.n_free)
    fn = load.density_fn()
    if fn is not None:
        if quad_order is None:
            quad_order = 3 + load.density_degree if load.density_degree is not None else 7
        if quad_order < 3:
            raise LoadError("quadrature order below 3 cannot integrate the cubic basis")
        _, w = triangle_rule(quad_order)
        pts = triangle_points(hct_rule_points(quad_order), mesh.tri_coords())
        nt, nq = mesh.num_triangles, w.size
        f = fn(pts[..., 0].reshape(3 * nt, nq), pts[..., 1].reshape(3 * nt, nq))
        wf = (w * np.reshape(f, (nt, 3, nq))).reshape(nt, 3 * nq)
        # the rule points are F_T of fixed reference points, where the shape
        # functions are the tabulated reference ones times E_T
        local = ((wf @ hct_reference_values(quad_order))[:, None, :]
                 @ hct_local_basis(mesh).transform)[:, 0]
        contrib = mesh.tri_area[:, None] / 3.0 * local
        cd = hct_map.cell_dofs
        keep = cd >= 0
        b += np.bincount(cd[keep], contrib[keep], minlength=b.size)
    for pl in resolve_point_loads(mesh, load):
        if pl.snapped:
            dof = hct_map.vertex_dofs[pl.vertex, 0]
            if dof >= 0:
                b[dof] += pl.weight
            continue
        t = pl.triangle
        vals = hct_shapes(mesh, hct_reference_shapes(pl.bary), [t])[0, 0]
        cd = hct_map.cell_dofs[t]
        keep = cd >= 0
        b[cd[keep]] += pl.weight * vals[keep]
    return b


def smoothed_load_vector(mesh: Triangulation, dofmap: DofMap, load: LoadSpec,
                         quad_order: int | None = None) -> np.ndarray:
    """Components F(J I_M phi_i) of the smoothed right-hand side.

    The macro-space functional is assembled once and pulled back through
    the transposed companion and interpolation operators.  For the
    nonconforming space and a point load at a vertex this reduces
    exactly to the nodal shortcut (unit coefficient at that vertex DOF).
    """
    if dofmap.tag is SpaceTag.HCT:
        raise ValueError("assemble loads on the trial space, not the macro space")
    b_hct = _hct_functional(mesh, load, quad_order)
    b_morley = companion_matrix(mesh).rmatvec(b_hct)
    return interp_matrix(dofmap).rmatvec(b_morley)


def plain_load_vector(mesh: Triangulation, dofmap: DofMap, load: LoadSpec,
                      quad_order: int | None = None) -> np.ndarray:
    """Unsmoothed functional int f phi_i, defined for L^2 densities only."""
    if load.points:
        raise LoadError(
            "point loads are not square-integrable (a Dirac delta is not in L2); "
            "use the smoothed load vector"
        )
    fn = load.density_fn()
    if fn is None:
        return np.zeros(dofmap.n_free)
    if quad_order is None:
        quad_order = max(3, 2 + load.density_degree) if load.density_degree is not None else 7
    if quad_order < 3:
        raise LoadError("quadrature order below 3 is rejected")
    bary, w = triangle_rule(quad_order)
    pts = np.einsum("qi,tij->tqj", bary, mesh.tri_coords())
    f = fn(pts[..., 0], pts[..., 1])
    N = p2_values(bary)  # (nq, 6)
    loc = mesh.tri_area[:, None] * np.einsum("q,tq,qa->ta", w, f, N)
    if dofmap.tag is SpaceTag.MORLEY:
        C = morley_local_basis(mesh)
        loc = np.einsum("tba,tb->ta", C, loc)
    elif dofmap.tag not in (SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        raise ValueError(f"plain load vector not defined for {dofmap.tag}")
    b = np.zeros(dofmap.n_free)
    cd = dofmap.cell_dofs
    np.add.at(b, np.maximum(cd, 0), np.where(cd >= 0, loc, 0.0))
    return b
