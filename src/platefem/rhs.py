"""Load functionals: the plain functional on any space and the smoothed
right-hand side.

``plain_load_vector`` applies a load F to the shape functions of one
space.  Densities are integrated on every space; point loads lie in
H^-2 only, so the macro space, the one H^2-conforming space, is the one
that accepts them.  The smoothed right-hand side F(J I_M phi_i) is that
plain functional on the macro space pulled back through the transposed
companion J and averaging interpolation I_M, so point loads are well
defined for the discontinuous schemes too.
"""

from dataclasses import dataclass, field

import numpy as np

from .fespace import (
    DofMap,
    SpaceTag,
    build_dof_map,
    cell_transform,
    check_dof_map,
    reference_shapes,
    reference_values,
    rule,
)
from .functions import ScalarFunction
from .interp import companion_matrix, interp_matrix
from .mesh import Triangulation, barycentric, derived
from .quadrature import triangle_points

VERTEX_SNAP_TOL = 1e-12
LOCATE_TOL = 1e-10   # locate_point takes a triangle whose barycentrics are >= -LOCATE_TOL


class LoadError(ValueError):
    pass


@dataclass(frozen=True)
class LoadSpec:
    """Right-hand side description.

    ``density`` is a vectorized callable f(x, y) (or a ScalarFunction).
    It receives two float64 arrays of the same shape (rows, nq), one row
    of quadrature points per (sub-)triangle, and returns f at every
    point, as an array of that shape.  ``points`` is a sequence of
    (weight, (x, y)) point loads inside the closed domain; the plain
    functional accepts them on the macro space only.
    """

    density: object | None = None
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
    triangle: int
    bary: np.ndarray
    snapped: bool   # at a corner of ``triangle``: ``bary`` is exactly that corner


@derived
def _bucket_grid(mesh: Triangulation):
    """Triangles by the cells of a grid over the mesh, as (lo, h, shape, indptr, tris).

    The cells are about one triangle in size.  Cell c lists, in index
    order, ``tris[indptr[c]:indptr[c + 1]]``: every triangle whose
    bounding box, widened beyond what barycentrics >= -LOCATE_TOL reach
    outside the triangle, meets the cell.
    """
    p = mesh.tri_coords()
    box_lo = np.minimum(np.minimum(p[:, 0], p[:, 1]), p[:, 2])
    box_hi = np.maximum(np.maximum(p[:, 0], p[:, 1]), p[:, 2])
    size, reach = box_hi - box_lo, np.maximum(-box_lo, box_hi)
    # barycentrics >= -tol reach at most 2 tol diam outside; the rest covers rounding
    margin = (8.0 * LOCATE_TOL * np.maximum(size[:, 0], size[:, 1])
              + 64.0 * np.finfo(float).eps * np.maximum(reach[:, 0], reach[:, 1]))[:, None]
    box_lo, box_hi = box_lo - margin, box_hi + margin
    lo = box_lo.min(axis=0)
    h = np.sqrt(2.0 * mesh.tri_area.mean())
    shape = np.maximum(np.ceil((box_hi.max(axis=0) - lo) / h), 1).astype(np.int64)
    c_lo, c_hi = _grid_cells(box_lo, lo, h, shape), _grid_cells(box_hi, lo, h, shape)
    span = c_hi - c_lo + 1
    count = span.prod(axis=1)
    tris = np.repeat(np.arange(mesh.num_triangles), count)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    ix = c_lo[tris, 0] + k % span[tris, 0]
    iy = c_lo[tris, 1] + k // span[tris, 0]
    cell = ix + iy * shape[0]
    order = np.argsort(cell, kind="stable")     # triangle order within a cell
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cell, minlength=shape.prod()))))
    return lo, h, shape, indptr, tris[order]


def _grid_cells(xy, lo, h, shape):
    """Grid cell (ix, iy) of the points ``xy`` (..., 2), clipped to the grid."""
    return np.clip(np.floor((xy - lo) / h), 0, shape - 1).astype(np.int64)


def locate_point(mesh: Triangulation, xy):
    """Containing triangle and barycentric coordinates: of the triangles
    whose barycentrics are all >= -LOCATE_TOL, the first in mesh order.
    Only the triangles listed in the point's grid cell are tested."""
    xy = np.asarray(xy, dtype=np.float64)
    lo, h, shape, indptr, tris = _bucket_grid(mesh)
    cand = tris[:0]     # a non-finite point lies in no cell
    if np.all(np.isfinite(xy)):
        ix, iy = _grid_cells(xy, lo, h, shape)
        cell = ix + iy * shape[0]
        cand = tris[indptr[cell]:indptr[cell + 1]]
    lam = barycentric(xy, mesh.vertices[mesh.triangles[cand]])
    hits = np.flatnonzero(lam.min(axis=1) >= -LOCATE_TOL)
    if hits.size == 0:
        raise LoadError(f"point load at {xy.tolist()} lies outside the domain")
    lam = np.clip(lam[hits[0]], 0.0, None)
    return int(cand[hits[0]]), lam / lam.sum()


def resolve_point_loads(mesh: Triangulation, load: LoadSpec):
    """Locate every point load; one within 1e-12 of a corner of its
    triangle snaps to that mesh vertex."""
    resolved = []
    for weight, xy in load.points:
        t, bary = locate_point(mesh, xy)
        dists = np.linalg.norm(mesh.vertices[mesh.triangles[t]] - np.asarray(xy, float), axis=1)
        lv = int(np.argmin(dists))
        snapped = bool(dists[lv] <= VERTEX_SNAP_TOL)
        resolved.append(ResolvedPointLoad(float(weight), t, np.eye(3)[lv] if snapped else bary,
                                          snapped))
    return resolved


def plain_load_vector(mesh: Triangulation, dofmap: DofMap, load: LoadSpec,
                      quad_order: int = 7) -> np.ndarray:
    """Components F(phi_i) of the load on every free DOF of ``dofmap``.

    The density is integrated on the points of ``rule(tag, quad_order)``:
    the weighted values meet the reference table in one gemm, then the
    per-cell transform and the area apply.  Point loads (macro space
    only) go through the same transform, and a snapped one is exactly the
    value DOF of its vertex.  Everything is scattered by one bincount.
    """
    check_dof_map(mesh, dofmap)
    tag = dofmap.tag
    if load.points and tag is not SpaceTag.HCT:
        raise LoadError(
            "point loads are not square-integrable (a Dirac delta is not in L2); "
            "use the smoothed load vector"
        )
    dofs, local = [], []
    fn = load.density_fn()
    if fn is not None:
        if quad_order < 3:
            raise LoadError("quadrature order below 3 cannot integrate the cubic basis")
        bary, w = rule(tag, quad_order)
        pts = triangle_points(bary, mesh.tri_coords())
        rows = len(w) // (3 if tag is SpaceTag.HCT else 1)
        f = fn(pts[..., 0].reshape(-1, rows), pts[..., 1].reshape(-1, rows))
        wf = w * np.reshape(f, (mesh.num_triangles, len(w)))
        dofs.append(dofmap.cell_dofs)
        local.append(mesh.tri_area[:, None] * _transformed(
            mesh, tag, wf @ reference_values(tag, quad_order), slice(None)))
    pls = resolve_point_loads(mesh, load)
    if pls:
        tris, bary = np.array([pl.triangle for pl in pls]), np.array([pl.bary for pl in pls])
        snapped = np.array([pl.snapped for pl in pls])
        free, snap = np.flatnonzero(~snapped), np.flatnonzero(snapped)
        vals = np.zeros((len(pls), dofmap.cell_dofs.shape[1]))
        if free.size:   # loads snapped to vertices need no transform
            vals[free] = _transformed(mesh, tag, reference_shapes(tag, bary[free]), tris[free])
        vals[snap, 3 * bary[snap].argmax(axis=1)] = 1.0   # the vertex's value DOF
        dofs.append(dofmap.cell_dofs[tris])
        local.append(np.array([pl.weight for pl in pls])[:, None] * vals)
    if not dofs:
        return np.zeros(dofmap.n_free)
    cd = np.concatenate(dofs)
    keep = cd >= 0
    return np.bincount(cd[keep], np.concatenate(local)[keep], minlength=dofmap.n_free)


def _transformed(mesh, tag, rows, cells):
    """Reference rows (c, n) times ``tag``'s per-cell transform on ``cells``."""
    E = cell_transform(mesh, tag)
    return rows if E is None else (rows[:, None, :] @ E[cells])[:, 0]


def smoothed_load_vector(mesh: Triangulation, dofmap: DofMap, load: LoadSpec,
                         quad_order: int = 7) -> np.ndarray:
    """Components F(J I_M phi_i) of the smoothed right-hand side.

    The plain functional on the macro space, pulled back through the
    transposed companion and interpolation operators.  For the
    nonconforming space and a point load at a vertex this reduces
    exactly to the nodal shortcut (unit coefficient at that vertex DOF).
    """
    check_dof_map(mesh, dofmap)
    if dofmap.tag is SpaceTag.HCT:
        raise ValueError("assemble loads on the trial space, not the macro space")
    b = plain_load_vector(mesh, build_dof_map(mesh, SpaceTag.HCT), load, quad_order)
    return interp_matrix(mesh, dofmap.tag).rmatvec(companion_matrix(mesh).rmatvec(b))
