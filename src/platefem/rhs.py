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
    reference_shapes,
    reference_values,
    rule,
)
from .functions import ScalarFunction
from .interp import companion_matrix, interp_matrix
from .mesh import Triangulation, barycentric
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


def locate_point(mesh: Triangulation, xy):
    """Containing triangle and barycentric coordinates (first match)."""
    xy = np.asarray(xy, dtype=np.float64)
    lam = barycentric(xy, mesh.tri_coords())
    inside = lam.min(axis=1) >= -LOCATE_TOL
    hits = np.flatnonzero(inside)
    if hits.size == 0:
        raise LoadError(f"point load at {xy.tolist()} lies outside the domain")
    t = int(hits[0])
    return t, np.clip(lam[t], 0.0, None) / np.clip(lam[t], 0.0, None).sum()


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
    if dofmap.tag is SpaceTag.HCT:
        raise ValueError("assemble loads on the trial space, not the macro space")
    b = plain_load_vector(mesh, build_dof_map(mesh, SpaceTag.HCT), load, quad_order)
    return interp_matrix(dofmap).rmatvec(companion_matrix(mesh).rmatvec(b))
