"""Triangle meshes: construction, uniform red refinement, ASCII I/O.

A :class:`Triangulation` stores the full edge combinatorics needed for
interior-penalty assembly: every edge has a fixed orientation with the
unit normal pointing out of its first adjacent triangle ``T+`` (the one
with the smaller index; outward for boundary edges).  The geometry is
computed from the vertices at construction, so a ``dataclasses.replace``
copy with new vertices has their geometry.  Instances are immutable
after construction and safe to share.

Data derived from a mesh (adjacency tables, shape functions, DOF maps,
transfer operators) is computed once per mesh and memoized on it by
:func:`derived`; no other module touches the store.  A refined mesh
starts with an empty store.  Two concurrent first calls may compute the
same entry twice; both results are equal and one of them is kept.  The
same decorator memoizes a matrix's factor (Cholesky or LU) on the matrix
(see ``solve``), so the factor lives exactly as long as its matrix.
"""

import functools
import inspect
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Raised for invalid mesh data or malformed ASCII input."""


def cross2(a, b):
    """z-component of the cross product of 2D vectors (broadcasting)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def barycentric(points, corners):
    """Barycentric coordinates (..., 3) of ``points`` (..., 2) in the
    triangles ``corners`` (..., 3, 2), broadcasting."""
    v0 = corners[..., 0, :]
    d1 = corners[..., 1, :] - v0
    d2 = corners[..., 2, :] - v0
    det = cross2(d1, d2)
    rel = points - v0
    l1 = cross2(rel, d2) / det
    l2 = cross2(d1, rel) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


def derived(fn):
    """Memoize ``fn(owner, *args)`` on its first argument.

    The owner is any object with a ``_cache`` dict: a
    :class:`Triangulation`, or a ``SparseMatrix`` for its factor.  The
    key is ``(fn, *args)``, with arguments passed by name moved to their
    positions; array arguments are keyed by their dtype, shape and
    bytes, so equal arrays share one entry, and other arguments must be
    hashable.  Entries live as long as the owner and are shared by every
    caller, so they must not be mutated.  A call that raises stores
    nothing.  ``memo.cached``, given the same arguments, tells whether
    the entry is already stored, without computing it.
    """
    signature = inspect.signature(fn)

    def lookup(args, kwargs):
        if kwargs:
            args = signature.bind(*args, **kwargs).args
        owner, *rest = args
        key = (fn,) + tuple(
            (a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
            for a in rest
        )
        return owner._cache, key, args

    @functools.wraps(fn)
    def memo(*args, **kwargs):
        store, key, args = lookup(args, kwargs)
        if key not in store:
            store[key] = fn(*args)
        return store[key]

    def cached(*args, **kwargs):
        store, key, _ = lookup(args, kwargs)
        return key in store

    memo.cached = cached
    return memo


@dataclass(frozen=True)
class Triangulation:
    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3) vertex indices, ccw
    edge_vertices: np.ndarray   # (ne, 2) endpoint indices, sorted
    edge_tris: np.ndarray       # (ne, 2) adjacent triangles, [T+, T-], -1 on boundary
    tri_edges: np.ndarray       # (nt, 3) edge index opposite each local vertex
    vertex_is_boundary: np.ndarray
    edge_is_boundary: np.ndarray
    parent_tri: np.ndarray | None = None   # set by refine_uniform
    io_warnings: int = 0
    edge_normal: np.ndarray = field(init=False)     # (ne, 2) unit, out of T+
    edge_midpoint: np.ndarray = field(init=False)   # (ne, 2)
    edge_length: np.ndarray = field(init=False)     # (ne,)  h_E
    tri_area: np.ndarray = field(init=False)        # (nt,)
    tri_diam: np.ndarray = field(init=False)        # (nt,)  h_T
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Compute the geometry from the vertices; raise MeshError unless every
        coordinate is finite, every triangle counterclockwise and the two
        triangles of every interior edge on opposite sides of it."""
        vertices, triangles = self.vertices, self.triangles
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            raise MeshError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
        areas = _signed_areas(vertices, triangles)
        if np.any(areas <= 0):
            bad = int(np.flatnonzero(areas <= 0)[0])
            raise MeshError(f"triangle {bad} is not counterclockwise (signed area {areas[bad]:g})")
        # a counterclockwise triangle runs along its local edge i from local
        # vertex i+1 to i+2; across an interior edge the two runs must be opposite
        forward = triangles[:, [1, 2, 0]] == self.edge_vertices[self.tri_edges, 0]
        runs = np.bincount(self.tri_edges.ravel(), weights=forward.ravel(),
                           minlength=self.num_edges)
        clash = ~self.edge_is_boundary & (runs != 1)
        if np.any(clash):
            e = int(np.argmax(clash))
            raise MeshError(f"triangles {self.edge_tris[e, 0]} and {self.edge_tris[e, 1]} "
                            f"overlap: both lie on one side of edge {e}")

        # every edge has positive length: it is a side of a triangle of positive area
        pa = vertices[self.edge_vertices[:, 0]]
        pb = vertices[self.edge_vertices[:, 1]]
        edge_vec = pb - pa
        edge_length = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
        edge_normal = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / edge_length[:, None]
        edge_midpoint = 0.5 * (pa + pb)
        # flip normals to point out of T+
        p = vertices[triangles]
        flip = np.einsum("ei,ei->e", edge_normal,
                         edge_midpoint - p.mean(axis=1)[self.edge_tris[:, 0]]) < 0
        edge_normal[flip] *= -1.0
        diam = np.linalg.norm(p[:, [2, 0, 1]] - p[:, [1, 2, 0]], axis=2).max(axis=1)
        for name, value in (("edge_normal", edge_normal), ("edge_midpoint", edge_midpoint),
                            ("edge_length", edge_length), ("tri_area", areas),
                            ("tri_diam", diam)):
            object.__setattr__(self, name, value)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edge_vertices.shape[0]

    @property
    def h_max(self):
        return float(self.tri_diam.max())

    def tri_coords(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    @derived
    def vertex_tri_patches(self):
        """Vertex-to-triangle adjacency as (indptr, tris, local_vertex).

        ``tris[indptr[z]:indptr[z+1]]`` are the triangles attached to
        vertex z and ``local_vertex`` the position (0..2) of z in each.
        """
        tri_ids = np.repeat(np.arange(self.num_triangles), 3)
        local_ids = np.tile(np.arange(3), self.num_triangles)
        verts = self.triangles.ravel()
        order = np.argsort(verts, kind="stable")
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, verts + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, tri_ids[order], local_ids[order]

    @derived
    def edge_side_info(self):
        """Local placement of each edge inside its adjacent triangles.

        Returns a dict of (ne, 2) arrays (column 0 for T+, 1 for T-; -1
        where there is no T-): ``local_edge`` (index of the edge within
        tri_edges) and ``local_a``/``local_b`` (local vertex index of the
        edge endpoints edge_vertices[:, 0] / [:, 1]).
        """
        t = np.repeat(np.arange(self.num_triangles), 3)
        i = np.tile(np.arange(3), self.num_triangles)   # local edge i runs from i+1 to i+2
        e = self.tri_edges.ravel()
        side = (self.edge_tris[e, 1] == t).astype(np.int64)
        forward = self.triangles[t, (i + 1) % 3] == self.edge_vertices[e, 0]
        out = {k: np.full((self.num_edges, 2), -1, dtype=np.int64)
               for k in ("local_edge", "local_a", "local_b")}
        out["local_edge"][e, side] = i
        out["local_a"][e, side] = np.where(forward, (i + 1) % 3, (i + 2) % 3)
        out["local_b"][e, side] = np.where(forward, (i + 2) % 3, (i + 1) % 3)
        return out


def _signed_areas(vertices, triangles):
    p = vertices[triangles]
    return 0.5 * cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def build_triangulation(vertices, triangles, parent_tri=None, io_warnings=0):
    """Assemble the full edge combinatorics from vertices and triangles.

    The geometry is computed and checked by the ``Triangulation`` itself.
    """
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if triangles.size == 0:
        raise MeshError("empty mesh")
    nv = vertices.shape[0]
    if triangles.min() < 0 or triangles.max() >= nv:
        raise MeshError("triangle references a nonexistent vertex")

    nt = triangles.shape[0]
    # local edge i is opposite local vertex i
    pairs = np.stack(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=1
    ).reshape(-1, 2)
    keys = np.sort(pairs, axis=1)
    # edges are numbered in lexicographic order of their sorted vertex
    # pairs: one stable sort of the pair codes, cut where the code changes
    code = keys[:, 0] * nv + keys[:, 1]
    order = np.argsort(code, kind="stable")
    code = code[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = code[1:] != code[:-1]
    sorted_edges = np.cumsum(first) - 1
    if np.bincount(sorted_edges).max() > 2:
        raise MeshError("an edge is shared by more than two triangles")
    first_idx = np.flatnonzero(first)
    edge_vertices = keys[order[first_idx]]
    ne = edge_vertices.shape[0]
    inverse = np.empty_like(sorted_edges)
    inverse[order] = sorted_edges
    tri_edges = inverse.reshape(nt, 3)

    edge_tris = np.full((ne, 2), -1, dtype=np.int64)
    sorted_tris = order // 3   # the triangle of each sorted pair
    edge_tris[sorted_edges[first_idx], 0] = sorted_tris[first_idx]
    second_idx = np.flatnonzero(~first)
    edge_tris[sorted_edges[second_idx], 1] = sorted_tris[second_idx]
    # T+ is the adjacent triangle with the smaller index
    interior = edge_tris[:, 1] >= 0
    swap = interior & (edge_tris[:, 0] > edge_tris[:, 1])
    edge_tris[swap] = edge_tris[swap][:, ::-1]

    edge_is_boundary = ~interior
    vertex_is_boundary = np.zeros(nv, dtype=bool)
    vertex_is_boundary[edge_vertices[edge_is_boundary].ravel()] = True
    return Triangulation(
        vertices=vertices,
        triangles=triangles,
        edge_vertices=edge_vertices,
        edge_tris=edge_tris,
        tri_edges=tri_edges,
        vertex_is_boundary=vertex_is_boundary,
        edge_is_boundary=edge_is_boundary,
        parent_tri=parent_tri,
        io_warnings=io_warnings,
    )


def unit_square_mesh(n: int) -> Triangulation:
    """Uniform n-by-n grid on [0,1]^2, each cell split by its SW-NE diagonal."""
    if n < 1:
        raise MeshError("n must be a positive integer")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    v00 = (j * (n + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper
    return build_triangulation(vertices, triangles)


def refine_uniform(mesh: Triangulation) -> Triangulation:
    """Red refinement: each triangle is split into 4 congruent children."""
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    mid = mesh.edge_midpoint
    vertices = np.vstack([mesh.vertices, mid])
    m = nv + mesh.tri_edges  # midpoint vertex index per (tri, local edge)
    a, b, c = mesh.triangles[:, 0], mesh.triangles[:, 1], mesh.triangles[:, 2]
    m0, m1, m2 = m[:, 0], m[:, 1], m[:, 2]
    children = np.empty((4 * nt, 3), dtype=np.int64)
    children[0::4] = np.column_stack([a, m2, m1])
    children[1::4] = np.column_stack([b, m0, m2])
    children[2::4] = np.column_stack([c, m1, m0])
    children[3::4] = np.column_stack([m0, m1, m2])
    parent = np.repeat(np.arange(nt), 4)
    return build_triangulation(vertices, children, parent_tri=parent)


def read_mesh(text: str) -> Triangulation:
    """Parse the ASCII mesh format.

    Line 1: ``nv nt``; then nv lines ``x y``; then nt lines ``i j k``
    (0-based, counterclockwise).  Lines starting with ``#`` are comments.
    Clockwise triangles are reoriented with a warning counted in
    ``Triangulation.io_warnings``; degenerate triangles are an error.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped))
    if not rows:
        raise MeshError("line 0: missing header")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise MeshError(f"line {lineno}: header must be 'nv nt'")
    try:
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MeshError(f"line {lineno}: malformed counts {parts!r}") from exc
    if nv < 3 or nt < 1:
        raise MeshError(f"line {lineno}: empty mesh (nv={nv}, nt={nt})")
    if len(rows) != 1 + nv + nt:
        raise MeshError(
            f"line {lineno}: expected {nv} vertex and {nt} triangle lines, "
            f"found {len(rows) - 1} data lines"
        )
    vertices = np.empty((nv, 2))
    for k in range(nv):
        lineno, line = rows[1 + k]
        parts = line.split()
        if len(parts) != 2:
            raise MeshError(f"line {lineno}: vertex line must be 'x y'")
        try:
            vertices[k] = [float(parts[0]), float(parts[1])]
        except ValueError as exc:
            raise MeshError(f"line {lineno}: malformed vertex {line!r}") from exc
        if not np.isfinite(vertices[k]).all():
            raise MeshError(f"line {lineno}: non-finite vertex {line!r}")
    triangles = np.empty((nt, 3), dtype=np.int64)
    for k in range(nt):
        lineno, line = rows[1 + nv + k]
        parts = line.split()
        if len(parts) != 3:
            raise MeshError(f"line {lineno}: triangle line must be 'i j k'")
        try:
            triangles[k] = [int(p) for p in parts]
        except (ValueError, OverflowError) as exc:   # not an integer, or beyond int64
            raise MeshError(f"line {lineno}: malformed triangle {line!r}") from exc
        if triangles[k].min() < 0 or triangles[k].max() >= nv:
            raise MeshError(f"line {lineno}: dangling vertex index in {line!r}")
    areas = _signed_areas(vertices, triangles)
    scale = np.maximum(vertices.max(axis=0) - vertices.min(axis=0), 1e-300).prod()
    degenerate = np.abs(areas) <= 1e-14 * scale
    if np.any(degenerate):
        k = int(np.flatnonzero(degenerate)[0])
        raise MeshError(f"line {rows[1 + nv + k][0]}: degenerate triangle")
    clockwise = areas < 0
    warnings = int(np.count_nonzero(clockwise))
    triangles[clockwise] = triangles[clockwise][:, ::-1]
    return build_triangulation(vertices, triangles, io_warnings=warnings)


def write_mesh(mesh: Triangulation) -> str:
    """Canonical ASCII form; read_mesh(write_mesh(m)) round-trips."""
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"
