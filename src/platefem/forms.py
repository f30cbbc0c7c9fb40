"""Assembly of the bilinear forms of the four plate schemes.

All forms act on piecewise quadratics (possibly restricted to the
continuous or nonconforming subspaces); integrands are polynomial, so
every integral is computed with an exact rule:

* ``a_pw``  - sum_T int_T D^2 v : D^2 w dx (Hessians constant per cell).
* ``J``     - sum_E int_E [grad v] . <D^2 w> nu ds (consistency form).
* ``c_dg``  - sigma1/h^3 value jumps + sigma2/h normal-slope jumps.
* ``c_ip``  - sigma_ip/h normal-slope jumps only.
* ``c_p``   - h^-4 endpoint value jumps + h^-2 edge-mean slope jumps
  (point functionals, no quadrature at all).

Jumps on boundary edges use the single trace (homogeneous clamped
boundary conditions are imposed weakly through them).

Every form is a set of dense blocks: 6x6 per cell for ``a_pw`` and
12x12 per edge (both sides' DOFs) for the edge forms.  The sparsity
pattern of each block set is built once per (mesh, space) and memoized
with ``derived``.  A form sums its block values onto its pattern with
``np.add.reduceat`` in the stable order of the entries, which are the
sums that sorting its triplets gives, so nothing is sorted per form.
The edge pattern contains every cell block, so ``assemble_scheme`` adds
the forms entrywise on it.  Symmetry is checked in O(nnz) through the
pattern's memoized transpose index.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fespace import (
    DiscreteFunction,
    DofMap,
    SpaceTag,
    build_dof_map,
    local_lagrange_coeffs,
    morley_local_basis,
    p2_hessians,
    pushforward,
    reference_shapes,
)
from .mesh import Triangulation, derived
from .quadrature import edge_rule
from .sparse import SparseMatrix, transpose_index

EDGE_GAUSS = 3  # exact for edge integrands of degree <= 5 (value jumps: 4)


class SchemeTag(Enum):
    MORLEY = "morley"
    DG = "dg"
    C0IP = "c0ip"
    WOPSIP = "wopsip"


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection and stabilization parameters.

    The penalties only need to be 'large enough' for coercivity and are
    otherwise free; the defaults were calibrated on the structured mesh
    family so that the desk-scale convergence studies sit well inside
    their rate brackets while keeping a comfortable coercivity margin
    (measured constant ~0.4 for the discontinuous scheme).
    """

    scheme: SchemeTag = SchemeTag.MORLEY
    theta: float = 1.0
    sigma1: float = 35.0
    sigma2: float = 10.0
    sigma_ip: float = 20.0
    quad_order: int = 7

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [-1, 1]")
        if min(self.sigma1, self.sigma2, self.sigma_ip) <= 0.0:
            raise ValueError("penalty parameters must be positive")
        if self.quad_order < 3:
            raise ValueError("quadrature order must be at least 3")

    @property
    def space_tag(self):
        return {
            SchemeTag.MORLEY: SpaceTag.MORLEY,
            SchemeTag.DG: SpaceTag.DG_P2,
            SchemeTag.C0IP: SpaceTag.LAGRANGE_P2,
            SchemeTag.WOPSIP: SpaceTag.DG_P2,
        }[self.scheme]

    @property
    def symmetric(self):
        return self.scheme in (SchemeTag.MORLEY, SchemeTag.WOPSIP) or self.theta == 1.0


# ---------------------------------------------------------------------------
# edge trace tables
# ---------------------------------------------------------------------------

@derived
def edge_traces(mesh: Triangulation, params):
    """P2 basis traces on both sides of every edge at parameters ``params``.

    ``params`` are positions in [0,1] along the edge from its first to
    its second stored endpoint.  Returns a dict with, per side, basis
    values ``N`` (ne, nq, 6), gradients ``G`` (ne, nq, 6, 2) and the
    all-edges interior mask; side 1 arrays are zero on boundary edges.
    A side running from local vertex a to b reads the reference table of
    the points lambda_a = 1 - s, lambda_b = s, and its gradients are
    pushed forward by one batched matmul.
    """
    params = np.asarray(params, dtype=np.float64)
    info = mesh.edge_side_info()
    nq = params.size
    eye = np.eye(3)
    lam = (eye[:, None, None] * (1.0 - params)[:, None]
           + eye[None, :, None] * params[:, None]).reshape(-1, 3)   # [a, b, q]
    N_ref = reference_shapes(SpaceTag.DG_P2, lam).reshape(3, 3, nq, 6)
    G_ref = reference_shapes(SpaceTag.DG_P2, lam, 1).reshape(3, 3, nq, 2, 6).swapaxes(3, 4)
    out = {"interior": ~mesh.edge_is_boundary}
    for side in range(2):
        t = mesh.edge_tris[:, side]
        valid = t >= 0
        ts = np.maximum(t, 0)
        a, b = (np.maximum(info[k][:, side], 0) for k in ("local_a", "local_b"))
        N = N_ref[a, b]
        G = G_ref[a, b] @ pushforward(mesh, 1, ts).swapaxes(1, 2)[:, None]
        N[~valid] = G[~valid] = 0.0
        out.update({f"N{side}": N, f"G{side}": G, f"t{side}": ts, f"valid{side}": valid})
    return out


def _jump_rows(traces, kind, normals=None):
    """Jump functional rows over the combined 12 DOFs of both edge sides.

    kind 'value' -> [v] (ne, nq, 12); 'dnormal' -> [dv/dnu] (ne, nq, 12).
    Boundary edges carry the single trace (side-1 rows are zero there).
    """
    if kind == "value":
        return np.concatenate([traces["N0"], -traces["N1"]], axis=2)
    if kind == "dnormal":
        gn0 = np.einsum("eqai,ei->eqa", traces["G0"], normals, optimize=True)
        gn1 = np.einsum("eqai,ei->eqa", traces["G1"], normals, optimize=True)
        return np.concatenate([gn0, -gn1], axis=2)
    raise ValueError(kind)


def _hess_avg_rows(mesh, traces):
    H = p2_hessians(mesh)
    nu = mesh.edge_normal
    Hn0 = np.einsum("eaij,ej->eai", H[traces["t0"]], nu)
    Hn1 = np.einsum("eaij,ej->eai", H[traces["t1"]], nu)
    Hn1[~traces["valid1"]] = 0.0
    w1 = np.where(traces["interior"], 0.5, 1.0)[:, None, None]
    return np.concatenate([w1 * Hn0, w1 * Hn1], axis=1)  # (ne, 12, 2)


def _space_local_hessian_matrix(mesh, dofmap):
    """Local stiffness |T| (D^2 psi_a : D^2 psi_b) in the space basis."""
    H = p2_hessians(mesh)
    K = np.einsum("taij,tbij->tab", H, H, optimize=True) * mesh.tri_area[:, None, None]
    if dofmap.tag is SpaceTag.MORLEY:
        C = morley_local_basis(mesh)
        K = C.transpose(0, 2, 1) @ K @ C
    return K


# ---------------------------------------------------------------------------
# block patterns
# ---------------------------------------------------------------------------

def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _slot_index(a, slots):
    """Indices ``a`` into ``slots`` positions, as int32 when they fit."""
    return a.astype(np.int32 if slots < 2 ** 31 else np.int64)


@dataclass(frozen=True)
class BlockPattern:
    """Entries of one block set and the order in which its slots sum.

    Slot ``(k, a, b)`` of a block array adds to the entry
    ``(dofs[k, a], dofs[k, b])``; slots with a constrained DOF are
    dropped.  ``rows``/``cols`` list the entries row-major and
    ``tperm[k]`` is the position of entry k's transpose.  ``gather``
    lists the kept slots sorted stably by entry and ``starts`` the first
    of each entry's slots, so :meth:`reduce` adds every entry's slots in
    slot order, the sums that sorting the triplets gives.  All arrays
    are shared and read-only; ``tperm``, ``gather`` and ``starts`` are
    int32 unless the block set has 2^31 slots or more.
    """

    dofmap: DofMap
    rows: np.ndarray
    cols: np.ndarray
    tperm: np.ndarray
    gather: np.ndarray
    starts: np.ndarray

    def reduce(self, blocks):
        """Entry values of the block array ``blocks`` (one value per slot)."""
        return np.add.reduceat(blocks.reshape(-1)[self.gather], self.starts)

    def matrix(self, vals, symmetric=False):
        n = self.dofmap.n_free
        A = SparseMatrix(n, n, self.rows, self.cols, vals, symmetric)
        if symmetric:
            A._check_symmetry(self.tperm)
        return A


@derived
def _block_pattern(mesh: Triangulation, tag: SpaceTag, kind) -> BlockPattern:
    """Pattern of the ``"cell"`` blocks (one per triangle, its 6 DOFs) or
    the ``"edge"`` blocks (one per edge, the 6 DOFs of its first triangle
    then the 6 of its second, none on the boundary) of the space ``tag``.
    """
    dofmap = build_dof_map(mesh, tag)
    n, dofs = dofmap.n_free, dofmap.cell_dofs
    if kind == "edge":
        t = mesh.edge_tris
        side1 = np.where((t[:, 1] >= 0)[:, None], dofs[t[:, 1]], -1)
        dofs = np.concatenate([dofs[t[:, 0]], side1], axis=1)
    m = dofs.shape[1]
    rows = np.repeat(dofs, m, axis=1).ravel()   # slot (k, a, b) -> dofs[k, a]
    cols = np.tile(dofs, (1, m)).ravel()        # slot (k, a, b) -> dofs[k, b]
    gather = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys = rows[gather] * n + cols[gather]      # int64: n^2 passes 2^31 for DG at n=64
    del rows, cols                              # 2 x 8 bytes per slot, freed before the sort
    order = np.argsort(keys, kind="stable")     # the order of lexsort((cols, rows))
    gather, keys = gather[order], keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    rows, cols = np.divmod(keys[starts], n)
    tperm = transpose_index(n, rows, cols)
    tperm, gather, starts = (_slot_index(a, dofs.size * m) for a in (tperm, gather, starts))
    return BlockPattern(dofmap, *_frozen(rows, cols, tperm, gather, starts))


@derived
def _cell_positions(mesh: Triangulation, tag: SpaceTag):
    """Position of each cell-pattern entry among the edge-pattern entries.

    A triangle is a side of each of its edges, so every cell block lies
    inside an edge block: the edge pattern is the whole system's pattern.
    """
    cell, edge = _block_pattern(mesh, tag, "cell"), _block_pattern(mesh, tag, "edge")
    n = cell.dofmap.n_free
    pos = np.searchsorted(edge.rows * n + edge.cols, cell.rows * n + cell.cols)
    pos = _slot_index(pos, edge.rows.size)
    _frozen(pos)
    return pos


def _reduce(mesh, dofmap, kind, blocks, symmetric=False):
    """The form with block values ``blocks`` on the ``kind`` block set."""
    pattern = _block_pattern(mesh, dofmap.tag, kind)
    if pattern.dofmap is not dofmap:
        raise ValueError("forms are assembled on the mesh's own DOF map (build_dof_map)")
    return pattern.matrix(pattern.reduce(blocks), symmetric)


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

def _check_mesh(mesh, dofmap):
    if dofmap.mesh is not mesh:
        raise ValueError("DOF map belongs to a different mesh")


def assemble_apw(mesh: Triangulation, dofmap: DofMap) -> SparseMatrix:
    """Piecewise Hessian energy form; exact since P2 Hessians are constant."""
    _check_mesh(mesh, dofmap)
    if dofmap.tag not in (SpaceTag.MORLEY, SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        raise ValueError("energy form is assembled on the quadratic spaces")
    K = _space_local_hessian_matrix(mesh, dofmap)
    return _reduce(mesh, dofmap, "cell", K, symmetric=True)


def assemble_jump_form(mesh: Triangulation, dofmap: DofMap) -> SparseMatrix:
    """Consistency form sum_E int_E [grad v] . <D^2 w> nu_E ds.

    Returned matrix B satisfies (B u) . w = form(u, w) with the trial
    function u in the gradient-jump slot.
    """
    _check_mesh(mesh, dofmap)
    if dofmap.tag not in (SpaceTag.DG_P2, SpaceTag.LAGRANGE_P2):
        raise ValueError("consistency form lives on the discontinuous/continuous P2 spaces")
    s, w = edge_rule(EDGE_GAUSS)
    traces = edge_traces(mesh, s)
    Jg = np.concatenate([traces["G0"], -traces["G1"]], axis=2)  # (ne, nq, 12, 2)
    Hn = _hess_avg_rows(mesh, traces)
    block = (Hn * mesh.edge_length[:, None, None]) @ np.einsum("q,eqji->eij", w, Jg)
    return _reduce(mesh, dofmap, "edge", block)


def assemble_cdg(mesh: Triangulation, dofmap: DofMap,
                 sigma1: float, sigma2: float) -> SparseMatrix:
    """Interior-penalty stabilization with value and normal-slope jumps."""
    _check_mesh(mesh, dofmap)
    if min(sigma1, sigma2) <= 0:
        raise ValueError("penalties must be positive")
    s, w = edge_rule(EDGE_GAUSS)
    traces = edge_traces(mesh, s)
    Jv = _jump_rows(traces, "value")
    Jn = _jump_rows(traces, "dnormal", mesh.edge_normal)
    h = mesh.edge_length
    block = sigma1 * (Jv.transpose(0, 2, 1) * (w / h[:, None, None] ** 2)) @ Jv
    block += sigma2 * (Jn.transpose(0, 2, 1) * w) @ Jn
    return _reduce(mesh, dofmap, "edge", block, symmetric=True)


def assemble_cip(mesh: Triangulation, dofmap: DofMap, sigma_ip: float) -> SparseMatrix:
    """Normal-slope jump penalty for the continuous quadratic scheme."""
    _check_mesh(mesh, dofmap)
    if dofmap.tag is not SpaceTag.LAGRANGE_P2:
        raise ValueError("this penalty is assembled on the continuous P2 space")
    if sigma_ip <= 0:
        raise ValueError("penalty must be positive")
    s, w = edge_rule(EDGE_GAUSS)
    traces = edge_traces(mesh, s)
    Jn = _jump_rows(traces, "dnormal", mesh.edge_normal)
    block = (Jn.transpose(0, 2, 1) * (sigma_ip * w)) @ Jn
    return _reduce(mesh, dofmap, "edge", block, symmetric=True)


def assemble_cp(mesh: Triangulation, dofmap: DofMap) -> SparseMatrix:
    """Over-penalized point jumps: h^-4 at edge endpoints, h^-2 edge means.

    Evaluated from DOF/trace arithmetic only; its kernel within the
    discontinuous quadratics is exactly the nonconforming space.
    """
    _check_mesh(mesh, dofmap)
    if dofmap.tag is not SpaceTag.DG_P2:
        raise ValueError("the over-penalized form is assembled on the DG space")
    traces = edge_traces(mesh, np.array([0.0, 1.0, 0.5]))
    Jv = _jump_rows(traces, "value")[:, :2]          # endpoint value jumps
    Jn = _jump_rows(traces, "dnormal", mesh.edge_normal)[:, 2]  # midpoint = mean
    h = mesh.edge_length
    block = (Jv.transpose(0, 2, 1) / h[:, None, None] ** 4) @ Jv
    block += (Jn / h[:, None] ** 2)[:, :, None] * Jn[:, None, :]
    return _reduce(mesh, dofmap, "edge", block, symmetric=True)


def matrix_config(config: SchemeConfig) -> SchemeConfig:
    """``config`` with the fields its matrix does not read at their defaults."""
    reads = {SchemeTag.DG: ("theta", "sigma1", "sigma2"),
             SchemeTag.C0IP: ("theta", "sigma_ip")}.get(config.scheme, ())
    return SchemeConfig(config.scheme, **{f: getattr(config, f) for f in reads})


def assemble_scheme(mesh: Triangulation, config: SchemeConfig):
    """System matrix and DOF map of the configured scheme.

    The forms are summed entrywise on the edge pattern, in the order
    a_pw + (-theta B - B^T) + c_h (a_pw + c_p for WOPSIP).  They read
    ``matrix_config(config)`` only, so that config keys the matrix.
    """
    config = matrix_config(config)
    dofmap = build_dof_map(mesh, config.space_tag)
    A = assemble_apw(mesh, dofmap)
    if config.scheme is SchemeTag.MORLEY:
        return A, dofmap
    pattern = _block_pattern(mesh, dofmap.tag, "edge")
    # -0.0 + x is exactly x, signed zeros included, so an entry a_pw does
    # not store takes the edge forms' sum unchanged
    vals = np.full(pattern.rows.size, -0.0)
    vals[_cell_positions(mesh, dofmap.tag)] = A.vals
    if config.scheme is SchemeTag.WOPSIP:
        return pattern.matrix(vals + assemble_cp(mesh, dofmap).vals, symmetric=True), dofmap
    B = assemble_jump_form(mesh, dofmap)
    vals = vals + (-config.theta * B.vals - B.vals[pattern.tperm])
    if config.scheme is SchemeTag.DG:
        C = assemble_cdg(mesh, dofmap, config.sigma1, config.sigma2)
    else:
        C = assemble_cip(mesh, dofmap, config.sigma_ip)
    return pattern.matrix(vals + C.vals, config.symmetric), dofmap


# ---------------------------------------------------------------------------
# jump functionals (exact DOF/trace arithmetic)
# ---------------------------------------------------------------------------

def jump_seminorm(f: DiscreteFunction) -> float:
    """j_h: endpoint value jumps (weight h^-1) and edge-mean slope jumps.

    j_h(v)^2 = sum_E sum_{z in V(E)} h_E^-2 [v]_E(z)^2
             + sum_E ( mean_E [dv/dnu] )^2, single traces on the boundary.
    """
    vjump, njump = _point_jumps(f)
    h = f.mesh.edge_length
    return float(np.sqrt(np.sum(vjump ** 2 / h[:, None] ** 2) + np.sum(njump ** 2)))


def _edge_local_coeffs(f: DiscreteFunction, traces):
    lag = local_lagrange_coeffs(f)
    loc = np.concatenate([lag[traces["t0"]], lag[traces["t1"]]], axis=1)
    loc[~traces["valid1"], 6:] = 0.0
    return loc


def _point_jumps(f: DiscreteFunction):
    """Endpoint value jumps (ne, 2) and edge-mean normal-slope jumps (ne,)."""
    mesh = f.mesh
    traces = edge_traces(mesh, np.array([0.0, 1.0, 0.5]))
    loc = _edge_local_coeffs(f, traces)
    Jv = _jump_rows(traces, "value")[:, :2]
    Jn = _jump_rows(traces, "dnormal", mesh.edge_normal)[:, 2]
    return np.einsum("eqa,ea->eq", Jv, loc), np.einsum("ea,ea->e", Jn, loc)


def penalty_value(f: DiscreteFunction, config: SchemeConfig) -> float:
    """c_h(v, v) for the configured scheme's stabilization term.

    Evaluated edge by edge as a sum of squared jump functionals (not
    through the assembled matrix), so it vanishes to round-off on
    jump-free input despite the strong h^-k weights.
    """
    mesh = f.mesh
    if config.scheme is SchemeTag.MORLEY:
        return 0.0
    h = mesh.edge_length
    if config.scheme is SchemeTag.WOPSIP:
        vjump, njump = _point_jumps(f)
        return float(np.sum(vjump ** 2 / h[:, None] ** 4) + np.sum(njump ** 2 / h ** 2))
    s, w = edge_rule(EDGE_GAUSS)
    traces = edge_traces(mesh, s)
    loc = _edge_local_coeffs(f, traces)
    Jn = _jump_rows(traces, "dnormal", mesh.edge_normal)
    njump = np.einsum("eqa,ea->eq", Jn, loc)
    if config.scheme is SchemeTag.C0IP:
        return float(config.sigma_ip * np.sum(w[None, :] * njump ** 2))
    Jv = _jump_rows(traces, "value")
    vjump = np.einsum("eqa,ea->eq", Jv, loc)
    val = config.sigma1 * np.sum(w[None, :] * vjump ** 2 / h[:, None] ** 2)
    val += config.sigma2 * np.sum(w[None, :] * njump ** 2)
    return float(val)
