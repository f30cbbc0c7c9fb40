"""The search-based construction of the block patterns, kept as an oracle.

``forms._block_pattern`` once sorted every kept slot by its row-major
key ``rows * n + cols``, found each entry's transpose by
``sparse.transpose_index`` (a binary search over all keys), and each
cell entry was found among the edge entries by ``np.searchsorted``.  It
now gets the same arrays, dtypes included, by slot arithmetic (the cell
positions as the edge pattern's ``cell_positions``); the tests compare
both ways.
"""

import numpy as np

from platefem.fespace import build_dof_map
from platefem.sparse import transpose_index


def block_dofs(mesh, tag, kind):
    """The (blocks, m) DOF lists of the cell or edge blocks, -1 where dropped."""
    dofs = build_dof_map(mesh, tag).cell_dofs
    if kind == "edge":
        t = mesh.edge_tris
        side1 = np.where((t[:, 1] >= 0)[:, None], dofs[t[:, 1]], -1)
        dofs = np.concatenate([dofs[t[:, 0]], side1], axis=1)
    return dofs


def _slot_index(a, slots):
    return a.astype(np.int32 if slots < 2 ** 31 else np.int64)


def block_pattern(mesh, tag, kind):
    """(rows, cols, tperm, gather, starts) of the block set, by sort and search."""
    n = build_dof_map(mesh, tag).n_free
    dofs = block_dofs(mesh, tag, kind)
    m = dofs.shape[1]
    rows = np.repeat(dofs, m, axis=1).ravel()   # slot (k, a, b) -> dofs[k, a]
    cols = np.tile(dofs, (1, m)).ravel()        # slot (k, a, b) -> dofs[k, b]
    gather = np.flatnonzero((rows >= 0) & (cols >= 0))
    keys = rows[gather] * n + cols[gather]
    order = np.argsort(keys, kind="stable")     # the order of lexsort((cols, rows))
    gather, keys = gather[order], keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    rows, cols = np.divmod(keys[starts], n)
    tperm = transpose_index(n, rows, cols)
    tperm, gather, starts = (_slot_index(a, dofs.size * m) for a in (tperm, gather, starts))
    return rows, cols, tperm, gather, starts


def cell_positions(mesh, tag):
    """Position of each cell-pattern entry among the edge-pattern entries, by search."""
    n = build_dof_map(mesh, tag).n_free
    cell_rows, cell_cols = block_pattern(mesh, tag, "cell")[:2]
    edge_rows, edge_cols = block_pattern(mesh, tag, "edge")[:2]
    pos = np.searchsorted(edge_rows * n + edge_cols, cell_rows * n + cell_cols)
    return _slot_index(pos, edge_rows.size)
