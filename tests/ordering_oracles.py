"""The nested-dissection ordering on the full graph, kept as an oracle.

``solve.nested_dissection`` once ordered the graph of A + A^T vertex by
vertex.  It now orders the quotient graph of the supervariables (the
groups of unknowns with identical closed adjacency), weighted by their
sizes, and expands every tree node to its unknowns; the tests compare
both ways, which must give the same ``(perm, starts, parent)`` byte for
byte.
"""

import numpy as np

from platefem.solve import LEAF_SIZE, _bfs_levels, _component_labels, _sorted_unique
from platefem.sparse import SparseMatrix, ragged_positions


def nested_dissection(A: SparseMatrix):
    """Nested-dissection ordering of the off-diagonal pattern of A + A^T.

    Returns ``(perm, starts, parent)`` for a separator tree in postorder:
    tree node k owns the permuted positions ``starts[k]:starts[k+1]``,
    ``perm[i]`` is the original index at permuted position i, and
    ``parent[k] > k`` (-1 for a root).  All parts of one depth are split
    together: a breadth-first search from a pseudo-peripheral vertex
    levels each part, and the median level's vertices that have a
    neighbour one level further form the separator.  A part that is not
    connected splits into its components instead.
    """
    n = A.nrows
    off = A.rows != A.cols
    edges = _sorted_unique(np.concatenate([A.rows[off] * n + A.cols[off],
                                           A.cols[off] * n + A.rows[off]]))
    src, dst = edges // n, edges % n
    part = np.zeros(n, dtype=np.int64)
    part_parent = np.full(min(n, 1), -1)   # tree node each part hangs below; none if n == 0
    nodes, node_parent = [], []
    while part_parent.size:
        ps = part[src]
        inside = (ps == part[dst]) & (ps >= 0)
        src, dst, ps = src[inside], dst[inside], ps[inside]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        members = np.flatnonzero(part >= 0)
        members = members[np.argsort(part[members], kind="stable")]
        pm = part[members]
        size = np.bincount(pm, minlength=part_parent.size)
        end = np.cumsum(size)
        start = end - size
        big = size > LEAF_SIZE
        # pseudo-peripheral root: the farthest vertex from the part's first one
        level = _bfs_levels(indptr, dst, members[start[big]], n)
        far = members[np.lexsort((level[members], pm))]
        level = _bfs_levels(indptr, dst, far[end[big] - 1], n)
        lm = level[members]
        ordered = members[np.lexsort((lm, pm))]
        connected = np.bincount(pm, weights=lm >= 0, minlength=size.size) == size
        mid = level[ordered[start + size // 2]]
        # a part whose median lies in its last level is too dense to split
        split = big & connected & (mid < level[ordered[end - 1]])
        broken = big & ~connected
        mid[~split] = -2
        at_mid = members[lm == mid[pm]]
        pos, count = ragged_positions(indptr, at_mid)
        nb = dst[pos]
        owner = np.repeat(at_mid, count)
        in_sep = np.zeros(n, dtype=bool)
        in_sep[owner[level[nb] > level[owner]]] = True
        # next round's parts by key: a component's smallest vertex, or
        # n + 2 * part (+ 1 beyond the separator)
        key = np.full(n, -1, dtype=np.int64)
        key_parent = np.full(n, -1, dtype=np.int64)
        key_parent[members] = part_parent[pm]
        if broken.any():
            label = _component_labels(n, src[broken[ps]], dst[broken[ps]])
            sel = members[broken[pm]]
            key[sel] = label[sel]
        sel = split[pm] & ~in_sep[members]
        key[members[sel]] = n + 2 * pm[sel] + (lm[sel] > mid[pm[sel]])
        for p in np.flatnonzero(~split & ~broken):    # leaves
            nodes.append(members[start[p]:end[p]])
            node_parent.append(part_parent[p])
        seps = members[in_sep[members]]
        sep_size = np.bincount(part[seps], minlength=size.size)
        sep_end = np.cumsum(sep_size)
        for p in np.flatnonzero(split):
            key_parent[members[start[p]:end[p]]] = len(nodes)
            nodes.append(seps[sep_end[p] - sep_size[p]:sep_end[p]])
            node_parent.append(part_parent[p])
        keyed = np.flatnonzero(key >= 0)
        _, first, part_of_key = np.unique(key[keyed], return_index=True, return_inverse=True)
        part = np.full(n, -1, dtype=np.int64)
        part[keyed] = part_of_key
        part_parent = key_parent[keyed[first]]
    # postorder = reversed depth-first preorder; it keeps subtrees contiguous
    children = [[] for _ in nodes]
    stack = []
    for k, p in enumerate(node_parent):
        (children[p] if p >= 0 else stack).append(k)
    pre = []
    while stack:
        k = stack.pop()
        pre.append(k)
        stack.extend(children[k])
    post = pre[::-1]
    new_id = np.empty(len(nodes), dtype=np.int64)
    new_id[post] = np.arange(len(nodes))
    parent = np.array([new_id[node_parent[k]] if node_parent[k] >= 0 else -1 for k in post],
                      dtype=np.int64)
    perm = np.concatenate([nodes[k] for k in post]) if nodes else np.zeros(0, np.int64)
    starts = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([nodes[k].size for k in post], out=starts[1:])
    return perm, starts, parent
