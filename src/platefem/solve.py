"""Linear solves, post-processing and error norms.

Every matrix goes through one sparse factorization in pure numpy.  An
algebraic nested-dissection ordering (George 1973) bisects the matrix
graph recursively with breadth-first level-set separators.  Unknowns
with identical adjacency (supervariables: the 6 of a discontinuous P2
triangle) are ordered as one weighted vertex, which gives the same
ordering on a graph 6 times smaller.  The multifrontal method (Liu 1992)
then factors one dense front per separator-tree node with LAPACK and
BLAS, children before parents, and keeps each pivot block's inverse,
formed by recursive halving, for the triangular sweeps;
extended-precision iterative refinement polishes the solution.  The
matrix's verified ``symmetric`` flag picks the pivot-block kernel:
Cholesky, whose failure raises :class:`NonCoerciveError` - for the
penalized schemes the diagnostic that the stabilization parameter is
too small - or, for any other matrix (theta != 1), LU with partial
pivoting inside the block (Davis & Duff 1997).

The scheme's matrix does not depend on the load, so :func:`solve_scheme`
memoizes the assembled system per mesh and matrix configuration with
``derived``, and :func:`solve` memoizes a matrix's factor on the
matrix, for as long as the matrix lives: every later load on that mesh
costs a load vector, triangular solves, the refinement and the smoother.
"""

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .fespace import (
    DiscreteFunction,
    SpaceTag,
    build_dof_map,
    local_dof_values,
    reference_shapes,
    reference_values,
    rule,
    shapes,
)
from .forms import SchemeConfig, assemble_scheme, jump_seminorm, matrix_config, penalty_value
from .functions import ScalarFunction
from .interp import smoother
from .mesh import Triangulation, derived
from .quadrature import triangle_points
from .rhs import LoadSpec, smoothed_load_vector
from .sparse import SparseMatrix, ragged_positions

# parts of the graph up to this size are not bisected further: one dense
# front of this order costs less than the Python work of splitting it
LEAF_SIZE = 160
# a solve within this componentwise backward error is converged; an LU
# solve above it raises
BACKWARD_ERROR_TOL = 1e-12


class SolverError(RuntimeError):
    pass


class NonCoerciveError(SolverError):
    """Symmetric system is not positive definite.

    For the interior-penalty schemes this indicates the stabilization
    parameters are below the coercivity threshold (they must be chosen
    'sufficiently large'); increase sigma and reassemble.
    """


# ---------------------------------------------------------------------------
# nested-dissection ordering
# ---------------------------------------------------------------------------

def _bfs_levels(indptr, adj, roots, n):
    """Breadth-first level of every vertex from the root of its part.

    ``indptr``/``adj`` hold only edges inside a part, so one sweep runs
    the searches of all parts at once; unreached vertices get -1.
    """
    level = np.full(n, -1, dtype=np.int64)
    level[roots] = 0
    mark = np.empty(n, dtype=np.int64)
    frontier = roots
    depth = 0
    while frontier.size:
        depth += 1
        nb = adj[ragged_positions(indptr, frontier)[0]]
        nb = nb[level[nb] < 0]
        level[nb] = depth
        # drop repeats: one of the positions written for each vertex survives
        rank = np.arange(nb.size)
        mark[nb] = rank
        frontier = nb[mark[nb] == rank]
    return level


def _component_labels(n, src, dst):
    """Smallest vertex index of every vertex's connected component."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def _hash_weights(n):
    """Random integer weights below 2**31, one per vertex.

    A row hash sums them over a row's columns.  Below 2**22 entries to a
    row every partial sum is an integer below 2**53, so the hash is exact
    in float64 whatever the order of the additions.
    """
    return np.random.default_rng(0).integers(1, 2 ** 31, size=n).astype(np.float64)


def _same_rows(indptr, cols, v, lead):
    """Whether each row ``v`` stores exactly the columns of row ``lead``."""
    same = np.diff(indptr)[v] == np.diff(indptr)[lead]
    pair = np.flatnonzero(same)
    pos, count = ragged_positions(indptr, v[pair])
    shift = np.repeat(indptr[lead[pair]] - indptr[v[pair]], count)
    differ = np.flatnonzero(cols[pos] != cols[pos + shift])
    same[pair[np.searchsorted(np.cumsum(count), differ, side="right")]] = False
    return same


def _quotient_graph(A: SparseMatrix):
    """Supervariables of the graph of A + A^T and the graph between them.

    Unknowns with identical closed adjacency (Ashcraft 1995; George & Liu
    1981, indistinguishable nodes) form one group.  A row that stores its
    diagonal stores its closed adjacency, and a group's members are
    neighbours, so each row's candidate leader is its first column whose
    row has the same O(nnz) hash.  A comparison of the two rows confirms
    it: a hash collision splits a group and never merges two different
    rows.  A row without its diagonal stays alone.  Returns ``(group,
    src, dst)``: ``group[v]`` numbers v's group by the order of the
    groups' smallest members, and ``src``/``dst`` are the edges of the
    graph between the groups, read from one row per group.  Returns None
    when no group has two members, or when a row meets only part of a
    group, which A's rows alone do not show to be one in A + A^T.
    """
    n = A.nrows
    indptr = np.searchsorted(A.rows, np.arange(n + 1))
    h = np.bincount(A.rows, _hash_weights(n)[A.cols], n)
    tie = np.flatnonzero(np.repeat(h, np.diff(indptr)) == h[A.cols])
    r, c = A.rows[tie], A.cols[tie]
    leader = np.arange(n)
    first = np.diff(r, prepend=-1) != 0
    leader[r[first]] = c[first]       # rows are sorted: the smallest such column
    v = np.flatnonzero(leader != np.arange(n))
    if not v.size:
        return None
    has_diagonal = np.zeros(n, dtype=bool)
    has_diagonal[r[r == c]] = True
    v = v[~(has_diagonal[v] & _same_rows(indptr, A.cols, v, leader[v]))]
    leader[v] = v
    reps = np.flatnonzero(leader == np.arange(n))
    if reps.size == n:
        return None
    ng = reps.size
    rank = np.empty(n, dtype=np.int64)
    rank[reps] = np.arange(ng)
    group = rank[leader]
    pos, count = ragged_positions(indptr, reps)
    src, dst = np.repeat(np.arange(ng), count), group[A.cols[pos]]
    out = src != dst
    keys = np.sort(src[out] * ng + dst[out])
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    # each row meets all of a neighbouring group or none of it
    if not np.array_equal(np.diff(first, append=keys.size),
                          np.bincount(group, minlength=ng)[keys[first] % ng]):
        return None
    src, dst = np.divmod(keys[first], ng)
    edges = _sorted_unique(np.concatenate([keys[first], dst * ng + src]))
    return group, edges // ng, edges % ng


def _dissect(n, src, dst, weight, last):
    """Separator tree of a graph whose vertex v stands for ``weight[v]``
    unknowns, the largest of them ``last[v]``; see :func:`nested_dissection`.

    Sizes count unknowns: the leaf test and the median read summed
    weights, and a tie on the farthest level goes to the vertex holding
    the largest unknown.  A vertex's group mates lie one level beyond it
    in the graph of the unknowns, so the root's own weight counts one
    level out.  With unit weights this is the ordering of the unknowns
    themselves; with the weights of :func:`_quotient_graph`, its tree
    expands to that same ordering.
    """
    part = np.zeros(n, dtype=np.int64)
    part_parent = np.full(min(n, 1), -1)   # tree node each part hangs below; none if n == 0
    nodes, node_parent = [], []
    while part_parent.size:
        ps = part[src]
        inside = (ps == part[dst]) & (ps >= 0)
        src, dst = src[inside], dst[inside]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        members = np.flatnonzero(part >= 0)
        members = members[np.argsort(part[members], kind="stable")]
        pm = part[members]
        count = np.bincount(pm, minlength=part_parent.size)
        end = np.cumsum(count)
        start = end - count
        size = np.diff(np.cumsum(weight[members])[end - 1], prepend=0)
        big = size > LEAF_SIZE
        # pseudo-peripheral root: the farthest vertex from the part's first
        # one, on a tie the one holding the largest unknown
        level = _bfs_levels(indptr, dst, members[start[big]], n)
        lm = level[members]
        lm += (lm == 0) & (weight[members] > 1)     # the root's group mates
        reach = lm * (last.max() + 1) + last[members]
        far = members[big[pm] & (reach == np.maximum.reduceat(reach, start)[pm])]
        level = _bfs_levels(indptr, dst, far, n)
        lm = level[members]
        connected = np.bincount(pm, weights=lm >= 0, minlength=count.size) == count
        # each part's weight by level, from -1 (unreached) to its last level;
        # the median unknown's level, where the far vertex's group mates lie at 1
        last_level = np.maximum.reduceat(lm, start)
        base = np.cumsum(last_level + 2) - (last_level + 2)
        cum = np.cumsum(np.bincount(base[pm] + lm + 1, weight[members]))
        below = np.concatenate(([0], cum))[base]
        mid = np.maximum(np.searchsorted(cum, below + size // 2, side="right") - base - 1, 1)
        # a part whose median lies in its last level is too dense to split
        split = big & connected & (mid < last_level)
        broken = big & ~connected
        mid[~split] = -2
        at_mid = members[lm == mid[pm]]
        pos, cnt = ragged_positions(indptr, at_mid)
        nb = dst[pos]
        owner = np.repeat(at_mid, cnt)
        in_sep = np.zeros(n, dtype=bool)
        in_sep[owner[level[nb] > level[owner]]] = True
        # next round's parts by key: a component's smallest vertex, or
        # n + 2 * part (+ 1 beyond the separator)
        key = np.full(n, -1, dtype=np.int64)
        key_parent = np.full(n, -1, dtype=np.int64)
        key_parent[members] = part_parent[pm]
        if broken.any():
            within = broken[part[src]]
            label = _component_labels(n, src[within], dst[within])
            sel = members[broken[pm]]
            key[sel] = label[sel]
        sel = split[pm] & ~in_sep[members]
        key[members[sel]] = n + 2 * pm[sel] + (lm[sel] > mid[pm[sel]])
        for p in np.flatnonzero(~split & ~broken):    # leaves
            nodes.append(members[start[p]:end[p]])
            node_parent.append(part_parent[p])
        seps = members[in_sep[members]]
        sep_size = np.bincount(part[seps], minlength=count.size)
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


def nested_dissection(A: SparseMatrix):
    """Nested-dissection ordering of the off-diagonal pattern of A + A^T.

    Returns ``(perm, starts, parent, vertices)`` for a separator tree in
    postorder: tree node k owns the permuted positions
    ``starts[k]:starts[k+1]``, ``perm[i]`` is the original index at
    permuted position i, ``parent[k] > k`` (-1 for a root), and
    ``vertices`` counts the vertices of the graph that was ordered.  All
    parts of one depth are split together: a breadth-first search from a
    pseudo-peripheral vertex levels each part, and the median level's
    vertices that have a neighbour one level further form the separator.
    A part that is not connected splits into its components instead.

    Unknowns with identical closed adjacency always land in one tree
    node, so the graph of their groups (supervariables) is ordered in
    their place, with each group weighted by its size, and every tree
    node expands to its unknowns in ascending order.  The result is the
    ordering of the unknowns themselves, byte for byte; a discontinuous
    P2 space has 6 unknowns to a group.
    """
    n = A.nrows
    quotient = _quotient_graph(A)
    if quotient is None:
        off = A.rows != A.cols
        rows, cols = A.rows[off], A.cols[off]
        edges = _sorted_unique(np.concatenate([rows * n + cols, cols * n + rows]))
        perm, starts, parent = _dissect(n, edges // n, edges % n, np.ones(n, dtype=np.int64),
                                        np.arange(n))
        return perm, starts, parent, n
    group, src, dst = quotient
    ng = int(group.max()) + 1
    last = np.zeros(ng, dtype=np.int64)
    np.maximum.at(last, group, np.arange(n))
    qperm, qstarts, parent = _dissect(ng, src, dst, np.bincount(group, minlength=ng), last)
    node = np.empty(ng, dtype=np.int64)
    node[qperm] = np.repeat(np.arange(parent.size), np.diff(qstarts))
    node = node[group]
    starts = np.zeros(parent.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(node, minlength=parent.size), out=starts[1:])
    return np.argsort(node, kind="stable"), starts, parent, ng


# ---------------------------------------------------------------------------
# multifrontal factorization
# ---------------------------------------------------------------------------

def _sorted_unique(a):
    """Sorted distinct values by one sort and a neighbour comparison; on
    numpy 2 ``np.unique`` takes a hashing path that is many times slower."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _lower_inverse(L):
    """Inverse of a lower triangular matrix by recursive halving.

    With L = [[A, 0], [C, B]], the inverse is [[A^-1, 0], [-B^-1 C A^-1,
    B^-1]]: both halves recurse and one gemm pair forms the off-diagonal
    block; blocks below 32 columns go to ``np.linalg.inv``.
    """
    k = L.shape[0]
    if k < 32:
        return np.linalg.inv(L)
    h = k // 2
    X = np.zeros_like(L)
    X[:h, :h] = _lower_inverse(L[:h, :h])
    X[h:, h:] = _lower_inverse(L[h:, h:])
    X[h:, :h] = -X[h:, h:] @ (L[h:, :h] @ X[:h, :h])
    return X


@dataclass
class MultifrontalFactor:
    """Multifrontal factor of the nested-dissection permuted matrix.

    ``fronts`` lists, in elimination order, one tuple
    ``(start, end, boundary, P, L21, Q, U12)`` per separator-tree node:
    its pivots are the permuted positions ``start:end`` and its update
    rows the permuted positions ``boundary``.  Cholesky ('ldlt') stores
    ``P = L11^-1``, the rows ``L21`` of L and the views ``Q = P^T``,
    ``U12 = L21^T``; ``min_pivot`` is the smallest D of the equivalent
    L D L^T.  LU ('lu') stores ``P = F11^-1``, ``L21 = F21``, ``Q = None``
    and ``U12 = F11^-1 F12`` of the front F, and no ``min_pivot``.
    """

    method: str
    perm: np.ndarray
    fronts: list
    min_pivot: float | None
    nnz: int              # off-diagonal entries of L (and U, for LU)
    max_front: int
    supervariables: int   # vertices of the ordered graph
    order_time: float
    factor_time: float

    def solve(self, b):
        x = b[self.perm]
        for s, e, boundary, P, L21, _, _ in self.fronts:
            y = P @ x[s:e]
            x[s:e] = y
            if boundary.size:
                x[boundary] -= L21 @ y
        for s, e, boundary, _, _, Q, U12 in reversed(self.fronts):
            y = x[s:e]
            if boundary.size:
                y = y - U12 @ x[boundary]
            x[s:e] = y if Q is None else Q @ y
        out = np.empty_like(x)
        out[self.perm] = x
        return out


@derived
def multifrontal_factor(A: SparseMatrix) -> MultifrontalFactor:
    """Factor a square matrix (multifrontal Cholesky or LU), memoized on it.

    Each separator-tree node, children first, gathers a dense front from
    the permuted entries whose smaller index is one of its pivots plus
    its children's update matrices (extend-add), factors the pivot block
    and passes the Schur complement on to its parent.  The ``symmetric``
    flag picks the pivot kernel: Cholesky, which reads the stored lower
    triangle and raises NonCoerciveError on a block that is not positive
    definite, or LU, which reads every entry and raises SolverError on a
    singular block; a failed factorization stores nothing.
    """
    n = A.nrows
    t0 = time.perf_counter()
    perm, starts, parent, supervariables = nested_dissection(A)
    t1 = time.perf_counter()
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    rows, cols, vals = inv[A.rows], inv[A.cols], A.vals
    # Cholesky reads one triangle; a flagged matrix is symmetric only to
    # 1e-12 (Morley's is not exactly), so it reads the stored lower one
    if A.symmetric:
        low = A.rows >= A.cols
        rows, cols, vals = np.maximum(rows, cols)[low], np.minimum(rows, cols)[low], vals[low]
    first = np.minimum(rows, cols)    # an entry joins the front that eliminates it first
    nnodes = starts.size - 1
    node_of = np.repeat(np.arange(nnodes), np.diff(starts))
    order = np.argsort(node_of[first], kind="stable")
    rows, cols, vals, first = rows[order], cols[order], vals[order], first[order]
    entry_start = np.searchsorted(first, starts)
    children = [[] for _ in range(nnodes)]
    for k, p in enumerate(parent):
        if p >= 0:
            children[p].append(k)
    updates = {}
    local = np.empty(n, dtype=np.int64)
    fronts = []
    min_pivot = np.inf if A.symmetric else None
    nnz = max_front = 0     # strictly lower entries of L; U has as many for LU
    for k in range(nnodes):
        s, e = int(starts[k]), int(starts[k + 1])
        r, c = rows[entry_start[k]:entry_start[k + 1]], cols[entry_start[k]:entry_start[k + 1]]
        high = np.maximum(r, c)
        kids = [updates.pop(child) for child in children[k]]
        boundary = _sorted_unique(np.concatenate([high[high >= e]] + [b[b >= e] for b, _ in kids]))
        p = e - s
        m = p + boundary.size
        local[s:e] = np.arange(p)
        local[boundary] = np.arange(p, m)
        front = np.zeros((m, m))
        front[local[r], local[c]] = vals[entry_start[k]:entry_start[k + 1]]
        for b, update in kids:
            pos = local[b]
            front[pos[:, None], pos] += update
        where = f"front {k} of {nnodes} (elimination steps {s}..{e - 1})"
        if A.symmetric:
            try:
                L11 = np.linalg.cholesky(front[:p, :p])
            except np.linalg.LinAlgError:
                raise NonCoerciveError(f"{where} is not positive definite: the system is not "
                                       "coercive with the given penalty parameters (increase "
                                       "sigma)") from None
            min_pivot = min(min_pivot, float(np.diag(L11).min()) ** 2)
            P = _lower_inverse(L11)
            L21 = front[p:, :p] @ P.T
            Q, U12 = P.T, L21.T
        else:
            try:
                P = np.linalg.inv(front[:p, :p])
            except np.linalg.LinAlgError:
                raise SolverError(f"{where} is singular") from None
            L21 = front[p:, :p].copy()    # a view would keep the whole front alive
            Q, U12 = None, P @ front[:p, p:]
        if boundary.size:
            updates[k] = (boundary, front[p:, p:] - L21 @ U12)
        fronts.append((s, e, boundary, P, L21, Q, U12))
        nnz += p * (p - 1) // 2 + boundary.size * p
        max_front = max(max_front, m)
    return MultifrontalFactor("ldlt" if A.symmetric else "lu", perm, fronts, min_pivot,
                              nnz if A.symmetric else 2 * nnz, max_front, supervariables,
                              t1 - t0, time.perf_counter() - t1)


def solve(matrix: SparseMatrix, vector: np.ndarray):
    """Solve the linear system; returns (coefficients, stats dict).

    The matrix's memoized factor is Cholesky ('ldlt') if its
    ``symmetric`` flag is set and LU ('lu') if not; a later solve with the
    same matrix reports ``factor_reused`` and zero ordering and
    factorization times, and still refines against the matrix.  The
    stats flag ``converged`` reads the backward error: at most
    ``BACKWARD_ERROR_TOL``.  An LU solve above that bound, and a solve
    whose solution or backward error is not finite, raise SolverError.
    """
    b = np.asarray(vector, dtype=np.float64)
    n = matrix.nrows
    if matrix.ncols != n or b.shape != (n,):
        raise ValueError("matrix/vector dimensions do not agree")
    t0 = time.perf_counter()
    reused = multifrontal_factor.cached(matrix)
    factor = multifrontal_factor(matrix)
    stats = {"n": n, "nnz": matrix.nnz, "refine_steps": 0, "factor_reused": reused}
    if n == 0:
        stats.update(method="empty", residual=0.0, backward_error=0.0, converged=True,
                     solve_time=time.perf_counter() - t0)
        return np.zeros(0), stats
    bnorm = np.linalg.norm(b)
    x = factor.solve(b)
    # mixed-precision iterative refinement: the penalty terms scale like
    # h^-4, and residuals of the badly scaled system evaluated in double
    # precision drown in cancellation noise; r stays the residual of x
    r = _residual_extended(matrix, x, b)
    rnorm = np.linalg.norm(r.astype(np.float64))
    for _ in range(3):
        if rnorm <= 1e-13 * (bnorm if bnorm > 0 else 1.0):
            break
        x_new = x + factor.solve(r.astype(np.float64))
        r_new = _residual_extended(matrix, x_new, b)
        rnorm_new = np.linalg.norm(r_new.astype(np.float64))
        if rnorm_new >= 0.5 * rnorm:
            if rnorm_new < rnorm:
                x, r, rnorm = x_new, r_new, rnorm_new
                stats["refine_steps"] += 1
            break  # stalled at the double-precision representation floor
        x, r, rnorm = x_new, r_new, rnorm_new
        stats["refine_steps"] += 1
    stats["method"] = factor.method
    if factor.min_pivot is not None:
        stats["min_pivot"] = factor.min_pivot
    stats.update(factor_nnz=factor.nnz, fronts=len(factor.fronts), max_front=factor.max_front,
                 supervariables=factor.supervariables,
                 order_time=0.0 if reused else factor.order_time,
                 factor_time=0.0 if reused else factor.factor_time)
    r = r.astype(np.float64)
    residual = np.linalg.norm(r) / (bnorm if bnorm > 0 else 1.0)
    # componentwise backward error: ~machine epsilon means x is as good as a
    # double precision representation of the solution can be, even when the
    # raw residual ratio above is limited by the h^-4 penalty scaling
    axabs = np.bincount(matrix.rows, np.abs(matrix.vals) * np.abs(x[matrix.cols]),
                        minlength=n)
    denom = (axabs + np.abs(b)).max()
    stats["residual"] = float(residual)
    # a NaN denom (non-finite x or input) keeps the backward error NaN
    be = stats["backward_error"] = float(np.abs(r).max() / denom) if denom != 0 else 0.0
    stats["converged"] = bool(be <= BACKWARD_ERROR_TOL)
    stats["solve_time"] = time.perf_counter() - t0
    if not (np.isfinite(x).all() and be < np.inf):
        raise SolverError("the solution is not finite: the matrix or the right-hand side "
                          "has a NaN or infinite entry")
    # LU pivots inside each block only, so nothing bounds its element growth
    if factor.method == "lu" and not stats["converged"]:
        raise SolverError(f"LU solve stalled at backward error {be:.1e}: "
                          "the system is close to singular (increase sigma)")
    return x, stats


def _residual_extended(matrix: SparseMatrix, x, b):
    """b - A x accumulated in extended precision."""
    r = b.astype(np.longdouble).copy()
    np.subtract.at(r, matrix.rows,
                   matrix.vals.astype(np.longdouble) * x.astype(np.longdouble)[matrix.cols])
    return r


# ---------------------------------------------------------------------------
# scheme-level driver
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    config: SchemeConfig
    u_h: DiscreteFunction
    u_star: DiscreteFunction       # C^1 post-processing of u_h
    stats: dict = field(default_factory=dict)


@derived
def _scheme_system(mesh: Triangulation, config: SchemeConfig):
    """Matrix and DOF map of a :func:`matrix_config`; the load does not enter them."""
    return assemble_scheme(mesh, config)


def solve_scheme(mesh: Triangulation, config: SchemeConfig, load: LoadSpec) -> Solution:
    """Solve one scheme with the smoothed right-hand side of ``load``.

    The matrix and its DOF map are memoized per mesh and the config
    fields they read, and :func:`solve` memoizes the matrix's factor on
    it, so only the first load on a mesh assembles and factors.
    """
    t0 = time.perf_counter()
    build_dof_map(mesh, config.space_tag)   # memoized; assemble_scheme reuses it
    t1 = time.perf_counter()
    A, dofmap = _scheme_system(mesh, matrix_config(config))
    t2 = time.perf_counter()
    b = smoothed_load_vector(mesh, dofmap, load, quad_order=config.quad_order)
    t3 = time.perf_counter()
    x, stats = solve(A, b)
    u_h = DiscreteFunction(mesh, config.space_tag, x)
    u_star = smoother(u_h)
    stats["dofmap_time"] = t1 - t0
    stats["forms_time"] = t2 - t1
    stats["load_time"] = t3 - t2
    stats["assembly_time"] = t3 - t0
    return Solution(config, u_h, u_star, stats)


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

@dataclass
class ErrorReport:
    energy_pw: float      # broken H^2 seminorm of u - u_h
    jump: float           # j_h of the error (vertex jumps + edge-mean slopes)
    norm_h: float         # sqrt(energy_pw^2 + jump^2)
    norm_scheme: float    # scheme norm: energy + its own penalty
    l2: float
    h1_pw: float          # broken H^1 seminorm of u - u_h
    h1_star: float        # H^1 norm of u - u_star (C^1 post-processing)
    best_approx: float    # L^2 distance of D^2 u from cellwise constants
    quad_order: int

    def as_dict(self):
        return asdict(self)


def broken_error_norms(u: ScalarFunction, f: DiscreteFunction, quad_order: int, order: int):
    """L2 norm, then broken H1 and (``order`` 2) H2 seminorms of u - f.

    ``f`` lies in any space; both functions are evaluated at the points of
    the space's ``rule(tag, quad_order)``.
    """
    return _broken_norms(u, f, quad_order, order)[0]


def _broken_norms(u, f, quad_order, order):
    """``broken_error_norms`` and the exact derivatives of ``order`` it read."""
    mesh, tag = f.mesh, f.tag
    bary, w = rule(tag, quad_order)
    pts = triangle_points(bary, mesh.tri_coords())
    x, y = pts[..., 0], pts[..., 1]
    loc = local_dof_values(f)
    norms = []
    for k, exact in enumerate((u.value, u.grad, u.hess)[: order + 1]):
        values = exact(x, y)
        diff = values - shapes(mesh, tag, reference_values(tag, quad_order, k), dofs=loc)
        sq = (diff ** 2).reshape(len(diff), len(w), -1)
        norms.append(np.sqrt(np.einsum("t,q,tqk->", mesh.tri_area, w, sq)))
    return tuple(norms), values


def energy_distance_p2_hct(f: DiscreteFunction, s: DiscreteFunction) -> float:
    """Broken H^2 distance between a quadratic-space function and a macro one.

    Exact: the quadratic has cellwise constant Hessians and the macro
    Hessian is linear per sub-triangle, so a degree-2 rule integrates
    the squared difference exactly.
    """
    mesh = f.mesh
    bary, w = rule(SpaceTag.HCT, 4)
    Hf = shapes(mesh, f.tag, reference_shapes(f.tag, bary, 2), dofs=local_dof_values(f))
    Hs = shapes(mesh, SpaceTag.HCT, reference_values(SpaceTag.HCT, 4, 2),
                dofs=local_dof_values(s))
    return float(np.sqrt(np.einsum("t,q,tqij->", mesh.tri_area, w, (Hs - Hf) ** 2)))


def pi0_hessian_deviation(u: ScalarFunction, mesh: Triangulation,
                          quad_order: int = 7) -> float:
    """L^2 distance of D^2 u from its per-triangle integral means."""
    bary, w = rule(SpaceTag.DG_P2, quad_order)
    pts = triangle_points(bary, mesh.tri_coords())
    return _mean_deviation(u.hess(pts[..., 0], pts[..., 1]), w, mesh.tri_area)


def _mean_deviation(hess, w, area):
    """L^2 distance of ``hess`` at rule points (weights ``w``) from its cell means."""
    mean = np.einsum("q,tqij->tij", w, hess)
    dev = hess - mean[:, None, :, :]
    sq = np.einsum("q,tqij->t", w, dev ** 2)
    return float(np.sqrt(np.sum(area * sq)))


def compute_errors(u_exact: ScalarFunction, sol: Solution) -> ErrorReport:
    """All error norms of a scheme solution against a clamped exact solution.

    The norms use the scheme's quadrature order, raised to at least 4.
    The jump term of the error is evaluated from DOF/trace arithmetic of
    u_h alone, which is exact when u_exact satisfies the homogeneous
    clamped boundary conditions (the manufactured suite does).
    """
    quad_order = max(4, sol.config.quad_order)
    mesh = sol.u_h.mesh
    (l2, h1, energy), hess = _broken_norms(u_exact, sol.u_h, quad_order, 2)
    jump = jump_seminorm(sol.u_h)
    norm_h = float(np.hypot(energy, jump))
    pen = penalty_value(sol.u_h, sol.config)
    norm_scheme = float(np.sqrt(energy ** 2 + pen))
    l2s, h1s = broken_error_norms(u_exact, sol.u_star, quad_order, 1)
    h1_star = float(np.hypot(l2s, h1s))
    best = _mean_deviation(hess, rule(sol.u_h.tag, quad_order)[1], mesh.tri_area)
    return ErrorReport(
        energy_pw=float(energy), jump=float(jump), norm_h=norm_h,
        norm_scheme=norm_scheme, l2=float(l2), h1_pw=float(h1),
        h1_star=h1_star, best_approx=best, quad_order=quad_order,
    )
