"""Workloads of the plate benchmark: seeded inputs, one timed pass, gates.

* ``study``: the paper's experiments as a user runs them.  Convergence
  studies of all four schemes on the manufactured solution ``u1`` and
  the cross-scheme comparison under one centre point load (surrogate
  reference two levels finer).  Most of the time is in ``solve``, so a
  solver change shows here.  The seed permutes the order of the runs;
  their results do not depend on it.
* ``assemble``: system matrix and smoothed load vector of all four
  schemes on a fresh n = 64 mesh, no solve.  The time is in
  ``forms``/``sparse`` plus the cold ``rhs``/``interp``/``fespace``
  build, so a solver change is predicted to leave it unchanged.  The
  seed renumbers the mesh's vertices and triangles; every gate is
  invariant under renumbering.
* ``point_sweep``: about 120 unit point forces at seeded positions on
  one warm mesh per scheme (vertices, interior edges, and Latin
  hypercube interior points), interleaved across the meshes.
  ``rhs``/``interp`` run on the warm path, and every load repeats
  assembly on an unchanged operator, so only this workload shows a
  factor-once/solve-many change.

A gate failure fails the solve it concerns (on ``assemble``, the
scheme's system); ``attempted`` counts those units.

Each workload exposes ``make_inputs`` (pure numpy, from the seed),
``prepare`` (warm state, counted as set-up), ``run_pass`` (the timed
work) and ``check`` (the correctness gates, untimed).  Program modules
are looked up at call time so that the span wrappers take effect.
"""

import gc
import importlib
import time
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("study", "assemble", "point_sweep")
SCHEMES = ("morley", "dg", "c0ip", "wopsip")
COMPARED = ("morley", "dg", "c0ip")   # schemes of run_comparison
CENTRE = (0.5, 0.5)

SIZES = {
    "full": {
        "warmup_n": 4,
        "study": {"n0": 4, "convergence": {"morley": 4, "dg": 4, "c0ip": 4, "wopsip": 3},
                  "comparison_levels": 3, "extra_levels": 2},
        "assemble": {"n": 64},
        "point_sweep": {"meshes": (("morley", 32), ("c0ip", 16), ("dg", 8)),
                        "vertex": 6, "edge": 8, "interior": 26},
    },
    # a smoke-test size: same code paths, seconds instead of minutes
    "tiny": {
        "warmup_n": 2,
        "study": {"n0": 2, "convergence": {"morley": 2, "dg": 2, "c0ip": 2, "wopsip": 2},
                  "comparison_levels": 2, "extra_levels": 1},
        "assemble": {"n": 4},
        "point_sweep": {"meshes": (("morley", 4), ("c0ip", 4), ("dg", 2)),
                        "vertex": 1, "edge": 2, "interior": 3},
    },
}

# Gate tolerances.  CG and a sparse direct solve give study norms that
# agree to ~1e-9 relative, so NORM_RTOL lets a solver change pass while a
# wrong matrix or load (errors of order 1e-3 and up) is caught.
NORM_RTOL = 1e-7
EOC_ATOL = 1e-6
FRO_RTOL = 1e-10
LOAD_SUM_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12
RECIPROCITY_RTOL = 1e-10
BACKWARD_ERROR_MAX = 1e-12

TOLERANCES = {
    "ndof": (0.0, 0.0), "nnz": (0.0, 0.0),
    "norm_h": (NORM_RTOL, 0.0), "norm_scheme": (NORM_RTOL, 0.0),
    "eoc_energy": (0.0, EOC_ATOL), "eoc_h1": (0.0, EOC_ATOL),
    "max_min_ratio": (NORM_RTOL, 0.0),
    **{scheme: (NORM_RTOL, 0.0) for scheme in COMPARED},
    "fro": (FRO_RTOL, 0.0), "load_abs_sum": (LOAD_SUM_RTOL, 0.0),
}


def pf(module):
    return importlib.import_module(f"platefem.{module}")


@dataclass
class State:
    """Everything a workload's passes share; built before timing starts."""

    workload: str
    spec: dict
    inputs: dict
    data: dict


# ---------------------------------------------------------------------------
# seeded inputs (pure numpy; the program sees only meshes and positions)
# ---------------------------------------------------------------------------

def square_grid(n):
    """Vertices and ccw triangles of the n-by-n unit square grid."""
    side = np.arange(n + 1) / n
    xx, yy = np.meshgrid(side, side)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    v00 = (j * (n + 1) + i).ravel()
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    return vertices, triangles


def renumbered_grid(n, rng):
    """The grid with vertices, triangles and each triangle's start permuted."""
    vertices, triangles = square_grid(n)
    perm = rng.permutation(len(vertices))
    new_vertices = np.empty_like(vertices)
    new_vertices[perm] = vertices
    tris = perm[triangles][rng.permutation(len(triangles))]
    shift = rng.integers(0, 3, len(tris))
    tris = np.take_along_axis(tris, (np.arange(3)[None, :] + shift[:, None]) % 3, axis=1)
    return new_vertices, tris


def sweep_points(n, spec, rng):
    """Point-force positions on the n-grid: interior vertices, points on
    interior edges, and Latin hypercube points inside triangles."""
    inner = np.arange(1, n)
    iv, jv = np.meshgrid(inner, inner)
    pick = rng.choice(iv.size, spec["vertex"], replace=False)
    vertex = np.column_stack([iv.ravel()[pick], jv.ravel()[pick]]) / n
    edges = []
    for i in range(n):
        for j in range(n):
            edges.append(((i, j), (i + 1, j + 1)))          # cell diagonal
            if j > 0:
                edges.append(((i, j), (i + 1, j)))          # interior horizontal
            if i > 0:
                edges.append(((i, j), (i, j + 1)))          # interior vertical
    edges = np.array(edges, dtype=np.float64) / n
    pick = rng.choice(len(edges), spec["edge"], replace=False)
    t = rng.uniform(0.25, 0.75, spec["edge"])[:, None]
    edge = edges[pick, 0] + t * (edges[pick, 1] - edges[pick, 0])
    k = spec["interior"]
    lhs = np.column_stack([(rng.permutation(k) + rng.uniform(0, 1, k)) / k for _ in range(2)])
    interior = 0.02 + 0.96 * lhs
    points = np.concatenate([vertex, edge, interior])
    return points[rng.permutation(len(points))]


def make_inputs(workload, seed, size):
    """The workload's inputs; the same (workload, seed, size) gives the same."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = SIZES[size][workload]
    if workload == "study":
        items = [f"converge:{s}" for s in spec["convergence"]] + ["comparison"]
        return {"order": [items[i] for i in rng.permutation(len(items))]}
    if workload == "assemble":
        vertices, triangles = renumbered_grid(spec["n"], rng)
        return {"vertices": vertices, "triangles": triangles}
    groups = [(scheme, n, sweep_points(n, spec, rng)) for scheme, n in spec["meshes"]]
    # loads of all meshes interleaved, so a slow spell of the machine spreads
    # over every scheme's cases instead of one scheme's block
    order = [(g, i) for g, (_, _, points) in enumerate(groups) for i in range(len(points))]
    return {"groups": groups, "order": [order[k] for k in rng.permutation(len(order))]}


# ---------------------------------------------------------------------------
# set-up: warm-up solves, then the workload's warm state
# ---------------------------------------------------------------------------

def centre_load():
    return pf("rhs").LoadSpec(points=((1.0, CENTRE),))


def scheme_config(scheme):
    forms = pf("forms")
    return forms.SchemeConfig(scheme=forms.SchemeTag(scheme))


def prepare(workload, seed, size):
    """Warm-up solve per scheme on the coarsest mesh, then the warm state."""
    spec = SIZES[size][workload]
    mesh_mod, solve = pf("mesh"), pf("solve")
    for scheme in SCHEMES:
        solve.solve_scheme(mesh_mod.unit_square_mesh(SIZES[size]["warmup_n"]),
                           scheme_config(scheme), centre_load())
    inputs = make_inputs(workload, seed, size)
    data = {}
    if workload == "assemble":
        u1 = pf("functions").get_manufactured("u1")
        data["load"] = pf("rhs").LoadSpec(density=u1.biharmonic)
    elif workload == "point_sweep":
        rhs = pf("rhs")
        groups = []
        for scheme, n, points in inputs["groups"]:
            mesh = mesh_mod.unit_square_mesh(n)
            config = scheme_config(scheme)
            solve.solve_scheme(mesh, config, centre_load())   # fills the mesh caches
            located = [rhs.locate_point(mesh, xy) for xy in points]
            groups.append({"scheme": scheme, "mesh": mesh, "config": config,
                           "points": points, "located": located})
        data["groups"] = groups
    return State(workload, spec, inputs, data)


def expected_cases(state):
    spec = state.spec
    if state.workload == "study":
        return sum(spec["convergence"].values()) + len(COMPARED) * spec["comparison_levels"] + 1
    if state.workload == "assemble":
        return len(SCHEMES)
    return sum(len(g["points"]) for g in state.data["groups"])


# ---------------------------------------------------------------------------
# one timed pass; returns (seconds, outputs)
# ---------------------------------------------------------------------------

def run_pass(state, rec):
    return {"study": _study_pass, "assemble": _assemble_pass,
            "point_sweep": _sweep_pass}[state.workload](state, rec)


def _study_pass(state, rec):
    harness, solver_error = pf("harness"), pf("solve").SolverError
    spec = state.spec
    outputs = {}
    wall = 0.0
    for item in state.inputs["order"]:
        # untimed: each experiment starts free of the previous one's cyclic
        # garbage, so the peak RSS does not depend on the seeded order
        gc.collect()
        first, c0 = len(rec.solves), time.perf_counter()
        try:
            if item == "comparison":
                cfg = harness.StudyConfig(n0=spec["n0"], levels=spec["comparison_levels"],
                                          solution=None, load=centre_load())
                outputs[item] = harness.run_comparison(cfg, extra_levels=spec["extra_levels"])
            else:
                scheme = item.split(":")[1]
                cfg = harness.StudyConfig(scheme=scheme_config(scheme), n0=spec["n0"],
                                          levels=spec["convergence"][scheme])
                outputs[item] = harness.run_convergence(cfg)
        except solver_error as exc:
            outputs[item] = exc
        seconds = time.perf_counter() - c0
        wall += seconds
        rec.cases.append((item, sum(n for n, _ in rec.solves[first:]), seconds))
    return wall, outputs


def _assemble_pass(state, rec):
    forms, rhs = pf("forms"), pf("rhs")
    t0 = time.perf_counter()
    mesh = pf("mesh").build_triangulation(state.inputs["vertices"], state.inputs["triangles"])
    wall = time.perf_counter() - t0
    outputs = {}
    for scheme in SCHEMES:
        config = scheme_config(scheme)
        c0 = time.perf_counter()
        if rec.tracing:
            rec.open("harness.case", scheme)
        try:
            A, dofmap = forms.assemble_scheme(mesh, config)
            b = rhs.smoothed_load_vector(mesh, dofmap, state.data["load"],
                                         quad_order=config.quad_order)
        finally:
            if rec.tracing:
                rec.close()
        seconds = time.perf_counter() - c0
        wall += seconds
        rec.cases.append((scheme, int(dofmap.n_free), seconds))
        # summarised here, untimed, so only one scheme's system is alive at a time
        outputs[scheme] = summarize_system(A, b, dofmap.n_free)
    return wall, outputs


def _sweep_pass(state, rec):
    solve, rhs = pf("solve"), pf("rhs")
    groups = state.data["groups"]
    wall = 0.0
    outputs = [[None] * len(group["points"]) for group in groups]
    for g, i in state.inputs["order"]:
        group = groups[g]
        c0 = time.perf_counter()
        try:
            sol = solve.solve_scheme(group["mesh"], group["config"],
                                     rhs.LoadSpec(points=((1.0, tuple(group["points"][i])),)))
            ndof = int(sol.u_h.space.n_free)
        except solve.SolverError as exc:
            sol, ndof = exc, 0
        seconds = time.perf_counter() - c0
        wall += seconds
        rec.cases.append((group["scheme"], ndof, seconds))
        outputs[g][i] = sol
    return wall, outputs


# ---------------------------------------------------------------------------
# correctness gates; each returns (attempted, failed, messages)
# ---------------------------------------------------------------------------

def summarize_system(A, b, ndof):
    """Renumbering-invariant summary of an assembled system.

    The load is summarised as sum |b_i|: a Morley edge DOF follows the
    global edge normal, whose sign depends on the numbering, so the
    plain sum of b is not invariant.
    """
    n = A.nrows
    rows, cols, vals = np.asarray(A.rows), np.asarray(A.cols), np.asarray(A.vals)
    key, key_t = rows * n + cols, cols * n + rows
    order, order_t = np.argsort(key, kind="stable"), np.argsort(key_t, kind="stable")
    scale = np.abs(vals).max() if vals.size else 1.0
    if A.ncols != n or not np.array_equal(key[order], key_t[order_t]):
        asymmetry = np.inf   # the pattern itself is not symmetric
    else:
        asymmetry = float(np.abs(vals[order] - vals[order_t]).max() / scale) if vals.size else 0.0
    return {"ndof": int(ndof), "nnz": int(A.nnz), "fro": float(np.sqrt(np.sum(vals ** 2))),
            "load_abs_sum": float(np.sum(np.abs(b))), "asymmetry": asymmetry,
            "consistent": bool(n == ndof and np.shape(b) == (ndof,))}


def observe_study(outputs):
    """The study numbers the gates compare, per run (None for a failed run)."""
    observed = {}
    for item, rep in outputs.items():
        if isinstance(rep, Exception):
            observed[item] = None
        elif item == "comparison":
            per_level = rep.comparison["per_level"]
            observed[item] = {s: [row[s] for row in per_level] for s in COMPARED}
            observed[item]["max_min_ratio"] = list(rep.comparison["max_min_ratio"])
        else:
            levels = rep.levels
            observed[item] = {
                "ndof": [int(r.n_dof) for r in levels],
                "norm_h": [r.errors.norm_h for r in levels],
                "norm_scheme": [r.errors.norm_scheme for r in levels],
                # EOC k compares levels k and k+1: it belongs to level k+1
                "eoc_energy": [None] + list(rep.eoc_energy),
                "eoc_h1": [None] + list(rep.eoc_h1),
            }
    return observed


def _close(key, got, want):
    if got is None or want is None:
        return got is None and want is None
    rtol, atol = TOLERANCES[key]
    return abs(got - want) <= atol + rtol * abs(want)


def _mismatched_levels(observed, reference):
    """Level indices whose observed values differ from the reference."""
    bad = set()
    for key, want in reference.items():
        got = observed.get(key, [])
        for k, w in enumerate(want):
            if k >= len(got) or not _close(key, got[k], w):
                bad.add(k)
    return bad


def check(state, outputs, reference):
    if state.workload == "study":
        return _check_study(state, outputs, reference)
    if state.workload == "assemble":
        return _check_assemble(outputs, reference)
    return _check_sweep(state, outputs)


def _check_study(state, outputs, reference):
    observed = observe_study(outputs)
    attempted = failed = 0
    messages = []
    for item in state.inputs["order"]:
        want = reference[item]
        cases_per_level = len(COMPARED) if item == "comparison" else 1
        levels = len(next(iter(want.values())))
        n_cases = cases_per_level * levels + (1 if item == "comparison" else 0)
        attempted += n_cases
        got = observed[item]
        if got is None:
            failed += n_cases
            messages.append(f"{item}: {outputs[item]}")
            continue
        if item != "comparison" and outputs[item].aborted:
            messages.append(f"{item}: {outputs[item].aborted}")
        bad = _mismatched_levels(got, want)
        if bad:
            failed += cases_per_level * len(bad)
            messages.append(f"{item}: levels {sorted(bad)} differ from the reference")
    return attempted, failed, messages


def _check_assemble(outputs, reference):
    failed = 0
    messages = []
    for scheme in SCHEMES:
        got, want = outputs[scheme], reference[scheme]
        problems = [key for key in want if not _close(key, got[key], want[key])]
        if not got["asymmetry"] <= SYMMETRY_RTOL:
            problems.append(f"asymmetry {got['asymmetry']:.3e}")
        if not got["consistent"]:
            problems.append("matrix/vector/DOF sizes disagree")
        if problems:
            failed += 1
            messages.append(f"{scheme}: {', '.join(problems)}")
    return len(SCHEMES), failed, messages


def _check_sweep(state, outputs):
    """Backward error per solve and Green's-function reciprocity per mesh.

    For unit point forces at x and y, b_x . u_y equals the C^1 companion
    of u_y evaluated at x, so symmetry of the solve operator means
    u*_y(x) = u*_x(y); the diagonal u*_x(x) = b_x^T A^-1 b_x is positive.
    """
    evaluate = pf("fespace").evaluate
    attempted = failed = 0
    messages = []
    for group, sols in zip(state.data["groups"], outputs):
        k = len(sols)
        attempted += k
        bad = set()
        ok = [not isinstance(s, Exception) for s in sols]
        for j, sol in enumerate(sols):
            if not ok[j]:
                bad.add(j)
                messages.append(f"{group['scheme']} case {j}: {sol}")
            elif not sol.stats["backward_error"] <= BACKWARD_ERROR_MAX:
                bad.add(j)
                messages.append(f"{group['scheme']} case {j}: backward error "
                                f"{sol.stats['backward_error']:.3e}")
        pairing = np.zeros((k, k))
        for j, sol in enumerate(sols):
            if ok[j]:
                for i, (tri, bary) in enumerate(group["located"]):
                    pairing[i, j] = evaluate(sol.u_star, tri, bary)
        live = np.flatnonzero(ok)
        sub = pairing[np.ix_(live, live)]
        scale = np.abs(sub).max() if sub.size else 0.0
        skew = np.abs(sub - sub.T)
        worst = skew.max() if sub.size else 0.0
        for a, c in zip(*np.nonzero(skew > RECIPROCITY_RTOL * scale)):
            bad.update((int(live[a]), int(live[c])))
        if worst > RECIPROCITY_RTOL * scale:
            messages.append(f"{group['scheme']}: reciprocity defect {worst / scale:.3e} "
                            "of the largest pairing")
        nonpositive = [int(live[a]) for a in np.flatnonzero(np.diag(sub) <= 0.0)]
        if nonpositive:
            bad.update(nonpositive)
            messages.append(f"{group['scheme']}: nonpositive u*_x(x) at cases {nonpositive}")
        failed += len(bad)
    return attempted, failed, messages


def observe(state, outputs):
    """Reference values a correct pass produces (used to write reference.json)."""
    if state.workload == "study":
        return observe_study(outputs)
    if state.workload == "assemble":
        return {s: {key: outputs[s][key] for key in ("ndof", "nnz", "fro", "load_abs_sum")}
                for s in SCHEMES}
    return None
