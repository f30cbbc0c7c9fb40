"""Per-layer spans recorded around calls into platefem's public functions.

Nothing inside ``platefem`` is changed: :func:`install` rebinds the
listed module functions (in every ``platefem`` module that imported
them by name) and the listed class methods to thin wrappers, and the
returned callable restores the originals.  Two modes exist:

* ``"solves"`` wraps only ``solve_scheme`` and logs each call's size
  and solver route.  Untraced passes use it, so the end-to-end numbers
  carry no span overhead.
* ``"trace"`` wraps every function in :data:`TARGETS`, keeps the spans
  in memory (name, start, end, parent, attributes) and updates the
  per-layer counters at the same boundaries.

A layer is a platefem module; a span's self time is its duration minus
the durations of its direct children.
"""

import importlib
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("mesh", "fespace", "forms", "sparse", "rhs", "interp", "solve", "harness")
SCHEMES = ("morley", "dg", "c0ip", "wopsip")

# bytes a COO matvec streams per stored entry: row and column index,
# value, and the gathered x entry (computed from sizes, not measured)
MATVEC_BYTES_PER_NNZ = 32

# (module, attribute) -> span name; "Class.method" attributes patch the class
TARGETS = {
    ("mesh", "build_triangulation"): "mesh.build",
    ("mesh", "unit_square_mesh"): "mesh.unit_square_mesh",
    ("mesh", "refine_uniform"): "mesh.refine_uniform",
    ("mesh", "Triangulation.vertex_tri_patches"): "mesh.vertex_tri_patches",
    ("mesh", "Triangulation.edge_side_info"): "mesh.edge_side_info",
    ("fespace", "build_dof_map"): "fespace.dofmap",
    ("fespace", "hct_local_basis"): "fespace.hct_basis",
    ("fespace", "prolongate_to_refined"): "fespace.prolongate",
    ("fespace", "barycentric_gradients"): "fespace.barycentric_gradients",
    ("fespace", "p2_hessians"): "fespace.p2_hessians",
    ("fespace", "morley_local_basis"): "fespace.morley_local_basis",
    ("fespace", "local_lagrange_coeffs"): "fespace.local_lagrange_coeffs",
    ("fespace", "local_dof_values"): "fespace.local_dof_values",
    ("fespace", "to_dgp2"): "fespace.to_dgp2",
    ("forms", "assemble_scheme"): "forms.assemble",
    ("forms", "assemble_apw"): "forms.apw",
    ("forms", "assemble_jump_form"): "forms.jump",
    ("forms", "assemble_cdg"): "forms.cdg",
    ("forms", "assemble_cip"): "forms.cip",
    ("forms", "assemble_cp"): "forms.cp",
    ("forms", "edge_traces"): "forms.edge_traces",
    ("forms", "jump_seminorm"): "forms.jump_seminorm",
    ("forms", "penalty_value"): "forms.penalty_value",
    ("sparse", "SparseMatrix.from_triplets"): "sparse.from_triplets",
    ("rhs", "smoothed_load_vector"): "rhs.load",
    ("rhs", "resolve_point_loads"): "rhs.resolve_point_loads",
    ("interp", "interp_matrix"): "interp.operator",
    ("interp", "companion_matrix"): "interp.operator",
    ("interp", "transfer_ic_matrix"): "interp.operator",
    ("interp", "smoother"): "interp.smooth",
    ("interp", "morley_interp_avg"): "interp.morley_interp_avg",
    ("interp", "companion"): "interp.companion",
    ("solve", "solve"): "solve.solve",
    ("solve", "solve_scheme"): "solve.solve_scheme",
    ("solve", "compute_errors"): "solve.errors",
    ("harness", "run_convergence"): "harness.run_convergence",
    ("harness", "run_comparison"): "harness.run_comparison",
    ("harness", "mesh_sequence"): "harness.mesh_sequence",
    ("harness", "reference_error_norm_h"): "harness.reference",
}

# inclusive times reported per layer: metric name -> span name
TIMED = {
    "solve.solve_s": "solve.solve",
    "solve.errors_s": "solve.errors",
    "forms.assemble_s": "forms.assemble",
    "forms.apw_s": "forms.apw",
    "forms.jump_s": "forms.jump",
    "forms.cdg_s": "forms.cdg",
    "forms.cip_s": "forms.cip",
    "forms.cp_s": "forms.cp",
    "sparse.from_triplets_s": "sparse.from_triplets",
    "rhs.load_s": "rhs.load",
    "interp.operator_s": "interp.operator",
    "interp.smooth_s": "interp.smooth",
    "fespace.dofmap_s": "fespace.dofmap",
    "fespace.hct_basis_s": "fespace.hct_basis",
    "fespace.prolongate_s": "fespace.prolongate",
    "mesh.build_s": "mesh.build",
    "harness.reference_s": "harness.reference",
}

COUNTERS = (
    "solve.cg_iterations", "solve.calls_dense", "solve.calls_cg", "solve.calls_ldlt",
    "solve.factor_nnz", "solve.matvec_bytes", "solve.backward_error_max",
    "forms.nnz", "sparse.from_triplets_calls", "sparse.triplets_in", "rhs.point_loads",
    "interp.operator_calls", "fespace.ndof", "mesh.triangles",
)


def route_of(method):
    """Solver route of a ``solve`` stats method string."""
    if method.startswith("dense"):
        return "dense"
    return method


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    nested: bool = False     # an enclosing span has the same name
    scheme: str | None = None


@dataclass
class Recorder:
    """Spans and counters of one pass, plus the case and solve logs.

    ``cases`` holds the workload's timed units as (label, ndof, seconds),
    appended by the workload; ``solves`` holds (ndof, route) per
    ``solve_scheme`` call, appended in every mode.
    """

    tracing: bool = False
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    cases: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    _nnz_out: int = 0
    _seen_ops: weakref.WeakValueDictionary = field(default_factory=weakref.WeakValueDictionary)
    _reused_ops: int = 0

    def open(self, name, scheme=None):
        parent = self.stack[-1] if self.stack else -1
        nested = any(self.spans[i].name == name for i in self.stack)
        self.spans.append(Span(name, time.perf_counter(), parent=parent, nested=nested,
                               scheme=scheme))
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()].end = time.perf_counter()

    # -- counters taken at the wrapped boundaries ---------------------------

    def after(self, span_name, args, result):
        c = self.counters
        if span_name == "solve.solve":
            stats = result[1]
            route = route_of(stats.get("method", "empty"))
            c[f"solve.calls_{route}"] += 1
            iters = stats.get("iterations", 0)
            c["solve.cg_iterations"] += iters
            c["solve.matvec_bytes"] += iters * stats.get("nnz", 0) * MATVEC_BYTES_PER_NNZ
            c["solve.factor_nnz"] += stats.get("factor_nnz", 0)
            c["solve.backward_error_max"] = max(c["solve.backward_error_max"],
                                                stats.get("backward_error", 0.0))
        elif span_name == "forms.assemble":
            c["forms.nnz"] += result[0].nnz
        elif span_name == "sparse.from_triplets":
            c["sparse.from_triplets_calls"] += 1
            c["sparse.triplets_in"] += len(args[2])
            self._nnz_out += result.nnz
        elif span_name == "rhs.resolve_point_loads":
            c["rhs.point_loads"] += len(result)
        elif span_name == "interp.operator":
            c["interp.operator_calls"] += 1
            if self._seen_ops.get(id(result)) is result:
                self._reused_ops += 1
            self._seen_ops[id(result)] = result
        elif span_name == "fespace.dofmap":
            c["fespace.ndof"] += result.n_free
        elif span_name == "mesh.build":
            c["mesh.triangles"] += result.num_triangles

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of the recorded pass (flat name -> value)."""
        out = {name: float(self.counters.get(name, 0.0)) for name in COUNTERS}
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        scheme_time = defaultdict(float)
        for i, span in enumerate(self.spans):
            dur = span.end - span.start
            if not span.nested:
                inclusive[span.name] += dur
            self_time[span.name.split(".")[0]] += dur - child_time[i]
            if span.scheme and not self._scheme_ancestor(span):
                scheme_time[span.scheme] += dur
        for metric, span_name in TIMED.items():
            out[metric] = inclusive[span_name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        for scheme in SCHEMES:
            out[f"harness.scheme_s.{scheme}"] = scheme_time[scheme]
        triplets = out["sparse.triplets_in"]
        out["sparse.dedupe_ratio"] = self._nnz_out / triplets if triplets else 0.0
        calls = out["interp.operator_calls"]
        out["interp.operator_reuse_ratio"] = self._reused_ops / calls if calls else 0.0
        return out

    def _scheme_ancestor(self, span):
        i = span.parent
        while i >= 0:
            if self.spans[i].scheme:
                return True
            i = self.spans[i].parent
        return False


def _scheme_of(span_name, args, kwargs):
    """Scheme tag of a per-scheme call, read from its arguments."""
    if span_name in ("solve.solve_scheme", "forms.assemble"):
        cfg = args[1] if len(args) > 1 else kwargs["config"]
        return cfg.scheme.value
    if span_name == "solve.errors":
        sol = args[1] if len(args) > 1 else kwargs["sol"]
        return sol.config.scheme.value
    return None


def _make_wrapper(fn, span_name, rec):
    def traced(*args, **kwargs):
        rec.open(span_name, _scheme_of(span_name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        rec.after(span_name, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _make_solve_log(fn, rec, traced_fn=None):
    """Wrap ``solve_scheme`` so every call logs its size and solver route."""
    inner = traced_fn or fn

    def logged(*args, **kwargs):
        sol = inner(*args, **kwargs)
        rec.solves.append((int(sol.u_h.space.n_free), route_of(sol.stats.get("method", "empty"))))
        return sol

    logged.__wrapped__ = fn
    return logged


def _platefem_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "platefem" or name.startswith("platefem."))]


def install(rec: Recorder, mode: str):
    """Wrap platefem's functions for ``rec``; returns the undo callable."""
    if mode not in ("solves", "trace"):
        raise ValueError(f"unknown span mode {mode!r}")
    rec.tracing = mode == "trace"
    modules = _platefem_modules()
    undo = []

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    for (mod_name, attr), span_name in TARGETS.items():
        is_solve = (mod_name, attr) == ("solve", "solve_scheme")
        if not rec.tracing and not is_solve:
            continue
        mod = importlib.import_module(f"platefem.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = _make_wrapper(fn, span_name, rec)
            undo.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            continue
        fn = getattr(mod, attr)
        if is_solve:
            traced = _make_wrapper(fn, span_name, rec) if rec.tracing else None
            rebind(fn, _make_solve_log(fn, rec, traced))
        else:
            rebind(fn, _make_wrapper(fn, span_name, rec))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        rec.tracing = False

    return restore
