"""Convergence studies, cross-scheme comparison, and report serialization.

Levels are generated by uniform red refinement of a starting mesh; the
experimental order of convergence between consecutive levels is
log2(e_k / e_{k+1}) since the mesh size halves exactly.  Runs are fully
deterministic: identical configurations produce bit-identical CSV.
"""

import json
import os
import platform
from dataclasses import dataclass, replace

import numpy as np

from .fespace import (
    DiscreteFunction,
    local_dof_values,
    prolongate_to_refined,
    reference_shapes,
    shapes,
    to_dgp2,
)
from .forms import SchemeConfig, SchemeTag, jump_seminorm, penalty_value
from .functions import ScalarFunction, get_manufactured
from .interp import morley_interp_avg
from .mesh import Triangulation, refine_uniform, unit_square_mesh
from .rhs import LoadSpec
from .solve import (
    LONGDOUBLE_MANTISSA_BITS,
    ErrorReport,
    SolverError,
    compute_errors,
    solve_scheme,
)

CSV_COLUMNS = [
    "level", "hmax", "ndof", "energy_pw", "jump", "norm_h", "norm_scheme",
    "l2", "h1_pw", "h1_star", "best_approx", "eoc_energy", "eoc_h1",
]

EOC_FLOOR = 1e-13  # EOC undefined when either error is below this


@dataclass
class LevelRecord:
    level: int
    h_max: float
    n_dof: int
    errors: ErrorReport | None
    assembly_time: float
    solve_time: float
    extra: dict


@dataclass
class ConvergenceReport:
    scheme: str
    levels: list
    eoc_energy: list       # per consecutive pair; None when undefined
    eoc_h1: list
    comparison: dict | None = None
    aborted: str | None = None   # solver failure message; levels are partial

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        eocs = [(None, None)] + list(zip(self.eoc_energy, self.eoc_h1))
        for rec, eoc in zip(self.levels, eocs):
            e = rec.errors
            row = ([rec.level, rec.h_max, rec.n_dof]
                   + [getattr(e, name) if e else None for name in CSV_COLUMNS[3:-2]] + list(eoc))
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        out = {
            "scheme": self.scheme,
            "levels": [
                {
                    "level": r.level, "hmax": r.h_max, "ndof": r.n_dof,
                    "errors": r.errors.as_dict() if r.errors else None,
                    "assembly_time": r.assembly_time, "solve_time": r.solve_time,
                    **({"extra": r.extra} if r.extra else {}),
                }
                for r in self.levels
            ],
            "eoc_energy": self.eoc_energy,
            "eoc_h1": self.eoc_h1,
        }
        if self.aborted is not None:
            out["aborted"] = self.aborted
        if self.comparison is not None:
            out["comparison"] = self.comparison
        return out


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.16e}"


def _level_record(level, mesh, sol, errors, extra):
    """The record of one level: ``sol``'s size and timings, its errors or None."""
    return LevelRecord(level, mesh.h_max, sol.u_h.space.n_free, errors,
                       sol.stats["assembly_time"], sol.stats["solve_time"], extra)


def _report(scheme, records, energy, **kwargs):
    """The report of ``records``, with the EOCs of their ``energy`` and h1_star errors."""
    def eocs(name):
        errs = [getattr(r.errors, name) if r.errors else None for r in records]
        return [None if a is None or b is None or min(a, b) <= EOC_FLOOR
                else float(np.log2(a / b)) for a, b in zip(errs[:-1], errs[1:])]

    return ConvergenceReport(scheme, records, eocs(energy), eocs("h1_star"), **kwargs)


def mesh_sequence(n0: int, levels: int):
    meshes = [unit_square_mesh(n0)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one convergence/comparison study."""

    scheme: SchemeConfig = SchemeConfig()
    n0: int = 4
    levels: int = 4
    solution: str | None = "u1"   # manufactured solution name, or None
    load: LoadSpec | None = None  # explicit load (required when solution is None)

    def __post_init__(self):
        if not 2 <= self.levels <= 8:
            raise ValueError("level count must be between 2 and 8")
        if self.solution is None and self.load is None:
            raise ValueError("either a manufactured solution or a load is required")

    def exact(self) -> ScalarFunction | None:
        return get_manufactured(self.solution) if self.solution else None

    def load_spec(self) -> LoadSpec:
        if self.load is not None:
            return self.load
        return LoadSpec(density=self.exact().biharmonic)


def _cell_hessians(f: DiscreteFunction):
    """Cellwise constant Hessians (nt, 2, 2) of a quadratic-space function."""
    ref = reference_shapes(f.tag, np.full(3, 1.0 / 3.0), 2)
    return shapes(f.mesh, f.tag, ref, dofs=local_dof_values(f))[:, 0]


def _interp_energy(u: ScalarFunction, mesh: Triangulation):
    """Broken energy seminorm of h_T I_M u, with I_M u's cellwise Hessian."""
    H = _cell_hessians(morley_interp_avg(u, mesh))
    return float(np.sqrt(np.sum(
        mesh.tri_area * mesh.tri_diam ** 2 * np.einsum("tij,tij->t", H, H)
    )))


def run_convergence(config: StudyConfig) -> ConvergenceReport:
    """Solve the configured scheme on a refinement sequence and tabulate.

    For the over-penalized scheme every level also records, in
    ``extra``, the penalty energy of the discrete solution and (with a
    manufactured solution) the h_T-weighted energy of the nonconforming
    interpolant, the extra term in that scheme's a priori bound.
    """
    u = config.exact()
    load = config.load_spec()
    wopsip = config.scheme.scheme is SchemeTag.WOPSIP
    records = []
    aborted = None
    for k, mesh in enumerate(mesh_sequence(config.n0, config.levels)):
        try:
            sol = solve_scheme(mesh, config.scheme, load)
        except SolverError as exc:
            aborted = f"level {k}: {exc}"
            break
        errors = compute_errors(u, sol) if u is not None else None
        extra = {}
        if wopsip:
            extra["penalty_energy"] = penalty_value(sol.u_h, config.scheme)
            if u is not None:
                extra["weighted_interp_energy"] = _interp_energy(u, mesh)
        records.append(_level_record(k, mesh, sol, errors, extra))
    return _report(config.scheme.scheme.value, records,
                   "norm_scheme" if wopsip else "norm_h", aborted=aborted)


def run_wopsip(config: StudyConfig) -> ConvergenceReport:
    """Convergence study of ``config`` with the scheme set to WOPSIP."""
    return run_convergence(
        replace(config, scheme=replace(config.scheme, scheme=SchemeTag.WOPSIP)))


COMPARISON_SCHEMES = (SchemeTag.MORLEY, SchemeTag.DG, SchemeTag.C0IP)


def run_comparison(config: StudyConfig, extra_levels: int = 2) -> ConvergenceReport:
    """Per-level error equivalence across the three comparable schemes.

    With a manufactured solution, the four tracked quantities are the
    common-norm errors of the three schemes and the cellwise-constant
    Hessian distance (the best-approximation benchmark, computed once
    per level).  For pure point loads, where no closed-form solution
    exists, errors are measured against a surrogate: the nonconforming
    solution ``extra_levels`` (at least 1) refinements further down.
    """
    u = config.exact()
    if u is None and extra_levels < 1:
        raise ValueError(f"extra_levels must be at least 1 for a surrogate comparison, "
                         f"got {extra_levels}")
    load = config.load_spec()
    meshes = mesh_sequence(config.n0, config.levels + (0 if u else extra_levels))
    if u is None:
        reference = solve_scheme(meshes[-1], SchemeConfig(
            scheme=SchemeTag.MORLEY, quad_order=config.scheme.quad_order), load).u_h
    per_level, records = [], []
    for k, mesh in enumerate(meshes[: config.levels]):
        sols = {tag.value: solve_scheme(mesh, replace(config.scheme, scheme=tag), load)
                for tag in COMPARISON_SCHEMES}
        if u is None:
            row = {name: reference_error_norm_h(sol.u_h, meshes[k:], reference)
                   for name, sol in sols.items()}
            errors, extra = None, {"surrogate_errors": dict(row)}
        else:
            reports = {name: compute_errors(u, sol) for name, sol in sols.items()}
            errors, extra = reports["morley"], {}
            row = {name: rep.norm_h for name, rep in reports.items()}
            row["best_approx"] = errors.best_approx
        records.append(_level_record(k, mesh, sols["morley"], errors, extra))
        per_level.append(row)

    ratios = [max(row.values()) / min(row.values()) for row in per_level]
    comparison = {
        "quantities": list(per_level[0]),
        "per_level": per_level,
        "max_min_ratio": ratios,
        "ratio_drift": [
            abs(b - a) / a for a, b in zip(ratios[:-1], ratios[1:])
        ],
    }
    return _report("comparison", records, "norm_h", comparison=comparison)


def reference_error_norm_h(u_h: DiscreteFunction, chain, u_ref: DiscreteFunction) -> float:
    """Common-norm distance of u_h to a reference on a finer mesh.

    ``chain`` is the refinement chain from u_h's mesh (first entry) to
    the reference mesh (last entry); both functions are re-expanded as
    discontinuous quadratics on the fine mesh, where the broken energy
    and the jump functional are evaluated exactly.
    """
    fine = chain[-1]
    f = u_h
    for mesh in chain[1:]:
        f = prolongate_to_refined(f, mesh)
    diff = DiscreteFunction(f.mesh, f.tag, to_dgp2(u_ref).coeffs - f.coeffs)
    H = _cell_hessians(diff)
    energy2 = float(np.sum(fine.tri_area * np.einsum("tij,tij->t", H, H)))
    return float(np.sqrt(energy2 + jump_seminorm(diff) ** 2))


def environment():
    """numpy and Python versions, CPU count of the running process, and the
    mantissa bits of the ``np.longdouble`` that refinement residuals use."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "longdouble_mantissa_bits": LONGDOUBLE_MANTISSA_BITS}


def write_json(path, data):
    """Write ``data`` as indented JSON, with an ``env`` block of :func:`environment`."""
    with open(path, "w") as fh:
        json.dump({**data, "env": environment()}, fh, indent=2)
        fh.write("\n")


def write_report(report: ConvergenceReport, csv_path=None, json_path=None):
    """Write the CSV and/or the JSON report."""
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(report.to_csv())
    if json_path:
        write_json(json_path, report.to_json_dict())
