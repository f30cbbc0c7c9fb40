"""Command line interface.

Subcommands ``solve``, ``converge``, ``compare`` and ``wopsip`` read a
JSON configuration file::

    {
      "mesh":   {"kind": "unit_square", "n": 4, "levels": 4},
      "scheme": {"tag": "dg", "theta": 1.0,
                 "sigma1": 35.0, "sigma2": 10.0, "sigmaIP": 20.0},
      "load":   {"density": "u1", "points": [[1.0, 0.5, 0.5]]},
      "quad":   {"order": 7},
      "output": {"csv": "out.csv", "json": "out.json"}
    }

``mesh.kind`` may also be ``file`` with ``path`` pointing at an ASCII
mesh.  ``load.density`` names a manufactured solution (its biharmonic
load is applied and errors are reported against it); ``points`` lists
``[weight, x, y]`` point loads.  ``platefem --verify`` runs the
invariant suite and exits nonzero on failure.
"""

import argparse
import json
import sys

from .forms import SchemeConfig, SchemeTag, assemble_scheme
from .functions import get_manufactured
from .harness import (
    ConvergenceReport,
    StudyConfig,
    run_comparison,
    run_convergence,
    run_wopsip,
    write_report,
)
from .mesh import read_mesh, unit_square_mesh
from .rhs import LoadSpec
from .solve import compute_errors, solve_scheme


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _scheme_config(raw):
    sch = raw.get("scheme", {})
    quad = raw.get("quad", {})
    kwargs = {}
    if "tag" in sch:
        kwargs["scheme"] = SchemeTag(sch["tag"])
    if "theta" in sch:
        kwargs["theta"] = float(sch["theta"])
    if "sigma1" in sch:
        kwargs["sigma1"] = float(sch["sigma1"])
    if "sigma2" in sch:
        kwargs["sigma2"] = float(sch["sigma2"])
    if "sigmaIP" in sch:
        kwargs["sigma_ip"] = float(sch["sigmaIP"])
    if "order" in quad:
        kwargs["quad_order"] = int(quad["order"])
    try:
        return SchemeConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"config error: {exc}") from None


def _load_spec(raw):
    load = raw.get("load", {})
    name = load.get("density")
    points = tuple((float(p[0]), (float(p[1]), float(p[2])))
                   for p in load.get("points", []))
    if name is None and not points:
        raise SystemExit("config error: load must name a density or list points")
    density = get_manufactured(name).biharmonic if name else None
    return LoadSpec(density=density, points=points), name


def _mesh_of(raw):
    mesh = raw.get("mesh", {})
    kind = mesh.get("kind", "unit_square")
    if kind == "unit_square":
        return unit_square_mesh(int(mesh.get("n", 4)))
    if kind == "file":
        with open(mesh["path"]) as fh:
            return read_mesh(fh.read())
    raise SystemExit(f"config error: unknown mesh kind {kind!r}")


def _study_config(raw):
    mesh = raw.get("mesh", {})
    if mesh.get("kind", "unit_square") != "unit_square":
        raise SystemExit("config error: convergence studies need the unit_square mesh family")
    load_spec, name = _load_spec(raw)
    scheme = _scheme_config(raw)
    return StudyConfig(
        scheme=scheme,
        n0=int(mesh.get("n", 4)),
        levels=int(mesh.get("levels", 4)),
        solution=name,
        load=None if name else load_spec,
        quad_order=max(4, scheme.quad_order),
    )


def _emit(report: ConvergenceReport, raw):
    out = raw.get("output", {})
    write_report(report, out.get("csv"), out.get("json"))
    print(report.to_csv(), end="")
    if report.comparison is not None:
        print("# comparison max/min ratios per level:",
              " ".join(f"{r:.4f}" for r in report.comparison["max_min_ratio"]))
    if report.aborted is not None:
        print(f"# study aborted early: {report.aborted}")
        return 1
    return 0


def cmd_solve(raw, dump_matrix=None):
    mesh = _mesh_of(raw)
    scheme = _scheme_config(raw)
    load_spec, name = _load_spec(raw)
    if dump_matrix:
        A, _ = assemble_scheme(mesh, scheme)
        with open(dump_matrix, "w") as fh:
            fh.write(A.export_coo_text())
        print(f"# wrote system matrix ({A.nnz} entries) to {dump_matrix}")
    sol = solve_scheme(mesh, scheme, load_spec)
    print(f"scheme={scheme.scheme.value} ndof={sol.u_h.space.n_free} "
          f"method={sol.stats['method']} residual={sol.stats['residual']:.3e} "
          f"converged={sol.stats['converged']}")
    result = {"scheme": scheme.scheme.value, "ndof": sol.u_h.space.n_free,
              "stats": {k: v for k, v in sol.stats.items()}}
    if name:
        rep = compute_errors(get_manufactured(name), sol,
                             max(4, scheme.quad_order))
        for key, val in rep.as_dict().items():
            print(f"{key} = {val}")
        result["errors"] = rep.as_dict()
    out = raw.get("output", {})
    if out.get("json"):
        with open(out["json"], "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="platefem",
        description="Quadratic plate-bending solvers with a smoothed right-hand side",
    )
    parser.add_argument("--verify", action="store_true",
                        help="run the invariant suite and exit nonzero on failure")
    sub = parser.add_subparsers(dest="command")
    for name in ("solve", "converge", "compare", "wopsip"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        if name == "solve":
            p.add_argument("--dump-matrix", default=None,
                           help="write the system matrix as 'i j value' (1-based) text")
    args = parser.parse_args(argv)

    if args.verify:
        from .verify import run_invariant_suite

        failures = run_invariant_suite()
        print(f"# invariant suite: {failures} failure(s)")
        return 1 if failures else 0

    if args.command is None:
        parser.print_help()
        return 2
    raw = _load_config(args.config)
    if args.command == "solve":
        return cmd_solve(raw, getattr(args, "dump_matrix", None))
    study = _study_config(raw)
    if args.command == "converge":
        report = run_convergence(study)
    elif args.command == "compare":
        report = run_comparison(study)
    else:
        report = run_wopsip(study)
    return _emit(report, raw)


if __name__ == "__main__":
    sys.exit(main())
