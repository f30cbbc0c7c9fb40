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

Unreadable or refused input exits with ``config error``, unwritable output with ``output error``.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .forms import SchemeConfig, SchemeTag, assemble_scheme
from .functions import get_manufactured
from .harness import (
    ConvergenceReport,
    StudyConfig,
    run_comparison,
    run_convergence,
    run_wopsip,
    write_json,
    write_report,
)
from .mesh import MeshError, read_mesh, unit_square_mesh
from .rhs import LoadError, LoadSpec
from .solve import compute_errors, solve_scheme


STUDIES = {"converge": run_convergence, "compare": run_comparison, "wopsip": run_wopsip}
SECTIONS = ("mesh", "scheme", "load", "quad", "output")


def _read(path):
    """Text of an input file; one that cannot be read is a config error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"config error: {exc}") from None


def _config(path):
    """The config file's JSON object; text that is not one is a config error."""
    try:
        raw = json.loads(_read(path))
    except ValueError as exc:     # json.JSONDecodeError
        raise SystemExit(f"config error: {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SystemExit(f"config error: {path} holds {json.dumps(raw)[:60]}, not a JSON object")
    for key in SECTIONS:
        if not isinstance(raw.get(key, {}), dict):
            raise SystemExit(f"config error: section {key!r} is {json.dumps(raw[key])[:60]}, "
                             "not a JSON object")
    return raw


def _integer(value):
    """``value`` as an int; a fractional number is refused, not truncated."""
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


@contextmanager
def _config_values():
    """A config value that does not convert ends in a config error."""
    try:
        yield
    except (ValueError, TypeError, KeyError) as exc:   # KeyError: an unknown solution name
        raise SystemExit(f"config error: {exc.args[0]}") from None


def _scheme_config(raw):
    sch = raw.get("scheme", {})
    quad = raw.get("quad", {})
    fields = {"tag": ("scheme", SchemeTag), "theta": ("theta", float),
              "sigma1": ("sigma1", float), "sigma2": ("sigma2", float),
              "sigmaIP": ("sigma_ip", float)}
    with _config_values():
        kwargs = {field: convert(sch[key]) for key, (field, convert) in fields.items()
                  if key in sch}
        if "order" in quad:
            kwargs["quad_order"] = _integer(quad["order"])
        return SchemeConfig(**kwargs)


def _point(entry):
    if len(entry) != 3:
        raise ValueError(f"point load {entry!r} is not [weight, x, y]")
    return float(entry[0]), (float(entry[1]), float(entry[2]))


def _load_spec(raw):
    load = raw.get("load", {})
    name = load.get("density")
    with _config_values():
        points = tuple(_point(p) for p in load.get("points", []))
        density = get_manufactured(name).biharmonic if name else None
    if name is None and not points:
        raise SystemExit("config error: load must name a density or list points")
    return LoadSpec(density=density, points=points), name


def _mesh_of(raw):
    mesh = raw.get("mesh", {})
    kind = mesh.get("kind", "unit_square")
    if kind == "unit_square":
        with _config_values():
            return unit_square_mesh(_integer(mesh.get("n", 4)))
    if kind == "file":
        if "path" not in mesh:
            raise SystemExit("config error: mesh kind 'file' needs a path")
        return read_mesh(_read(mesh["path"]))
    raise SystemExit(f"config error: unknown mesh kind {kind!r}")


def _study_config(raw):
    mesh = raw.get("mesh", {})
    if mesh.get("kind", "unit_square") != "unit_square":
        raise SystemExit("config error: convergence studies need the unit_square mesh family")
    load_spec, name = _load_spec(raw)
    scheme = _scheme_config(raw)
    with _config_values():
        return StudyConfig(
            scheme=scheme,
            n0=_integer(mesh.get("n", 4)),
            levels=_integer(mesh.get("levels", 4)),
            solution=name,
            load=None if name else load_spec,
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
              "stats": dict(sol.stats)}
    if name:
        rep = compute_errors(get_manufactured(name), sol)
        for key, val in rep.as_dict().items():
            print(f"{key} = {val}")
        result["errors"] = rep.as_dict()
    out = raw.get("output", {})
    if out.get("json"):
        write_json(out["json"], result)
    return 0


def _run(parser, args):
    if args.verify:
        from .verify import run_invariant_suite

        failures = run_invariant_suite()
        print(f"# invariant suite: {failures} failure(s)")
        return 1 if failures else 0
    if args.command is None:
        parser.print_help()
        return 2
    raw = _config(args.config)
    if args.command == "solve":
        return cmd_solve(raw, args.dump_matrix)
    return _emit(STUDIES[args.command](_study_config(raw)), raw)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="platefem",
        description="Quadratic plate-bending solvers with a smoothed right-hand side",
    )
    parser.add_argument("--verify", action="store_true",
                        help="run the invariant suite and exit nonzero on failure")
    sub = parser.add_subparsers(dest="command")
    for name in ("solve", *STUDIES):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        if name == "solve":
            p.add_argument("--dump-matrix", default=None,
                           help="write the system matrix as 'i j value' (1-based) text")
    args = parser.parse_args(argv)
    try:
        status = _run(parser, args)
        sys.stdout.flush()   # a closed stdout shows here, not at interpreter exit
        return status
    except (MeshError, LoadError) as exc:    # input the library refuses
        raise SystemExit(f"config error: {exc}") from None
    except BrokenPipeError:   # reader gone (``| head -1``): devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:    # a CSV, JSON or matrix file that cannot be written
        raise SystemExit(f"output error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
