"""Plate benchmark: mesh -> solution -> error report, end to end and per layer.

Run from the repository root:

    python3 platebench/run.py --workload study --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``study``,
``assemble`` and ``point_sweep``.  Every workload runs in its own worker
process whose BLAS thread count is capped at the CPU count through its
environment.  The worker imports platefem from ``src/``, makes one
warm-up solve per scheme on the coarsest mesh plus the workload's warm
state, then times whole passes for ``--seconds`` and checks each pass
against the gates.  Set-up is timed from process start to ready, in
``SETUP_SAMPLES`` fresh processes, and reported only as ``setup_s``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* ``setup_s``      median set-up time (process start -> warm);
* ``wall_s``       median time of one pass;
* ``dofs_per_s``   unknowns solved (assembled, on ``assemble``) per
                   second of pass time, median over passes;
* ``case_p50_s``, ``case_p90_s``  latency of one case: on
                   ``point_sweep`` one load -> solution, on ``study``
                   one experiment (a convergence study or the
                   comparison), on ``assemble`` one scheme's matrix
                   plus load vector.  The percentiles run over the
                   cases of a pass, each taken as its median over the
                   passes;
* ``peak_rss_mb``  peak resident memory of the worker process.

With ``--trace 1`` passes alternate untraced and traced, and the last
line holds the per-layer metrics of ``spans.py`` (medians over traced
passes) plus ``harness.trace_overhead_s``, the traced minus the
untraced median pass time.  ``solve.matvec_bytes`` is computed from
nnz x CG iterations, not measured.

The line before the last one is the detailed result: wall-time quartiles
and sample counts, ``fail_ratio``, gate failures, and the environment
block (numpy/Python versions, numba, BLAS threads, solver route counts,
commit or source hash).  ``--out FILE`` also writes it to a file, which
``compare.py`` reads.  A failed gate counts as a failed case and makes
the exit code 1; a run that cannot produce a result exits 2 or 3
without printing one.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402
from worker import BLAS_VARS, to_builtin  # noqa: E402

SETUP_SAMPLES = 9       # set-up measurements per run, the measuring worker included
DEADLINE_S = 170.0      # every run ends well within 180 s


def child_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        env[var] = nproc
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Worker:
    """A worker process with a kill timer; reads its JSON-line events."""

    def __init__(self, argv, timeout):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        self.timer = threading.Timer(max(timeout, 1.0), self.proc.kill)
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdout.close()
        self.proc.wait()
        self.timer.cancel()

    def next_event(self):
        for line in self.proc.stdout:
            line = line.strip()
            if line.startswith("{"):
                return json.loads(line)
        return None


def launch(argv, deadline):
    """Run one worker to its end: (set-up seconds, last event, exit ok)."""
    with Worker(argv, deadline - time.perf_counter()) as worker:
        ready = worker.next_event()
        setup = time.perf_counter() - worker.started
        result = worker.next_event() if ready is not None else None
        worker.proc.stdout.read()
        ok = worker.proc.wait() == 0 and ready is not None
    return setup, result, ok


def source_identity():
    """Commit when the checkout is a git work tree, and a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "platefem").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0], values[0]) if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def median(values):
    return statistics.median(values) if values else 0.0


def case_latencies(passes):
    """One latency per case: its median over the passes.

    Every pass runs the same cases in the same order, so case i of each
    pass is the same work.  Percentiles across these per-case medians stay
    put when a workload mixes a few very different case sizes, where
    percentiles of the pooled samples would jump between them.
    """
    columns = zip(*(p["cases"] for p in passes), strict=True)
    return [median([c[2] for c in column]) for column in columns]


def summarize(args, setup, result):
    passes = result["passes"]
    valid = [p for p in passes if not p["crashed"]]
    plain = [p for p in valid if not p["traced"]]
    traced = [p for p in valid if p["traced"]]
    walls = [p["wall_s"] for p in plain]
    cases = case_latencies(plain)
    rates = [sum(c[1] for c in p["cases"]) / p["wall_s"] for p in plain if p["wall_s"] > 0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    routes = {}
    for _, route in (valid[0]["solves"] if valid else []):
        routes[route] = routes.get(route, 0) + 1
    q1, q2, q3 = quartiles(walls)
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "env": {**result["env"], **source_identity(), "solver_routes": routes},
        "setup_s": {"median": median(setup), "samples": setup},
        "wall_s": {"median": q2, "p25": q1, "p75": q3, "samples": len(walls)},
        "case_s": {"p50": median(cases), "p90": p90(cases), "samples": len(cases)},
        "passes": {"untraced": len(plain), "traced": len(traced),
                   "crashed": len(passes) - len(valid)},
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": [m for p in passes for m in p["failures"]][:20],
    }
    if args.trace:
        layers = {}
        for name in (traced[0]["layers"] if traced else {}):
            layers[name] = median([p["layers"][name] for p in traced])
        traced_wall = median([p["wall_s"] for p in traced])
        layers["harness.wall_untraced_s"] = q2
        layers["harness.wall_traced_s"] = traced_wall
        layers["harness.trace_overhead_s"] = traced_wall - q2
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
        detail["notes"] = {"solve.matvec_bytes": "computed as CG iterations x nnz x "
                           f"{spans.MATVEC_BYTES_PER_NNZ} B, not measured"}
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": q2, "unit": "s"},
            "dofs_per_s": {"value": median(rates), "unit": "1/s"},
            "case_p50_s": {"value": median(cases), "unit": "s"},
            "case_p90_s": {"value": p90(cases), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    detail["metrics"] = metrics
    final = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}
    return detail, final


def layer_unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_max")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Plate benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--out", type=Path, help="also write the detailed result here")
    args = parser.parse_args(argv)
    if not (SRC / "platefem" / "__init__.py").is_file():
        print(f"platefem sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        seconds, _, ok = launch([*common, "--setup-only"], deadline)
        if not ok:
            print("set-up probe failed", file=sys.stderr)
            return 3
        setup.append(seconds)
    seconds, result, ok = launch(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setup.append(seconds)
    if not ok or result is None or result.get("event") != "result":
        print("benchmark worker failed or timed out", file=sys.stderr)
        return 3

    detail, final = summarize(args, setup, result)
    if args.out:
        args.out.write_text(json.dumps(detail, indent=2, default=to_builtin) + "\n")
    print(json.dumps(detail, default=to_builtin))
    print(json.dumps(final, default=to_builtin))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
