"""One benchmark process: set up, then time passes of one workload.

Started by ``run.py``, never by hand.  Speaks JSON lines on stdout:
``{"event": "ready"}`` once platefem is imported and warm (the parent
stops its set-up clock there), then one ``{"event": "result", ...}``
line.  With ``--setup-only`` it exits after the ready line.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def emit(obj):
    sys.stdout.write(json.dumps(obj, default=to_builtin) + "\n")
    sys.stdout.flush()


def to_builtin(value):
    """JSON fallback for numpy scalars and arrays (np.int64 is not an int)."""
    import numpy as np

    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def environment():
    import numpy as np

    accel = importlib.import_module("platefem.accel")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(accel.USE_NUMBA),
        "PLATEFEM_PURE_NUMPY": os.environ.get("PLATEFEM_PURE_NUMPY"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }


def should_continue(durations, elapsed, seconds, min_passes):
    """Start another pass only if it is expected to end within the budget."""
    if len(durations) < min_passes:
        return True
    return elapsed + sum(durations) / len(durations) <= seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import spans
    import workloads

    state = workloads.prepare(args.workload, args.seed, args.size)
    emit({"event": "ready"})
    if args.setup_only:
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference.get(args.workload, {}).get(args.size)
    passes = []
    durations = []
    # traced runs alternate untraced and traced passes, so the difference
    # of their medians is the tracing overhead
    min_passes = 2 if args.trace else 1
    t_start = time.perf_counter()
    while should_continue(durations, time.perf_counter() - t_start, args.seconds, min_passes):
        traced = bool(args.trace) and len(passes) % 2 == 1
        # the program's meshes hold reference cycles (mesh -> cache -> DOF map
        # -> mesh); collecting them between passes, untimed, keeps the previous
        # pass's memory from leaking into this one's time and peak RSS
        gc.collect()
        rec = spans.Recorder()
        restore = spans.install(rec, "trace" if traced else "solves")
        p0 = time.perf_counter()
        try:
            wall, outputs = workloads.run_pass(state, rec)
        except Exception:  # a broken program fails the pass, the run goes on
            restore()
            traceback.print_exc()
            n = workloads.expected_cases(state)
            passes.append({"traced": traced, "crashed": True, "attempted": n, "failed": n,
                           "failures": [traceback.format_exc(limit=1).strip()]})
            durations.append(time.perf_counter() - p0)
            continue
        restore()
        durations.append(time.perf_counter() - p0)
        attempted, failed, failures = workloads.check(state, outputs, reference)
        passes.append({
            "traced": traced, "crashed": False, "wall_s": wall,
            "cases": rec.cases, "solves": rec.solves,
            "attempted": attempted, "failed": failed,
            "failures": failures[:20],
            "layers": rec.layer_metrics() if traced else None,
        })
    emit({
        "event": "result",
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
