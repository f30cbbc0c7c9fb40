"""Compare two detailed results written by ``run.py --out``.

    python3 platebench/compare.py BEFORE.json AFTER.json

Prints every metric of both results with the after/before ratio.  Two
results are comparable only when they ran the same workload at the same
size, run length and trace mode, on the same numba status, CPU count
and solver routes; otherwise the difference is not a gain of the
program, and the comparison is refused with exit code 2.
"""

import json
import sys

SAME_RUN = ("workload", "size", "seconds", "trace")
SAME_ENV = ("numba_present", "use_numba", "PLATEFEM_PURE_NUMPY", "nproc", "solver_routes")


def mismatches(before, after):
    out = [f"{key}: {before[key]!r} != {after[key]!r}"
           for key in SAME_RUN if before[key] != after[key]]
    out += [f"env.{key}: {before['env'][key]!r} != {after['env'][key]!r}"
            for key in SAME_ENV if before["env"][key] != after["env"][key]]
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        before = json.load(fh)
    with open(argv[1]) as fh:
        after = json.load(fh)
    problems = mismatches(before, after)
    if problems:
        print("refused: the results are not comparable", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 2
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name:32s} {old['value']:.6g} -> (missing) {old['unit']}")
            continue
        ratio = new["value"] / old["value"] if old["value"] else float("nan")
        print(f"{name:32s} {old['value']:.6g} -> {new['value']:.6g} {old['unit']}"
              f"  ({ratio:.3f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
