"""Write ``reference.json``: the values the study and assemble gates expect.

Run from the repository root, on a commit whose numerics are trusted:

    PYTHONPATH=src python3 platebench/make_reference.py

Values are taken from one untimed pass with seed 0 at each size; the
gates compare every later run, on any seed, against them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import to_builtin  # noqa: E402


def main():
    reference = {}
    for workload in ("study", "assemble"):
        for size in workloads.SIZES:
            state = workloads.prepare(workload, 0, size)
            _, outputs = workloads.run_pass(state, spans.Recorder())
            reference.setdefault(workload, {})[size] = workloads.observe(state, outputs)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True, default=to_builtin) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
