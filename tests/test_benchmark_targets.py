"""The benchmark's traced runs wrap platefem functions by name.

``platebench/spans.py`` lists them in ``TARGETS``; a renamed or deleted
function would otherwise surface only when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "platebench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("platebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"platefem.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, missing
