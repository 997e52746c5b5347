"""The benchmark's span targets must name functions the package still has.

``bench/spans.py`` wraps each ``(module, function)`` pair in ``TARGETS``
during a traced benchmark run, and a pair that no longer resolves fails
every traced operation.  Checking them here makes a rename or deletion fail
in the test suite instead.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves_to_a_callable():
    targets = load_targets()
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, name in targets
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert missing == []
