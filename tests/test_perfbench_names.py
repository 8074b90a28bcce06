"""perfbench/spans.py wraps package functions by name; every name it traces
must still be a function of its anchorloc module, or ``--trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"anchorloc.{module}"), attr, None)):
            missing.append(name)
    assert spans.TRACED and missing == []
