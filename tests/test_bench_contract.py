"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist, or traced benchmark runs stop at install time."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    missing = []
    for spec in spans.SPECS:
        try:
            fn, _ = spans.original(spec)
        except (AttributeError, KeyError):
            missing.append(f"{spec['module']}.{spec['qualname']}")
            continue
        assert callable(fn), spec["qualname"]
    assert missing == []
