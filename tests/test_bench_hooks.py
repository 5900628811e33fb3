"""The benchmark's span tracer wraps module globals of ``qindex`` by name
(``bench/spans.py``); a rename in ``src/`` must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrapped_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [pair for pairs in spans.WRAPPED.values() for pair in pairs]
    return targets + [("search", "enumerate_levels"), ("graphs", "Graph.__init__")]


@pytest.mark.parametrize("module, name", _wrapped_targets())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"qindex.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
