"""The benchmark's span tracer wraps module globals of ``qindex`` by name
(``bench/spans.py``) and reads fields of what they return; a rename in
``src/`` must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _wrapped_targets():
    targets = [pair for pairs in _load_spans().WRAPPED.values() for pair in pairs]
    return targets + [("search", "enumerate_levels"), ("graphs", "Graph.__init__")]


@pytest.mark.parametrize("module, name", _wrapped_targets())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"qindex.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


# spans a traced command must record: qindex and the hunt certify their q
# by q_index (spectral.q), and the hunt scores every proposal through
# search._jacobi, which the tracer names spectral.full; prop4 certifies its
# joins in one stacked call no traced name wraps, so only its scan span is
# seen; the verify --stream case scores no graph, so it has no entry
RECORDED_SPANS = {
    "qindex": ["spectral.q"],
    "hunt": ["spectral.q", "spectral.full"],
    "prop4": ["search.scan"],
}


@pytest.mark.parametrize("argv, counters", [
    (["qindex", "FILE"], []),
    (["hunt", "--n", "8", "--t", "2", "--s", "1", "--budget", "50"], []),
    (["verify", "--n", "6", "--t", "2", "--s", "2", "--stream", "FILE6"], ["canonical.classes"]),
    (["prop4", "--m", "6", "--s", "2"], ["search.level_seen.6", "search.level_kept.6"]),
])
def test_traced_run_fills_its_counters(tmp_path, argv, counters):
    # the observers read SpectralResult.iterations/.method, the keys
    # search.canonical_key returns and the kept list enumerate_levels yields
    graphs = tmp_path / "graphs.g6"
    graphs.write_text("DQc\nI?h]@eOWG\n")
    # K6, K_{2,4} twice (relabeled) and K_{3,3}: each contains K_{2,3}, so the
    # argmax is empty and every class the tracer sees comes from canonical_key
    order6 = tmp_path / "order6.g6"
    order6.write_text("E~~w\nE]r?\nE?~o\nEFz_\n")
    out = tmp_path / "trace.npz"
    files = {"FILE": str(graphs), "FILE6": str(order6)}
    argv = [files.get(a, a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(SPANS), str(out), "run", *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    trace = _load_spans().load(str(out))
    saved = trace["counters"]
    assert saved.get("spectral.fallbacks", 0) == 0  # absent when nothing was scored
    for name in counters:
        assert saved[name] > 0
    recorded = {trace["names"][i] for i in trace["name"]}
    for name in RECORDED_SPANS.get(argv[0], []):
        assert name in recorded
