"""Smoke test of the benchmark itself, on the small ``--quick`` inputs.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, and checks the result line
against BENCHMARK.json; then checks that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, *extra: str):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    done = bench(ROOT, workload, trace, "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
