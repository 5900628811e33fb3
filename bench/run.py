"""Benchmark for ``qx``: four workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root.  Each ``qx`` command runs as users run it,
``python -m qindex.cli`` with ``src`` on the path, one child process at a
time (a closed loop with one client; BLAS pinned to one thread).  The
workload's command sequence repeats until ``--seconds`` is used up, and
every report is checked against the independent oracle in ``oracle.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  wall_s       seconds for the whole command sequence, spawn to exit,
               median over the run's repetitions
  items_per_s  the workload's fixed item count / wall_s
  setup_s      median time of ``qx --version``, run once before each
               repetition: interpreter start plus importing qindex and
               numpy, paid by every invocation
  peak_rss_mb  largest resident set of any qx child in the workload

Times are in reference seconds.  On the shared 2-core host this was tuned
on, other tenants slowed the CPU by up to 1.6x for minutes at a time:
over ten seeds, raw times of 30-second runs spread 0.08-0.23
(interquartile range over median), and 0.55 in a set a slow phase cut
through, whatever the per-run statistic.  Each repetition is therefore
bracketed by a fixed pure-Python loop, and its raw monotonic time is
scaled by REFERENCE_S over the loop's time: the time it would take where
the loop takes 30 ms.  Scaled, the same runs spread 0.03-0.10.  Raw times
and scale factors are printed next to them.  Repetitions are short
(1-3 s), so a run holds many of them.

With ``--trace 1`` iterations alternate untraced and traced; the traced
ones run each command under ``spans.py`` and the last line carries the
per-layer metrics (medians over traced iterations, raw seconds) and the
tracing overhead (median traced minus median untraced repetition, in
reference seconds).  End-to-end numbers come only from untraced
iterations.

Every qx invocation and every checked per-graph result is one operation;
an unexpected exit code, a timeout, a traceback or an oracle disagreement
fails it.  ``failed / attempted`` is the error rate.  The run exits 1 when
any operation failed, and 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
import spans

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
COMMAND_TIMEOUT = 60.0  # seconds; a killed command is a failed operation
HARD_LIMIT = 150.0  # no command starts or runs past this many seconds into the run
S = 2  # forbidden K_{2,s+1}: every workload runs at t = 2, s = 2
# Times are reported in reference seconds: raw seconds scaled by
# REFERENCE_S over the calibration loop's time around the same repetition.
CALIBRATION_LOOPS = 300_000
REFERENCE_S = 0.03


@dataclass
class Step:
    """One qx invocation and the oracle check for its report."""

    args: list[str]
    check: Callable[[dict], tuple[int, list[str]]]  # -> (results checked, disagreements)


@dataclass
class Workload:
    steps: list[Step]
    items: int
    notes: dict = field(default_factory=dict)


def enumerate_workload(seed: int, quick: bool) -> Workload:
    """Builtin canonical augmentation: many tiny graphs, canonical labeling
    dominates.  Deterministic; the seed does not change the input."""
    n = 6 if quick else 7
    steps = [
        Step(["verify", "--n", str(n), "--t", "2", "--s", str(S)],
             lambda r: oracle.check_verify(r, n, S)),
        Step(["prop4", "--m", str(n), "--s", str(S)],
             lambda r: oracle.check_prop4(r, n, S)),
    ]
    items = oracle.PINNED_VERIFY[(n, S)]["graphs_seen"] + oracle.max_degree_le2_classes(n)
    return Workload(steps, items)


def anneal_workload(seed: int, quick: bool) -> Workload:
    """Warm-started power iteration on one evolving matrix per hunt.

    A hunt's work depends on its trajectory: at budget 2000 the power
    iterations of one hunt spread about 0.1 across seeds, so every order
    runs two hunts, seeded 2*seed and 2*seed + 1."""
    orders, budget = ((10, 12), 500) if quick else ((16, 22), 2000)
    earlier: dict = {}
    steps = [
        Step(["hunt", "--n", str(n), "--t", "2", "--s", str(S),
              "--budget", str(budget), "--seed", str(hunt_seed)],
             lambda r, n=n, hunt_seed=hunt_seed: oracle.check_hunt(
                 r, n, S, budget, earlier.setdefault((n, hunt_seed), {})))
        for n in orders for hunt_seed in (2 * seed, 2 * seed + 1)
    ]
    return Workload(steps, budget * len(steps))


def corpus_workload(seed: int, quick: bool) -> Workload:
    """Cold batched spectral work over one graph6 file, plus a construction."""
    path = WORK / "corpus.g6"
    lines = inputs.write_graph6(path, inputs.corpus_graphs(seed, quick))
    n = 10 if quick else 22
    steps = [
        Step(["qindex", str(path)], lambda r: oracle.check_qindex(r, lines)),
        Step(["spectrum", str(path)], lambda r: oracle.check_spectrum(r, lines)),
        Step(["free-check", str(path), "--t", "2", "--s", str(S)],
             lambda r: oracle.check_free(r, lines, S)),
        Step(["construct", "--n", str(n), "--s", str(S), "--t", "2"],
             lambda r: oracle.check_construct(r, n, S)),
    ]
    return Workload(steps, len(lines) * 3, {"graphs": len(lines)})


def stream_workload(seed: int, quick: bool) -> Workload:
    """Canonical dedup of a stream with symmetric hub joins and duplicates."""
    path = WORK / "stream.g6"
    lines = inputs.write_graph6(path, inputs.stream_graphs(seed, quick))
    n = inputs.QUICK_STREAM_ORDER if quick else inputs.STREAM_ORDER
    classes = len({inputs.invariant(inputs.graph6_decode(x)) for x in lines})
    steps = [
        Step(["verify", "--n", str(n), "--t", "2", "--s", str(S), "--stream", str(path)],
             lambda r: oracle.check_stream(r, lines, n, S)),
    ]
    return Workload(steps, len(lines), {"lines": len(lines), "duplicate_ratio": 1 - classes / len(lines)})


WORKLOADS = {
    "enumerate": enumerate_workload,
    "anneal": anneal_workload,
    "corpus": corpus_workload,
    "stream": stream_workload,
}


@dataclass
class Outcome:
    wall: float
    returncode: int | None  # None when killed on timeout
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns qx children one at a time and counts operations."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str]) -> Outcome:
        timeout = min(COMMAND_TIMEOUT, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Outcome(0.0, None, 0.0, "", "")
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            exited = False
            try:  # the child never outlives this call, whatever happens here
                pidfd = os.pidfd_open(proc.pid)
                try:
                    exited = bool(select.select([pidfd], [], [], timeout)[0])
                finally:
                    os.close(pidfd)
            finally:
                if not exited:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            wall,
            proc.returncode if exited else None,
            usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def qx(self, args: list[str], trace_out: Path | None = None, run_id: str = "") -> Outcome:
        if trace_out is None:
            argv = [sys.executable, "-m", "qindex.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "spans.py"), str(trace_out), run_id, *args]
        return self.spawn(argv)

    def judge(self, label: str, outcome: Outcome, check) -> None:
        """Count the invocation and each checked result; record failures."""
        self.attempted += 1
        if outcome.returncode is None:
            self.failures.append(f"{label}: timed out or not started before the deadline")
        elif outcome.returncode != 0:
            self.failures.append(f"{label}: exit code {outcome.returncode}: {outcome.stderr[-300:]}")
        elif "Traceback" in outcome.stderr:
            self.failures.append(f"{label}: traceback on stderr")
        else:
            try:
                checked, fails = check(outcome.stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.failures.append(f"{label}: unreadable report: {exc!r}")
                return
            self.attempted += checked
            self.failures.extend(f"{label}: {f}" for f in fails)


def check_version(text: str):
    return 0, [] if text.startswith("qx ") else [f"unexpected --version output {text!r}"]


def run_iteration(runner: Runner, work: Workload, label: str, traced: bool):
    """One pass over the workload's commands; returns (wall, rss, span files)."""
    wall, rss, files = 0.0, 0.0, []
    for j, step in enumerate(work.steps):
        trace_out = WORK / "spans" / f"{label}-cmd{j}.npz" if traced else None
        outcome = runner.qx(step.args, trace_out, f"{label}-cmd{j}")
        runner.judge(f"{label} qx {' '.join(step.args)}", outcome,
                     lambda text, step=step: step.check(json.loads(text)))
        wall += outcome.wall
        rss = max(rss, outcome.rss_mb)
        if traced and trace_out.exists():
            files.append(str(trace_out))
    return wall, rss, files


def calibration_s() -> float:
    """Seconds this process takes for a fixed pure-Python loop: the host's
    current speed for the kind of code qx runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def describe(values: list[float]) -> str:
    return (f"n={len(values)} min={min(values):.4f} "
            f"median={statistics.median(values):.4f} max={max(values):.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small inputs, for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qindex" / "cli.py").is_file():
        print(f"bench: no qindex sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "spans").mkdir(parents=True)
    runner = Runner(t_start + HARD_LIMIT)
    work = WORKLOADS[args.workload](args.seed, args.quick)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, 1 client, one qx child at a time",
        "items": work.items,
        **work.notes,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))

    runner.judge("warm-up qx --version", runner.qx(["--version"]), check_version)
    reps, rss, layers = [], 0.0, []
    loop_start = time.perf_counter()
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 1
        label = f"{args.workload}-{args.seed}-it{i}"
        before = calibration_s()
        outcome = runner.qx(["--version"])
        runner.judge(f"{label} qx --version", outcome, check_version)
        wall, it_rss, files = run_iteration(runner, work, label, traced)
        scale = REFERENCE_S / statistics.mean((before, calibration_s()))
        reps.append({"traced": traced, "wall": wall, "setup": outcome.wall, "scale": scale})
        if traced:
            layers.append(spans.layer_metrics(files))
        else:
            rss = max(rss, it_rss)
        elapsed = time.perf_counter() - loop_start
        owed = bool(args.trace) and not layers
        if runner.failures or time.perf_counter() - t_start > HARD_LIMIT:
            break
        if not owed and elapsed + wall > args.seconds:
            break

    untraced = [r for r in reps if not r["traced"]]
    wall_s = statistics.median(r["wall"] * r["scale"] for r in untraced)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (work.items / wall_s, "1/s"),
        "setup_s": (statistics.median(r["setup"] * r["scale"] for r in reps), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    failed = len(runner.failures)
    for name, (value, unit) in end_to_end.items():
        print(f"{name:<12} {value:12.6g} {unit}")
    print(f"{'error_rate':<12} {failed / runner.attempted:12.6g} ({failed} of {runner.attempted} operations)")
    print(f"raw wall_s: {describe([r['wall'] for r in untraced])}; "
          f"raw setup_s: {describe([r['setup'] for r in reps])}; "
          f"speed scale: {describe([r['scale'] for r in reps])}")
    for f in runner.failures[:20]:
        print(f"FAIL {f}")

    if args.trace and layers:
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        traced_s = [r["wall"] * r["scale"] for r in reps if r["traced"]]
        per_layer["trace.overhead_s"] = statistics.median(traced_s) - wall_s
        units = {k: _unit(k) for k in per_layer}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        total = sum(per_layer[k] for k in spans.SELF_METRICS)
        print(f"self-time shares of {total:.4f} s traced in qx:")
        for k in sorted(spans.SELF_METRICS, key=per_layer.get, reverse=True):
            print(f"  {k:<24} {per_layer[k]:10.4f} s  {100 * per_layer[k] / total:5.1f}%")
        print(f"tracing overhead: {per_layer['trace.overhead_s']:.4f} s per iteration")
    elif args.trace:
        metrics = {}  # the run failed before any traced iteration
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    record = {"meta": meta, "repetitions": reps, "layers": layers,
              "failures": runner.failures, "metrics": metrics}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


def _unit(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s") or metric.endswith(".s") or "_s." in metric:
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
