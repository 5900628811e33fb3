"""Span tracing for one ``qx`` process, and the per-layer metrics built from it.

Traced child:  python bench/spans.py OUT RUN_ID QX_ARGS...

It imports ``qindex``, wraps from outside the public names one module
imports from another (they are module globals looked up at call time, so
replacing them reroutes every call), runs ``qindex.cli.main`` under a root
span and writes the spans to OUT (.npz) when ``main`` returns.  Each span
is (name, start, end, parent, run id); counters observed at the same
boundaries (results, iterations, classes) go into the same file.  Nothing
inside ``src/`` changes.

``layer_metrics`` turns the span files of one workload iteration into the
per-layer metrics.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LEVELS = range(2, 8)  # enumeration orders of the enumerate workload

# span name -> (module, global name) pairs wrapped under that name
WRAPPED = {
    "graphs.decode": [("cli", "graph6_decode"), ("search", "graph6_decode")],
    "canonical": [("search", "canonical_key"), ("search", "canonical_graph6")],
    "forbidden": [("search", "contains_kst"), ("cli", "find_kst"), ("constructions", "find_kst")],
    "spectral.q": [("cli", "q_index"), ("search", "q_index")],
    "spectral.adj": [("cli", "adjacency_radius")],
    "spectral.power": [("search", "_power_largest")],
    "spectral.full": [("cli", "full_spectrum"), ("search", "_jacobi")],
    "search.pattern_check": [("search", "_contains_through")],
    "search.finish": [("search", "_finish_report")],
    "search.scan": [("cli", "exhaustive_max_q"), ("cli", "join_cap_scan")],
    "search.hunt": [("cli", "heuristic_max_q")],
    "constructions.build": [("cli", "build_extremal")],
}

# span name -> layer metric that sums its self time; every enumeration
# level span ("search.level.<k>") counts as search.self_s
SELF_METRIC = {
    "graphs.decode": "graphs.decode_s",
    "graphs.new": "graphs.new_s",
    "canonical": "canonical.s",
    "forbidden": "forbidden.s",
    "spectral.q": "spectral.q_s",
    "spectral.adj": "spectral.adj_s",
    "spectral.power": "spectral.power_s",
    "spectral.full": "spectral.full_s",
    "search.pattern_check": "search.pattern_check_s",
    "search.scan": "search.self_s",
    "search.hunt": "search.self_s",
    "search.finish": "search.self_s",
    "constructions.build": "constructions.build_s",
    "cli.main": "cli.self_s",
}
SELF_METRICS = sorted(set(SELF_METRIC.values()))

CALLS = {
    "graphs.decode_calls": "graphs.decode",
    "graphs.new_calls": "graphs.new",
    "canonical.calls": "canonical",
    "forbidden.calls": "forbidden",
    "spectral.q_calls": "spectral.q",
    "spectral.power_calls": "spectral.power",
    "spectral.full_calls": "spectral.full",
    "search.pattern_check_calls": "search.pattern_check",
}


class Tracer:
    """In-memory span store for one process; ``save`` writes it out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.classes: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def rename(self, idx: int, name: str) -> None:
        self.name[idx] = self._id(name)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, traced)

    def wrap_levels(self, search) -> None:
        """Time each ``enumerate_levels`` step without its consumer."""
        fn = search.enumerate_levels

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            name = "search.level.1"
            try:
                while True:
                    idx = self.open(name)
                    try:
                        order, kept, seen = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    name = f"search.level.{order}"
                    self.rename(idx, name)
                    self.counters[f"search.level_seen.{order}"] += seen
                    self.counters[f"search.level_kept.{order}"] += len(kept)
                    yield order, kept, seen
            finally:
                gen.close()

        search.enumerate_levels = traced

    def install(self) -> None:
        from qindex import cli, constructions, graphs, search

        modules = {"cli": cli, "search": search, "constructions": constructions}
        c = self.counters

        def canonical(result):
            self.classes.add(hash(result))

        def forbidden(result):
            c["forbidden.contains"] += result not in (None, False)

        def spectral(result):
            c["spectral.q_iters"] += result.iterations
            c["spectral.fallbacks"] += result.method == "full"

        def adjacency(result):
            c["spectral.fallbacks"] += result.method == "full"

        def power(result):
            c["spectral.power_iters"] += result[3]

        def hunt(report):
            c["search.proposals"] += report.graphs_seen
            c["search.evaluated"] += report.free_graphs

        observers = {
            "canonical": canonical,
            "forbidden": forbidden,
            "spectral.q": spectral,
            "spectral.adj": adjacency,
            "spectral.power": power,
            "search.hunt": hunt,
        }
        for name, targets in WRAPPED.items():
            for module, attr in targets:
                self.wrap(modules[module], attr, name, observers.get(name))
        self.wrap(graphs.Graph, "__init__", "graphs.new")
        self.wrap_levels(search)

    def run(self, argv: list[str]) -> int:
        from qindex import cli

        idx = self.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self.close(idx)

    def save(self, path: str) -> None:
        self.counters["canonical.classes"] = len(self.classes)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            run=np.array(self.run_id),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(dict(self.counters))),
        )


def load(path: str) -> dict:
    with np.load(path) as z:
        return {
            "names": json.loads(str(z["names"])),
            "counters": json.loads(str(z["counters"])),
            **{k: z[k] for k in ("name", "parent", "start", "end")},
        }


def _span_sums(trace: dict) -> dict:
    """Per span name: self seconds, inclusive seconds, calls, longest call;
    plus the seconds of report finishing done inside hunts."""
    dur = trace["end"] - trace["start"]
    parent = trace["parent"]
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[parent >= 0], dur[parent >= 0])
    own = dur - covered
    sums = {"self": Counter(), "total": Counter(), "calls": Counter(), "longest": Counter()}
    for i, name in enumerate(trace["names"]):
        mask = trace["name"] == i
        sums["self"][name] = float(own[mask].sum())
        sums["total"][name] = float(dur[mask].sum())
        sums["calls"][name] = int(mask.sum())
        sums["longest"][name] = float(dur[mask].max())
    names = trace["names"]
    hunt_finish = 0.0
    if "search.hunt" in names and "search.finish" in names:
        finish = np.flatnonzero(trace["name"] == names.index("search.finish"))
        under = finish[trace["name"][parent[finish]] == names.index("search.hunt")]
        hunt_finish = float(dur[under].sum())
    sums["total"]["search.hunt_finish"] = hunt_finish
    return sums


def layer_metrics(paths: list[str]) -> dict:
    """Per-layer metrics of one workload iteration, summed over its traced
    processes.  ``*_s`` metrics named after a layer are self times;
    ``search.level_s.<k>`` and ``search.finish_s`` are inclusive stage
    times."""
    selfs, total, calls, longest, counters = Counter(), Counter(), Counter(), Counter(), Counter()
    for path in paths:
        trace = load(path)
        sums = _span_sums(trace)
        selfs.update(sums["self"])
        total.update(sums["total"])
        calls.update(sums["calls"])
        longest |= sums["longest"]  # Counter union keeps the larger value
        counters.update(trace["counters"])

    def ratio(num, den):
        return num / den if den else 0.0

    out = dict.fromkeys(SELF_METRICS, 0.0)
    for name, seconds in selfs.items():
        out[SELF_METRIC.get(name) or "search.self_s"] += seconds
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    out["canonical.max_call_s"] = longest["canonical"]
    out["canonical.new_class_ratio"] = ratio(counters["canonical.classes"], calls["canonical"])
    out["forbidden.contains_ratio"] = ratio(counters["forbidden.contains"], calls["forbidden"])
    out["spectral.q_iters"] = counters["spectral.q_iters"]
    out["spectral.fallbacks"] = counters["spectral.fallbacks"]
    out["spectral.power_iters"] = counters["spectral.power_iters"]
    for k in LEVELS:
        out[f"search.level_s.{k}"] = total[f"search.level.{k}"]
        out[f"search.level_seen.{k}"] = counters[f"search.level_seen.{k}"]
        out[f"search.level_kept.{k}"] = counters[f"search.level_kept.{k}"]
    out["search.finish_s"] = total["search.finish"]
    anneal_s = total["search.hunt"] - total["search.hunt_finish"]
    out["search.proposal_us"] = ratio(anneal_s * 1e6, counters["search.proposals"])
    out["search.eval_ratio"] = ratio(counters["search.evaluated"], counters["search.proposals"])
    return out


def main(argv: list[str]) -> int:
    out, run_id, *qx_args = argv
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.run(qx_args)
    finally:
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
