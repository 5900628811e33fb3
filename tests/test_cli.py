import ast
import gc
import graphlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import qindex
import qindex.cli as cli
import qindex.constructions as constructions
from qindex.constructions import circulant
from qindex.graphs import Graph, complete_graph, from_edge_list, graph6_encode, join
from qindex.search import JoinCapReport, SearchReport
from conftest import disjoint_union, random_graph, relabel


@pytest.fixture()
def g6_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("DQc\n@\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSchema:
    def test_json_envelope(self, capsys, g6_file):
        code, out, _ = run(capsys, "qindex", g6_file)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "command", "parameters", "results", "tolerances", "seed", "runtime_ms", "version",
        }
        assert payload["command"] == "qindex"
        assert payload["results"][0]["graph6"] == "DQc"
        # P_5: q = 2 + 2cos(pi/5)
        assert payload["results"][0]["q"] == pytest.approx(2 + 2 * math.cos(math.pi / 5), abs=1e-6)
        assert payload["results"][1]["merris_bound"] is None
        for result in payload["results"]:
            assert set(result) == {
                "graph6", "n", "edges", "max_degree", "q", "q_residual", "lambda", "merris_bound",
            }

    def test_ten_significant_digits(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "13", "--s", "1", "--t", "2")
        payload = json.loads(out)
        val = payload["results"][0]["q_bound_t2"]
        assert val == pytest.approx(13.17890835, abs=5e-9)
        assert val != pytest.approx(13.178908345800273, abs=1e-14)  # clamped

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--s", "1")
        _, out2, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--s", "1")
        p1, p2 = json.loads(out1), json.loads(out2)
        p1["runtime_ms"] = p2["runtime_ms"] = 0
        p1["results"][0]["runtime_ms"] = p2["results"][0]["runtime_ms"] = 0
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


class TestCommands:
    def test_spectrum(self, capsys, g6_file):
        code, out, _ = run(capsys, "spectrum", g6_file, "--matrix", "A")
        payload = json.loads(out)
        assert code == 0
        eigs = payload["results"][0]["eigenvalues"]
        assert len(eigs) == 5
        assert eigs == sorted(eigs)

    def test_free_check(self, capsys, tmp_path):
        path = tmp_path / "c5.g6"
        path.write_text(graph6_encode(circulant(5, [1])) + "\n")
        code, out, _ = run(capsys, "free-check", str(path), "--t", "2", "--s", "1")
        payload = json.loads(out)
        assert payload["results"][0]["verdict"] == "free"
        assert payload["results"][0]["witness"] is None

    def test_free_check_contains(self, capsys, tmp_path):
        path = tmp_path / "c4.g6"
        path.write_text(graph6_encode(circulant(4, [1])) + "\n")
        code, out, _ = run(capsys, "free-check", str(path), "--t", "2", "--s", "1")
        payload = json.loads(out)
        assert payload["results"][0]["verdict"] == "contains"
        assert payload["results"][0]["witness"] == {"left": [0, 2], "right": [1, 3]}

    def test_bounds_grid(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "13", "22", "--s", "1", "2", "--t", "2")
        payload = json.loads(out)
        assert len(payload["results"]) == 4

    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "6", "--s", "2", "--t", "2")
        payload = json.loads(out)
        res = payload["results"][0]
        assert code == 0
        assert res["free"] is True
        assert res["q"] == pytest.approx(7.236067977, abs=1e-8)

    def test_prop4(self, capsys):
        code, out, _ = run(capsys, "prop4", "--m", "5", "--s", "2")
        payload = json.loads(out)
        res = payload["results"][0]
        assert code == 0
        assert res["all_capped"] and res["equality_all_regular"]

    def test_hunt_seed_echoed(self, capsys):
        code, out, _ = run(capsys, "hunt", "--n", "6", "--t", "2", "--s", "1",
                           "--budget", "300", "--seed", "11")
        payload = json.loads(out)
        assert code == 0
        assert payload["seed"] == 11

    def test_ledger(self, capsys):
        code, out, _ = run(capsys, "ledger", "--s", "1", "--n", "13")
        payload = json.loads(out)
        assert code == 0
        assert payload["results"][0]["all_passed"] is True

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("DQc\n"))
        code, out, _ = run(capsys, "qindex", "-")
        assert code == 0
        assert json.loads(out)["results"][0]["n"] == 5

    def test_verify_stream_of_symmetric_hub_joins(self, capsys, tmp_path):
        # relabeled copies of the two extremal hub joins collapse to one
        # class each; the other lines have distinct edge counts (the joins
        # have 34), so the file holds exactly six classes
        rng = random.Random(18)
        hub = complete_graph(1)
        joins = [join(hub, circulant(17, [1])), join(hub, disjoint_union(circulant(8, [1]), circulant(9, [1])))]
        pairs = [(u, v) for u in range(18) for v in range(u + 1, 18)]
        others = [from_edge_list(18, rng.sample(pairs, m)) for m in (5, 12, 20, 27)]
        lines = []
        for g in joins + others:
            for _ in range(3 if g in joins else 1):
                perm = list(range(18))
                rng.shuffle(perm)
                lines.append(graph6_encode(relabel(g, perm)))
        rng.shuffle(lines)
        path = tmp_path / "order18.g6"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", "--n", "18", "--t", "2", "--s", "2", "--stream", str(path))
        res = json.loads(out)["results"][0]
        assert code == 0
        assert res["graphs_seen"] == 6
        assert res["argmax_is_extremal_join"] is True
        assert res["verdict"] == "bound_holds"


class TestFormats:
    def test_csv_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "13", "--s", "1", "--t", "2",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,s,t,")
        assert lines[1].startswith("13,1,2,")

    def test_csv_bounds_grid_mixing_conjecture_shapes(self, capsys):
        # the t = 3 row has s < t - 1 and no conjecture bound, the t = 2 row
        # one: both rows still have the columns the header takes from the first
        code, out, _ = run(capsys, "bounds", "--n", "13", "--s", "1", "--t", "3", "2",
                           "--format", "csv")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert [row.split(",")[:3] for row in rows] == [["13", "1", "3"], ["13", "1", "2"]]
        assert [c for c in header.split(",") if c.startswith("applicability.")] == [
            "applicability.adjacency_edge", "applicability.q_t2_proved", "applicability.conjecture_shape"]

    def test_csv_rejected_elsewhere(self, capsys, g6_file):
        code, _, err = run(capsys, "qindex", g6_file, "--format", "csv")
        assert code == 1
        assert "csv" in err

    def test_text(self, capsys):
        code, out, _ = run(capsys, "ledger", "--s", "1", "--n", "13", "--format", "text")
        assert code == 0
        assert out.startswith("# qx ledger")


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_usage_error_missing_flag(self, capsys):
        assert run(capsys, "bounds", "--n", "5")[0] == 1

    def test_computation_error_missing_file(self, capsys):
        code, _, err = run(capsys, "qindex", "/nonexistent/file.g6")
        assert code == 2
        assert "error" in err

    def test_computation_error_hypothesis(self, capsys):
        code, _, err = run(capsys, "ledger", "--s", "1", "--n", "4")
        assert code == 2

    def test_computation_error_bad_graph6(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("not graph6!!\n")
        code, _, err = run(capsys, "qindex", str(path))
        assert code == 2
        assert "line 1" in err

    def test_violation_exit_code(self, capsys, monkeypatch):
        # exit 3 is tied to verdict=bound_violated in the report
        fake = SearchReport(
            n=5, s=1, t=2, graphs_seen=1, free_graphs=1, max_q=99.0, argmax=["Dto"],
            bound_value=5.56, bound_applicable=True, verdict="bound_violated",
            argmax_is_extremal_join=False, exhaustive=True, runtime_ms=0,
        )
        monkeypatch.setattr(cli, "exhaustive_max_q", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--s", "1")
        assert code == 3
        assert json.loads(out)["results"][0]["verdict"] == "bound_violated"

    @pytest.mark.parametrize("name, fake, argv", [
        ("join_cap_scan", JoinCapReport(
            m=4, s=1, classes=1, bound=4.56, max_q=99.0, all_capped=False, equality_graph6=[],
            equality_all_regular=True, regular_all_equality=False, runtime_ms=0,
            verdict="bound_violated",
        ), ("prop4", "--m", "4", "--s", "1")),
        ("heuristic_max_q", SearchReport(
            n=6, s=1, t=2, graphs_seen=1, free_graphs=1, max_q=99.0, argmax=["E?Bw"],
            bound_value=6.53, bound_applicable=False, verdict="bound_violated",
            argmax_is_extremal_join=False, exhaustive=False, runtime_ms=0, seed=0, budget=10,
        ), ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "10")),
    ], ids=["prop4", "hunt"])
    def test_violation_exit_code_of_each_scan(self, capsys, monkeypatch, name, fake, argv):
        monkeypatch.setattr(cli, name, lambda *a, **k: fake)
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert json.loads(out)["results"][0]["verdict"] == "bound_violated"

    @pytest.mark.parametrize("argv", [
        ("hunt", "--n", "1", "--t", "2", "--s", "1", "--budget", "10"),
        ("free-check", "FILE", "--t", "1", "--s", "1"),
        ("verify", "--n", "5", "--t", "2", "--s", "0"),
        ("prop4", "--m", "4", "--s", "0"),
        ("prop4", "--m", "99", "--s", "1"),
        ("prop4", "--m", "0", "--s", "1"),
        ("prop4", "--m", "-1", "--s", "1"),
        ("hunt", "--n", "6", "--t", "0", "--s", "1", "--budget", "10"),
        ("ledger", "--s", "2", "--n", "0"),
        ("construct", "--n", "5", "--s", "1", "--t", "9"),
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "0"),
        ("hunt", "--n", "63", "--t", "2", "--s", "1", "--budget", "10"),
        ("verify", "--n", "10", "--t", "2", "--s", "1"),
        # a stream with no graph line enumerates nothing, so it proves nothing
        ("verify", "--n", "5", "--t", "2", "--s", "2", "--stream", "EMPTY"),
        # closed forms past the range of a double
        ("bounds", "--n", "1" + "0" * 309, "--s", "1", "--t", "2"),
        ("bounds", "--n", "13", "--s", "1" + "0" * 309, "--t", "2"),
    ])
    def test_bad_input_is_a_computation_error(self, capsys, tmp_path, g6_file, argv):
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        argv = [{"FILE": g6_file, "EMPTY": str(empty)}.get(a, a) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "qx: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_prop4_order_error_names_its_own_flag(self, capsys, m):
        code, _, err = run(capsys, "prop4", "--m", m, "--s", "1")
        assert (code, err) == (2, f"qx: error: need m >= 1, got {m}\n")

    @pytest.mark.parametrize("argv", [
        ("prop4", "--m", "4", "--s", "1"),
        ("prop4", "--m", "5", "--s", "1"),
        ("verify", "--n", "6", "--t", "2", "--s", "2"),
    ])
    def test_cap_met_within_float_error_is_not_a_violation(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["results"][0]["verdict"] == "bound_holds"

    @pytest.mark.parametrize("argv", [
        ("qindex", "FILE"),
        ("spectrum", "FILE"),
        ("free-check", "FILE", "--t", "2", "--s", "1"),
        ("verify", "--n", "5", "--t", "2", "--s", "1", "--stream", "FILE"),
    ])
    def test_non_ascii_graph6_file_is_a_computation_error(self, capsys, tmp_path, argv):
        # a non-ASCII byte, then a multi-byte (order > 62) header: each names its line
        path = tmp_path / "bad.g6"
        for data in (b"DQc\nD\xffw\n", b"DQc\n~??@??\n"):
            path.write_bytes(data)
            code, _, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
            assert code == 2
            assert "line 2" in err

    @pytest.mark.parametrize("argv", [
        ("qindex", "FILE"),
        ("spectrum", "FILE"),
        ("free-check", "FILE", "--t", "2", "--s", "1"),
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--stream", "FILE"),
    ], ids=["qindex", "spectrum", "free-check", "verify-stream"])
    def test_only_a_newline_ends_a_graph6_line(self, capsys, tmp_path, argv):
        # a form feed is not a line break: the bad graph is on line 1
        path = tmp_path / "ff.g6"
        for data in (b"Bw\fBx\n", b"A_\fA_\nBw\n"):
            path.write_bytes(data)
            code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
            assert (code, out) == (2, "")
            assert "line 1: expected 1 payload bytes" in err


class TestRuntime:
    @pytest.mark.parametrize("argv", [
        ("verify", "--n", "5", "--t", "2", "--s", "1"),
        ("prop4", "--m", "4", "--s", "1"),
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "50"),
    ])
    def test_runtime_ignores_a_wall_clock_running_backwards(self, capsys, monkeypatch, argv):
        ticks = iter(range(10 ** 6, 0, -1000))
        monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert code == 0
        assert payload["runtime_ms"] >= 0
        assert payload["results"][0]["runtime_ms"] >= 0


def _ints(lo, hi):
    return lambda rng: str(rng.randint(lo, hi))


def _pick(*values):
    return lambda rng: rng.choice(values)


def _grid(lo, hi):
    """1-3 integers in lo..hi, the values of one ``bounds`` grid flag."""
    return lambda rng: [str(rng.randint(lo, hi)) for _ in range(rng.randint(1, 3))]


# per command: flag -> value drawer, ranges small enough that each call
# finishes well under a second; "FILE" is the positional graph6 file, a
# drawn None leaves the flag out and a drawn list gives the flag several
# values, so a bounds grid can mix rows with s < t - 1 and s >= t - 1 (seed
# 1 draws one in CSV, whose header comes from the first row)
FUZZ_ARGS = {
    "qindex": {"FILE": None},
    "spectrum": {"FILE": None, "--matrix": _pick(None, "Q", "A", "L")},
    "free-check": {"FILE": None, "--t": _ints(-1, 4), "--s": _ints(-1, 3)},
    "bounds": {"--n": _grid(-2, 40), "--s": _grid(0, 5), "--t": _grid(1, 5),
               "--format": _pick(None, "json", "csv", "text")},
    "construct": {"--n": _ints(0, 20), "--s": _ints(0, 3), "--t": _ints(1, 4)},
    "verify": {"--n": _ints(-1, 6), "--t": _ints(-1, 3), "--s": _ints(-1, 3),
               "--stream": _pick(None, None, "FILE", "-")},
    "prop4": {"--m": _ints(-1, 5), "--s": _ints(-1, 3)},
    "hunt": {"--n": _ints(-1, 14), "--t": _ints(-1, 3), "--s": _ints(-1, 3),
             "--budget": _ints(-1, 50), "--seed": _ints(-1, 9)},
    "ledger": {"--s": _ints(-1, 6), "--n": _ints(-1, 80)},
}
_JUNK = ("--bogus", "-", "7", "x", "--format", "text", "--help")


def _fuzz_argv(rng, path):
    command = rng.choice(sorted(FUZZ_ARGS))
    args = []
    for flag, draw in FUZZ_ARGS[command].items():
        if rng.random() < 0.05:
            continue  # a missing required flag is a usage error
        if draw is None:
            args.append([path])
        elif isinstance(value := draw(rng), list):
            args.append([flag, *value])
        elif value is not None:
            args.append([flag, path if value == "FILE" else value])
    rng.shuffle(args)
    argv = [command] + [a for pair in args for a in pair]
    if rng.random() < 0.15:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_JUNK))
    return argv


def _fuzz_line(rng) -> bytes:
    """A graph6 line of order <= 10, with up to three bytes replaced,
    inserted or deleted."""
    line = bytearray(graph6_encode(random_graph(rng, rng.randint(1, 10), rng.random())).encode())
    for _ in range(rng.randint(0, 3)):
        pos = rng.randrange(len(line) + 1)
        byte = rng.randrange(128, 256) if rng.random() < 0.3 else rng.randrange(256)
        kind = rng.random()
        if kind < 0.4 and pos < len(line):
            line[pos] = byte
        elif kind < 0.7:
            line.insert(pos, byte)
        elif pos < len(line):
            del line[pos]
    return bytes(line)


class TestFuzz:
    """Seeded random input: every run ends in an exit code, never in an
    escaping exception."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_argv(self, capsys, monkeypatch, g6_file, seed):
        rng = random.Random(seed)
        for _ in range(100):
            monkeypatch.setattr("sys.stdin", io.StringIO("DQc\n"))
            argv = _fuzz_argv(rng, g6_file)
            assert run(capsys, *argv)[0] in (0, 1, 2, 3), argv

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph6_bytes(self, capsys, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "fuzz.g6"
        for _ in range(60):
            lines = [_fuzz_line(rng) for _ in range(rng.randint(1, 4))]
            path.write_bytes(b"\n".join(lines) + b"\n")
            order = str(max(lines[0][0] - 63, 1)) if lines[0] else "1"
            for argv in (
                ("qindex", str(path)),
                ("spectrum", str(path), "--matrix", rng.choice("QA")),
                ("free-check", str(path), "--t", "2", "--s", "1"),
                ("verify", "--n", order, "--t", "2", "--s", "1", "--stream", str(path)),
            ):
                assert run(capsys, *argv)[0] in (0, 1, 2, 3), (argv, lines)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "10", "--tol", "1e-3"),
        ("spectrum", "FILE", "--eps", "1"),
        ("verify", "--n", "5", "--t", "2", "--s", "1", "--format", "csv"),
        # every q is scored at spectral.DEFAULT_TOL, which no flag changes
        ("construct", "--n", "6", "--s", "2", "--t", "2", "--tol", "0"),
        # the build always tries the circulant first, then the enumerated regular graphs
        ("construct", "--n", "6", "--s", "2", "--t", "2", "--strategy", "circulant"),
        # the build is deterministic, so no seed picks a regular part
        ("construct", "--n", "6", "--s", "2", "--t", "2", "--seed", "3"),
        ("qindex", "FILE", "--tol", "nan"),
        ("qindex", "FILE", "--tol", "inf"),
        # verdicts compare against closed-form caps by one fixed policy
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--eps", "-5"),
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--eps", "nan"),
        ("prop4", "--m", "4", "--s", "1", "--eps", "-1"),
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "10", "--eps", "inf"),
    ])
    def test_flag_a_command_ignores_is_a_usage_error(self, capsys, g6_file, argv):
        argv = [g6_file if a == "FILE" else a for a in argv]
        assert run(capsys, *argv)[0] == 1

    def test_tolerances_are_the_ones_used(self, capsys, g6_file):
        _, out, _ = run(capsys, "qindex", g6_file)
        assert json.loads(out)["tolerances"] == {"tol": 1e-10}
        _, out, _ = run(capsys, "hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "50")
        assert json.loads(out)["tolerances"] == {"tol": 1e-10, "eps": 1e-7}
        _, out, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--s", "1")
        assert json.loads(out)["tolerances"] == {"tol": 1e-10, "eps": 1e-7}
        _, out, _ = run(capsys, "ledger", "--s", "2", "--n", "22")
        assert json.loads(out)["tolerances"] == {}
        # construct reads q off the join's quotient, not an eigensolver
        _, out, _ = run(capsys, "construct", "--n", "22", "--s", "2", "--t", "2")
        assert json.loads(out)["tolerances"] == {}


SEARCH_KEYS = {
    "n", "s", "t", "graphs_seen", "free_graphs", "max_q", "argmax", "bound_value",
    "bound_applicable", "verdict", "argmax_is_extremal_join", "rest_max_q", "rest_argmax",
    "rest_below_n", "exhaustive", "runtime_ms", "seed", "budget",
}
JOIN_CAP_KEYS = {
    "m", "s", "classes", "bound", "max_q", "all_capped", "equality_graph6",
    "equality_all_regular", "regular_all_equality", "verdict", "runtime_ms",
}
CONSTRUCT_KEYS = {
    "graph6", "free", "witness", "strategy_used", "exhaustive", "attempts", "q", "bound",
}
PARAMETER_KEYS = {
    "verify": {"n", "s", "t", "stream"},
    "prop4": {"m", "s"},
    "hunt": {"n", "s", "t", "budget"},
    "construct": {"n", "s", "t"},
}


@pytest.mark.parametrize("argv, keys", [
    (("verify", "--n", "5", "--t", "2", "--s", "1"), SEARCH_KEYS),
    (("prop4", "--m", "5", "--s", "2"), JOIN_CAP_KEYS),
    (("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "50"), SEARCH_KEYS),
    (("construct", "--n", "6", "--s", "2", "--t", "2"), CONSTRUCT_KEYS),
])
def test_report_keys_pinned(capsys, argv, keys):
    _, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert set(payload["parameters"]) == PARAMETER_KEYS[argv[0]]
    assert set(payload["results"][0]) == keys


SCORED = {"tol": 1e-10, "eps": 1e-7}


# "FILE" is a graph6 file of mixed orders, "STREAM" one of order-5 graphs
@pytest.mark.parametrize("argv, parameters, tolerances, seed", [
    (("qindex", "FILE"), {"file": "FILE"}, {"tol": 1e-10}, None),
    (("spectrum", "FILE", "--matrix", "A"), {"file": "FILE", "matrix": "A"}, {}, None),
    (("free-check", "FILE", "--t", "2", "--s", "1"), {"file": "FILE", "t": 2, "s": 1}, {}, None),
    (("bounds", "--n", "13", "22", "--s", "1", "--t", "2", "3"),
     {"n": [13, 22], "s": [1], "t": [2, 3]}, {}, None),
    (("construct", "--n", "6", "--s", "2", "--t", "2"), {"n": 6, "s": 2, "t": 2}, {}, None),
    (("verify", "--n", "5", "--t", "2", "--s", "1"), {"n": 5, "s": 1, "t": 2, "stream": None}, SCORED, None),
    (("verify", "--n", "5", "--t", "2", "--s", "1", "--stream", "STREAM"),
     {"n": 5, "s": 1, "t": 2, "stream": "STREAM"}, SCORED, None),
    (("prop4", "--m", "4", "--s", "1"), {"m": 4, "s": 1}, SCORED, None),
    (("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "50", "--seed", "3"),
     {"n": 6, "s": 1, "t": 2, "budget": 50}, SCORED, 3),
    (("ledger", "--s", "1", "--n", "13"), {"s": 1, "n": 13}, {}, None),
], ids=["qindex", "spectrum", "free-check", "bounds", "construct", "verify", "verify-stream", "prop4",
        "hunt", "ledger"])
def test_envelope_pinned(capsys, tmp_path, g6_file, argv, parameters, tolerances, seed):
    stream = tmp_path / "order5.g6"
    stream.write_text("DQc\nD~{\n")
    paths = {"FILE": g6_file, "STREAM": str(stream)}
    code, out, _ = run(capsys, *(paths.get(a, a) for a in argv))
    payload = json.loads(out)
    assert code == 0
    assert payload["command"] == argv[0]
    assert payload["parameters"] == {k: paths.get(v, v) if isinstance(v, str) else v
                                     for k, v in parameters.items()}
    assert (payload["tolerances"], payload["seed"]) == (tolerances, seed)


@pytest.mark.parametrize("n", [12144, 16389, 10 ** 6, 10 ** 9])
@pytest.mark.parametrize("t", [2, 3])
def test_bounds_at_orders_where_the_cap_meets_its_window_top(capsys, n, t):
    # from these orders on the t = 2 cap n + 2s/(n-2s) - O(n^-3) rounds to
    # within an ulp of n + 2s/(n-2s), so no float comparison can separate them
    code, out, _ = run(capsys, "bounds", "--n", str(n), "--s", "1", "2", "3", "--t", str(t))
    assert code == 0
    for row in json.loads(out)["results"]:
        s = row["s"]
        exact = n + 4 * s / (math.sqrt((n - 2 * s) ** 2 + 8 * s) + n - 2 * s)
        assert f"{row['q_bound_t2']:.10g}" == f"{exact:.10g}", row


def test_construct_without_a_free_join_reports_its_witness(capsys):
    # order 5 with s = 2 leaves only H = C_4, and K_1 v C_4 contains K_{2,3}
    code, out, _ = run(capsys, "construct", "--n", "5", "--s", "2", "--t", "2")
    report = json.loads(out)["results"][0]
    assert (code, report["free"]) == (0, False)
    left, right = report["witness"]["left"], report["witness"]["right"]
    assert (len(left), len(right)) == (2, 3) and not set(left) & set(right)
    g = join(complete_graph(1), circulant(4, [1]))
    assert report["graph6"] == graph6_encode(g)
    assert all(g.has_edge(u, v) for u in left for v in right)


@pytest.mark.parametrize("argv, free, exhaustive, strategy", [
    # m = 8, d = 1: K_8 minus a perfect matching is the only 6-regular H
    (("--n", "9", "--s", "6", "--t", "2"), False, True, "circulant"),
    # K_1 v K_{3,3} contains K_{2,4}; the prism is the other 3-regular H
    (("--n", "7", "--s", "3", "--t", "2"), True, False, "enumerated"),
    # m = 10 is past the builtin enumerator, so no proof either way
    (("--n", "13", "--s", "7", "--t", "4"), False, False, "circulant"),
], ids=["no-free-join", "prism", "past-enumeration"])
def test_construct_past_an_unfree_circulant(capsys, argv, free, exhaustive, strategy):
    code, out, _ = run(capsys, "construct", *argv)
    payload = json.loads(out)
    report = payload["results"][0]
    assert code == 0
    assert (report["free"], report["exhaustive"], report["strategy_used"]) == (free, exhaustive, strategy)
    assert (report["witness"] is None) == free
    assert payload["runtime_ms"] < 1000


@pytest.mark.parametrize("n, t", [("2000000", "2"), ("40002", "20001")])
def test_construct_checks_the_order_before_building(capsys, monkeypatch, n, t):
    # the clique and the regular part would take memory growing with n and t
    def refuse(*args):
        raise AssertionError("a graph was built before the order check")

    monkeypatch.setattr(constructions, "circulant", refuse)
    monkeypatch.setattr(constructions, "complete_graph", refuse)
    code, out, err = run(capsys, "construct", "--n", n, "--s", "2", "--t", t)
    assert (code, out) == (2, "")
    assert err == f"qx: error: graph order {n} exceeds the ceiling of 62\n"


def test_rest_half_above_n_is_data_not_a_violation(capsys):
    # the best K_{2,3}-free order-6 class without a dominating vertex has
    # q = 4 + 2 sqrt 2 > 6, far below the order where q < n is proved
    code, out, _ = run(capsys, "verify", "--n", "6", "--t", "2", "--s", "2")
    report = json.loads(out)["results"][0]
    assert report["rest_max_q"] == pytest.approx(4 + 2 * math.sqrt(2), abs=1e-9)
    assert report["rest_below_n"] is False
    assert (code, report["verdict"]) == (0, "bound_holds")
    _, out, _ = run(capsys, "hunt", "--n", "6", "--t", "2", "--s", "2", "--budget", "50")
    report = json.loads(out)["results"][0]
    assert [report[k] for k in ("rest_max_q", "rest_argmax", "rest_below_n")] == [None] * 3


def test_every_export_resolves():
    # public names resolve on first use: a star import in a fresh process
    # resolves every name in __all__ or raises
    done = _python("-c", "from qindex import *\nimport qindex\nprint(set(qindex.__all__) - set(dir()))")
    assert done.stdout.splitlines() == ["set()"]


def test_no_assert_statements_in_src():
    # invariant checks must survive ``python -O``
    src = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports_in_src():
    # bench/spans.py wraps search._power_largest by name, so search binds
    # spectral._eigvalsh to it unused until the bench reads report counters
    # (ROADMAP item 1)
    allowed = {"search.py:_power_largest"}
    src = Path(cli.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{name}")
    assert [name for name in unused if name not in allowed] == []


def test_every_error_class_is_caught_or_a_kind():
    # an exception class earns its place by a distinction some caller makes:
    # the CLI's base, every rejected input, or a broken certificate;
    # any other class must be named in an ``except`` somewhere in src/
    import qindex.errors as errors

    kinds = {"QxError", "InvalidParameter", "InvariantViolated"}
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    caught = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert classes >= kinds
    assert sorted(classes - kinds - caught) == []


def test_no_self_referencing_nested_function_in_src():
    # a nested function that names itself (to recurse) holds its own
    # closure cell: a reference cycle per call of the enclosing function,
    # which ``qx`` never collects because it runs with the collector off
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for module, tree in _src_modules().items():
        for outer in ast.walk(tree):
            if isinstance(outer, (*defs, ast.Lambda)):
                found |= {f"{module}:{inner.lineno}:{inner.name}"
                          for inner in ast.walk(outer)
                          if inner is not outer and isinstance(inner, defs)
                          and any(isinstance(node, ast.Name) and node.id == inner.name
                                  for node in ast.walk(inner))}
    assert sorted(found) == []


def test_src_import_graph_is_acyclic():
    # function-level imports count: a cycle through one only defers it
    deps = {module.removesuffix(".py"): {node.module for node in ast.walk(tree)
                                         if isinstance(node, ast.ImportFrom) and node.level == 1
                                         and node.module}
            for module, tree in _src_modules().items()}
    try:
        order = list(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle in src/: {' -> '.join(exc.args[1])}")
    assert {"search", "canonical", "constructions"} <= set(order)


def _src_modules() -> dict[str, ast.Module]:
    """Parsed source of each ``qindex`` module but ``__init__``, by file name."""
    return {path.name: ast.parse(path.read_text())
            for path in Path(cli.__file__).parent.glob("*.py") if path.name != "__init__.py"}


def _src_references() -> tuple[set[str], set[str]]:
    """Names and attribute names referenced in ``src/``; a reference inside
    the definition of the name it refers to does not count."""
    names, attrs = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in _src_modules().values():
        visit(tree, frozenset())
    return names, attrs


def test_every_public_name_has_a_caller_in_src():
    # a name that only tests or the README use belongs in tests/, not src/
    names, attrs = _src_references()
    methods = {name for name, value in vars(Graph).items() if callable(value) and not name.startswith("_")}
    assert methods and qindex.__all__
    assert sorted(name for name in qindex.__all__ if name not in names | attrs) == []
    assert sorted(name for name in methods if name not in attrs) == []


def test_every_top_level_def_has_a_caller_in_src():
    # a helper dropped from __all__ but left in src/ is as dead as an
    # unexported one: every module-level function and class needs a caller,
    # but for the module hooks of PEP 562, which the interpreter calls
    names, attrs = _src_references()
    defs = [f"{module}:{node.name}" for module, tree in _src_modules().items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (isinstance(node, ast.FunctionDef) and node.name in ("__getattr__", "__dir__"))]
    assert len(defs) > len(qindex.__all__)
    assert sorted(d for d in defs if d.partition(":")[2] not in names | attrs) == []


SRC = Path(cli.__file__).resolve().parent.parent


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


# runs qindex.cli.main on its arguments, then prints the modules loaded
IMPORT_PROBE = "import sys\nfrom qindex.cli import main\nmain(sys.argv[1:])\nprint(*sys.modules)"
ENUMERATION = {"qindex.search", "qindex.canonical"}
CONSTRUCTION = {"qindex.constructions"}
UNUSED = ENUMERATION | CONSTRUCTION


@pytest.mark.parametrize("argv, loads_numpy, unloaded", [
    (["--version"], False, UNUSED),
    (["free-check", "FILE", "--t", "2", "--s", "1"], False, UNUSED),
    (["bounds", "--n", "13", "--s", "1", "--t", "2"], False, UNUSED),
    (["ledger", "--s", "2", "--n", "22"], False, UNUSED),
    (["bounds", "--n", "5"], False, UNUSED),  # usage error
    (["construct", "--n", "22", "--s", "2", "--t", "2"], False, ENUMERATION),  # free circulant join
    (["construct", "--n", "5", "--s", "2", "--t", "2"], False, ENUMERATION),  # not free, C_4 unique
    (["construct", "--n", "7", "--s", "3", "--t", "2"], False,  # not free, enumerates
     {"qindex.search", "qindex.spectral"}),
    (["qindex", "FILE"], True, UNUSED),  # control: the same file's q does load numpy
    (["spectrum", "FILE"], True, UNUSED),
    (["verify", "--n", "5", "--t", "2", "--s", "2"], True, CONSTRUCTION),
    (["prop4", "--m", "4", "--s", "1"], True, CONSTRUCTION),
    (["hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "20"], True, CONSTRUCTION),
], ids=["version", "free-check", "bounds", "ledger", "usage-error", "construct-circulant",
        "construct-unique", "construct-enumerated", "qindex", "spectrum", "verify", "prop4", "hunt"])
def test_a_command_loads_only_the_modules_it_runs(g6_file, argv, loads_numpy, unloaded):
    # a command imports only the modules it runs, and none loads dataclasses
    done = _python("-c", IMPORT_PROBE, *(g6_file if a == "FILE" else a for a in argv))
    loaded = set(done.stdout.splitlines()[-1].split())
    assert ("numpy" in loaded, "dataclasses" in loaded) == (loads_numpy, False)
    assert sorted(loaded & unloaded) == []


class TestProcessEntry:
    @pytest.mark.parametrize("argv, code", [
        (["bounds", "--n", "13", "--s", "1", "--t", "2"], 0),
        (["bounds", "--n", "5"], 1),
        (["qindex", "/nonexistent/file.g6"], 2),
    ])
    def test_module_run_matches_main(self, capsys, argv, code):
        done = _python("-m", "qindex.cli", *argv)
        in_code, out, _ = run(capsys, *argv)
        assert (done.returncode, in_code) == (code, code)
        assert "Traceback" not in done.stderr
        if code == 0:
            assert {**json.loads(done.stdout), "runtime_ms": 0} == {**json.loads(out), "runtime_ms": 0}
        else:
            assert (done.stdout, out) == ("", "")

    def test_console_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        tree = ast.parse(Path(cli.__file__).read_text())
        block = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        called = [ast.unparse(node.func) for node in ast.walk(block) if isinstance(node, ast.Call)]
        assert [f"qindex.cli:{name}" for name in called] == [pyproject["project"]["scripts"]["qx"]]

    def test_entry_turns_the_collector_off(self):
        # ``main`` replaced by a probe that reports the collector's state
        # from inside ``_entry``
        probe = ("import gc\nimport qindex.cli as cli\n"
                 "cli.main = lambda: print(gc.isenabled()) or 0\ncli._entry()")
        done = _python("-c", probe)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.fixture()
def hub_stream(tmp_path):
    """Order-10 hub joins, each also relabeled: the symmetric inputs whose
    labeling searches prune by automorphisms."""
    rng = random.Random(5)
    hubs = [join(complete_graph(1), h) for h in (
        circulant(9, [1]), circulant(9, [1, 2]), circulant(9, [3]),
        disjoint_union(circulant(4, [1]), circulant(5, [1])))]
    perm = list(range(10))
    lines = []
    for g in hubs:
        rng.shuffle(perm)
        lines += [graph6_encode(g), graph6_encode(relabel(g, perm))]
    path = tmp_path / "hubs.g6"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "6", "--t", "2", "--s", "2"],
    ["verify", "--n", "10", "--t", "2", "--s", "2", "--stream", "HUBS"],
    ["prop4", "--m", "6", "--s", "2"],
    ["hunt", "--n", "10", "--t", "2", "--s", "1", "--budget", "300", "--seed", "3"],
    ["construct", "--n", "22", "--s", "2", "--t", "2"],
    ["construct", "--n", "7", "--s", "3", "--t", "2"],  # not free: the enumerated fallback
    ["free-check", "FILE", "--t", "2", "--s", "1"],
    ["qindex", "FILE"],
    ["spectrum", "FILE"],
    ["bounds", "--n", "13", "22", "--s", "1", "2", "--t", "2", "--format", "csv"],
    ["ledger", "--s", "2", "--n", "22"],
], ids=["verify", "verify-stream", "prop4", "hunt", "construct-free", "construct-enumerated",
        "free-check", "qindex", "spectrum", "bounds-csv", "ledger"])
def test_a_command_leaves_no_cyclic_garbage(monkeypatch, g6_file, hub_stream, argv):
    # ``_entry`` runs with the collector off, so a cycle made per labeling,
    # walk or proposal would pile up.  argparse and json's indenting encoder
    # make cycles of their own: ``main`` builds its parser once per process
    # (in the warm-up run) and the report here is written unindented, so
    # only the command's own garbage is counted.
    argv = [{"FILE": g6_file, "HUBS": hub_stream}.get(a, a) for a in argv]
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=lambda obj, **_: json.dumps(obj)))
    assert cli.main(argv) == 0  # warm-up: lazy imports and names
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
