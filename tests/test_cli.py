import ast
import io
import json
import math
import random
import time
from pathlib import Path

import pytest

import qindex.cli as cli
from qindex.graphs import complete_graph, cycle_graph, disjoint_union, from_edge_list, graph6_encode, join
from qindex.search import SearchReport
from conftest import random_graph


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
        path.write_text(graph6_encode(cycle_graph(5)) + "\n")
        code, out, _ = run(capsys, "free-check", str(path), "--t", "2", "--s", "1")
        payload = json.loads(out)
        assert payload["results"][0]["verdict"] == "free"
        assert payload["results"][0]["witness"] is None

    def test_free_check_contains(self, capsys, tmp_path):
        path = tmp_path / "c4.g6"
        path.write_text(graph6_encode(cycle_graph(4)) + "\n")
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
        joins = [join(hub, cycle_graph(17)), join(hub, disjoint_union(cycle_graph(8), cycle_graph(9)))]
        pairs = [(u, v) for u in range(18) for v in range(u + 1, 18)]
        others = [from_edge_list(18, rng.sample(pairs, m)) for m in (5, 12, 20, 27)]
        lines = []
        for g in joins + others:
            for _ in range(3 if g in joins else 1):
                perm = list(range(18))
                rng.shuffle(perm)
                lines.append(graph6_encode(g.relabel(perm)))
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
            argmax_is_extremal_join=False, exhaustive=True, eps=1e-7, runtime_ms=0,
        )
        monkeypatch.setattr(cli, "exhaustive_max_q", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--s", "1")
        assert code == 3
        assert json.loads(out)["results"][0]["verdict"] == "bound_violated"

    @pytest.mark.parametrize("argv", [
        ("hunt", "--n", "1", "--t", "2", "--s", "1", "--budget", "10"),
        ("free-check", "FILE", "--t", "1", "--s", "1"),
        ("verify", "--n", "5", "--t", "2", "--s", "0"),
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--eps", "-5"),
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--eps", "nan"),
        ("prop4", "--m", "4", "--s", "1", "--eps", "-1"),
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "10", "--eps", "inf"),
        ("construct", "--n", "5", "--s", "1", "--t", "9"),
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "0"),
        ("hunt", "--n", "63", "--t", "2", "--s", "1", "--budget", "10"),
        ("verify", "--n", "10", "--t", "2", "--s", "1"),
    ])
    def test_bad_input_is_a_computation_error(self, capsys, g6_file, argv):
        argv = [g6_file if a == "FILE" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "qx: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("prop4", "--m", "4", "--s", "1", "--eps", "0"),
        ("prop4", "--m", "5", "--s", "1", "--eps", "1e300"),
        ("verify", "--n", "6", "--t", "2", "--s", "2", "--eps", "0"),
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
        path = tmp_path / "bad.g6"
        path.write_bytes(b"DQc\nD\xffw\n")
        code, _, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
        assert code == 2
        assert "line 2" in err


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


_FLOATS = _pick(None, None, "1e-10", "1e-6", "0", "-1", "1e300", "nan", "inf", "x")

# per command: flag -> value drawer, ranges small enough that each call
# finishes well under a second; "FILE" is the positional graph6 file and a
# drawn None leaves the flag out
FUZZ_ARGS = {
    "qindex": {"FILE": None},
    "spectrum": {"FILE": None, "--matrix": _pick(None, "Q", "A", "L")},
    "free-check": {"FILE": None, "--t": _ints(-1, 4), "--s": _ints(-1, 3)},
    "bounds": {"--n": _ints(-2, 40), "--s": _ints(-1, 5), "--t": _ints(-1, 5),
               "--format": _pick(None, "json", "csv", "text")},
    "construct": {"--n": _ints(0, 20), "--s": _ints(0, 3), "--t": _ints(1, 4),
                  "--seed": _ints(-1, 9),
                  "--strategy": _pick(None, None, "circulant", "random_regular", "x")},
    "verify": {"--n": _ints(-1, 6), "--t": _ints(-1, 3), "--s": _ints(-1, 3),
               "--stream": _pick(None, None, "FILE", "-"), "--eps": _FLOATS},
    "prop4": {"--m": _ints(-1, 5), "--s": _ints(-1, 3), "--eps": _FLOATS},
    "hunt": {"--n": _ints(-1, 14), "--t": _ints(-1, 3), "--s": _ints(-1, 3),
             "--budget": _ints(-1, 50), "--seed": _ints(-1, 9), "--eps": _FLOATS},
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
        elif (value := draw(rng)) is not None:
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
        ("qindex", "FILE", "--tol", "nan"),
        ("qindex", "FILE", "--tol", "inf"),
    ])
    def test_flag_a_command_ignores_is_a_usage_error(self, capsys, g6_file, argv):
        argv = [g6_file if a == "FILE" else a for a in argv]
        assert run(capsys, *argv)[0] == 1

    def test_tolerances_are_the_ones_used(self, capsys, g6_file):
        _, out, _ = run(capsys, "qindex", g6_file)
        assert json.loads(out)["tolerances"] == {"tol": 1e-10}
        _, out, _ = run(capsys, "hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "50")
        assert json.loads(out)["tolerances"] == {"tol": 1e-10, "eps": 1e-7}
        _, out, _ = run(capsys, "verify", "--n", "5", "--t", "2", "--s", "1", "--eps", "1e-6")
        assert json.loads(out)["tolerances"] == {"tol": 1e-10, "eps": 1e-6}
        _, out, _ = run(capsys, "ledger", "--s", "2", "--n", "22")
        assert json.loads(out)["tolerances"] == {}


SEARCH_KEYS = {
    "n", "s", "t", "graphs_seen", "free_graphs", "max_q", "argmax", "bound_value",
    "bound_applicable", "verdict", "argmax_is_extremal_join", "exhaustive", "eps",
    "runtime_ms", "seed", "budget",
}
JOIN_CAP_KEYS = {
    "m", "s", "classes", "bound", "max_q", "all_capped", "equality_graph6",
    "equality_all_regular", "regular_all_equality", "verdict", "eps", "runtime_ms",
}


@pytest.mark.parametrize("argv, keys", [
    (("verify", "--n", "5", "--t", "2", "--s", "1"), SEARCH_KEYS),
    (("prop4", "--m", "5", "--s", "2"), JOIN_CAP_KEYS),
    (("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "50"), SEARCH_KEYS),
])
def test_report_keys_pinned(capsys, argv, keys):
    _, out, _ = run(capsys, *argv)
    assert set(json.loads(out)["results"][0]) == keys


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
