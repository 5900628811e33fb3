import ast
import json
import math
from pathlib import Path

import pytest

import qindex.cli as cli
from qindex.graphs import graph6_encode, cycle_graph
from qindex.search import SearchReport


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
        ("construct", "--n", "6", "--s", "2", "--t", "2", "--tol", "0"),
        ("qindex", "FILE", "--tol", "nan"),
        ("qindex", "FILE", "--tol", "inf"),
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--eps", "-5"),
        ("verify", "--n", "3", "--t", "2", "--s", "1", "--eps", "nan"),
        ("prop4", "--m", "4", "--s", "1", "--eps", "-1"),
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "10", "--eps", "inf"),
    ])
    def test_bad_input_is_a_computation_error(self, capsys, g6_file, argv):
        argv = [g6_file if a == "FILE" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "qx: error:" in err
        assert "Traceback" not in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ("hunt", "--n", "6", "--t", "2", "--s", "1", "--budget", "10", "--tol", "1e-3"),
        ("spectrum", "FILE", "--eps", "1"),
        ("verify", "--n", "5", "--t", "2", "--s", "1", "--format", "csv"),
    ])
    def test_flag_a_command_ignores_is_a_usage_error(self, capsys, g6_file, argv):
        argv = [g6_file if a == "FILE" else a for a in argv]
        assert run(capsys, *argv)[0] == 1

    def test_tolerances_are_the_ones_used(self, capsys, g6_file):
        _, out, _ = run(capsys, "qindex", g6_file, "--tol", "1e-9")
        assert json.loads(out)["tolerances"] == {"tol": 1e-9}
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
