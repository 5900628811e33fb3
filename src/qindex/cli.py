"""Command-line driver ``qx``.

Every subcommand emits one machine-readable report on stdout: JSON by
default (schema: command, parameters, results, tolerances, seed,
runtime_ms, version), CSV for bounds sweeps, or plain text.  Numeric
output is limited to 10 significant digits so slack-level discrepancies
stay visible without drowning in noise.  ``tolerances`` lists exactly the
tolerances the command used.

A command takes only the flags it honours: ``--eps`` (slack against
closed-form bounds) on ``verify``, ``prop4`` and ``hunt``, and
``--format csv`` on ``bounds``.  Every reported q is scored at the
eigensolver residual ``spectral.DEFAULT_TOL``, which no flag changes.

Exit codes: 0 success, 1 usage error, 2 computation error (message on
stderr), 3 a verified bound violation was found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .bounds import DEFAULT_EPS, bound_report, conjecture_bound, merris_bound, q_cap_ledger
from .constructions import ExtremalSpec, build_extremal
from .errors import NoEdges, QxError
from .forbidden import ForbiddenPattern, find_kst
from .graphs import Graph, graph6_decode, graph6_encode
from .search import exhaustive_max_q, heuristic_max_q, join_cap_scan
from .spectral import DEFAULT_TOL, adjacency_radius, full_spectrum, q_index


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="qx", description="Q-index extremal toolkit")
    p.add_argument("--version", action="version", version=f"qx {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def eps(sp):
        sp.add_argument("--eps", type=float, default=DEFAULT_EPS,
                        help="slack for comparisons against closed-form bounds")

    sp = sub.add_parser("qindex", help="per-graph q, lambda, degrees, Merris bound")
    sp.add_argument("file", metavar="FILE", help="graph6 lines; '-' for stdin")

    sp = sub.add_parser("spectrum", help="full eigenvalue lists")
    sp.add_argument("file", metavar="FILE")
    sp.add_argument("--matrix", choices=("Q", "A"), default="Q")

    sp = sub.add_parser("free-check", help="K_{t,s+1}-freeness verdict and witness")
    sp.add_argument("file", metavar="FILE")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = sub.add_parser("bounds", help="closed-form bound report over a parameter grid")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--s", type=int, nargs="+", required=True)
    sp.add_argument("--t", type=int, nargs="+", required=True)

    sp = sub.add_parser("construct", help="build the extremal join and certify freeness")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", choices=("circulant", "random_regular"), default="circulant")

    sp = sub.add_parser("verify", help="exhaustive max-q search at one order")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--stream", help="graph6 file replacing the builtin enumerator")
    eps(sp)

    sp = sub.add_parser("prop4", help="scan q(K_1 v H) over all H with max degree <= s")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    eps(sp)

    sp = sub.add_parser("hunt", help="simulated-annealing lower-bound search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    eps(sp)

    sp = sub.add_parser("ledger", help="inequality checks behind the q < n cap")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    for name, sp in sub.choices.items():
        formats = ("json", "csv", "text") if name == "bounds" else ("json", "text")
        sp.add_argument("--format", choices=formats, default="json")
    return p


def _read_graphs(path: str) -> list[tuple[str, Graph]]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        # like stdin, a byte >= 0x80 becomes a lone surrogate that graph6_decode rejects
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            lines = fh.read().splitlines()
    out = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append((line, graph6_decode(line)))
        except QxError as exc:
            raise type(exc)(f"{path} line {i}: {exc}") from None
    return out


def _round10(obj):
    """Clamp every float in a JSON-ready structure to 10 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    return obj


def _run(args) -> tuple[dict, list, dict, bool]:
    """Execute one subcommand; returns (parameters, results, tolerances used,
    violation_flag)."""
    cmd = args.command
    violation = False

    if cmd == "qindex":
        results = []
        for line, g in _read_graphs(args.file):
            q = q_index(g)
            lam = adjacency_radius(g)
            try:
                mb = merris_bound(g)
            except NoEdges:
                mb = None
            results.append({
                "graph6": line,
                "n": g.n,
                "edges": g.edge_count(),
                "max_degree": g.max_degree(),
                "q": q.value,
                "q_method": q.method,
                "q_iterations": q.iterations,
                "q_residual": q.residual,
                "lambda": lam.value,
                "merris_bound": mb,
            })
        return {"file": args.file}, results, {"tol": DEFAULT_TOL}, violation

    if cmd == "spectrum":
        results = []
        for line, g in _read_graphs(args.file):
            results.append({
                "graph6": line,
                "matrix": args.matrix,
                "eigenvalues": full_spectrum(g, args.matrix),
            })
        return {"file": args.file, "matrix": args.matrix}, results, {}, violation

    if cmd == "free-check":
        pat = ForbiddenPattern.from_ts(args.t, args.s)
        results = []
        for line, g in _read_graphs(args.file):
            witness = find_kst(g, pat) if pat.t <= g.n else None
            results.append({
                "graph6": line,
                "pattern": str(pat),
                "verdict": "contains" if witness else "free",
                "witness": None if witness is None else {
                    "left": list(witness[0]),
                    "right": list(witness[1]),
                },
            })
        return {"file": args.file, "t": args.t, "s": args.s}, results, {}, violation

    if cmd == "bounds":
        results = []
        for n in args.n:
            for s in args.s:
                for t in args.t:
                    rep = bound_report(n, s, t)
                    results.append({
                        "n": n, "s": s, "t": t,
                        "adjacency_bound": rep.adjacency,
                        "edge_bound": rep.edge,
                        "q_bound_t2": rep.q_t2,
                        "conjecture_bound": rep.conjecture,
                        "applicability": rep.applicability,
                    })
        return {"n": args.n, "s": args.s, "t": args.t}, results, {}, violation

    if cmd == "construct":
        spec = ExtremalSpec(args.n, args.s, args.t, args.strategy)
        built = build_extremal(spec, seed=args.seed, require_free=False)
        q = q_index(built.graph).value
        bound = conjecture_bound(args.n, args.s, args.t)
        results = [{
            "graph6": graph6_encode(built.graph),
            "free": built.free,
            "witness": None if built.witness is None else {
                "left": list(built.witness[0]),
                "right": list(built.witness[1]),
            },
            "strategy_used": built.strategy_used,
            "seed_used": built.seed_used,
            "attempts": built.attempts,
            "q": q,
            "bound": bound,
            "gap": bound - q,
        }]
        parameters = {"n": args.n, "s": args.s, "t": args.t, "strategy": args.strategy}
        return parameters, results, {"tol": DEFAULT_TOL}, violation

    if cmd == "verify":
        pat = ForbiddenPattern.from_ts(args.t, args.s)
        if args.stream == "-":
            report = exhaustive_max_q(args.n, pat, stream=sys.stdin, eps=args.eps)
        elif args.stream:
            with open(args.stream, "r", encoding="ascii", errors="surrogateescape") as fh:
                report = exhaustive_max_q(args.n, pat, stream=fh, eps=args.eps)
        else:
            report = exhaustive_max_q(args.n, pat, eps=args.eps)
        violation = report.verdict == "bound_violated"
        parameters = {"n": args.n, "s": args.s, "t": args.t, "stream": args.stream}
        return parameters, [asdict(report)], {"tol": DEFAULT_TOL, "eps": args.eps}, violation

    if cmd == "prop4":
        report = join_cap_scan(args.m, args.s, eps=args.eps)
        violation = report.verdict == "bound_violated"
        results = [{**asdict(report), "verdict": report.verdict}]
        return {"m": args.m, "s": args.s}, results, {"tol": DEFAULT_TOL, "eps": args.eps}, violation

    if cmd == "hunt":
        pat = ForbiddenPattern.from_ts(args.t, args.s)
        report = heuristic_max_q(args.n, pat, budget=args.budget, seed=args.seed, eps=args.eps)
        violation = report.verdict == "bound_violated"
        parameters = {"n": args.n, "s": args.s, "t": args.t, "budget": args.budget}
        return parameters, [asdict(report)], {"tol": DEFAULT_TOL, "eps": args.eps}, violation

    if cmd == "ledger":
        checks = q_cap_ledger(args.s, args.n)
        results = [{"s": args.s, "n": args.n, "checks": checks, "all_passed": all(checks.values())}]
        return {"s": args.s, "n": args.n}, results, {}, violation

    raise AssertionError(f"unhandled command {cmd}")


def _render_text(command: str, results: list) -> str:
    lines = [f"# qx {command}"]
    for entry in results:
        parts = []
        for k, v in entry.items():
            if isinstance(v, float):
                parts.append(f"{k}={v:.10g}")
            else:
                parts.append(f"{k}={v}")
        lines.append("  ".join(parts))
    return "\n".join(lines) + "\n"


def _render_csv(results: list) -> str:
    import csv
    import io

    flat = []
    for entry in results:
        row = {}
        for k, v in entry.items():
            if isinstance(v, dict):
                for kk, vv in v.items():
                    row[f"{k}.{kk}"] = vv
            elif isinstance(v, list):
                row[k] = ";".join(str(x) for x in v)
            else:
                row[k] = "" if v is None else (f"{v:.10g}" if isinstance(v, float) else v)
        flat.append(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()))
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue()


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        parameters, results, tolerances, violation = _run(args)
    except QxError as exc:
        sys.stderr.write(f"qx: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"qx: error: {exc}\n")
        return 2
    if args.format == "csv":
        sys.stdout.write(_render_csv(_round10(results)))
    elif args.format == "text":
        sys.stdout.write(_render_text(args.command, _round10(results)))
    else:
        payload = {
            "command": args.command,
            "parameters": _round10(parameters),
            "results": _round10(results),
            "tolerances": tolerances,
            "seed": getattr(args, "seed", None),
            "runtime_ms": int((time.perf_counter() - t0) * 1000),
            "version": __version__,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 3 if violation else 0


if __name__ == "__main__":
    sys.exit(main())
