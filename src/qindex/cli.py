"""Command-line driver ``qx``.

Every subcommand emits one machine-readable report on stdout: JSON by
default (schema: command, parameters, results, tolerances, seed,
runtime_ms, version), CSV for bounds sweeps, or plain text.  Numeric
output is limited to 10 significant digits so slack-level discrepancies
stay visible without drowning in noise.  A command computes only its
results; ``main`` adds the rest: ``parameters`` are the parsed flags
except command, format and seed, and ``tolerances`` (exactly those the
command used) come from ``_tolerances``.

A command takes only the flags it honours; ``--format csv`` is for
``bounds`` only.  Every reported q is certified to the eigenpair residual
``spectral.DEFAULT_TOL``, and ``verify``, ``prop4`` and ``hunt`` compare
it with a closed-form cap by the fixed policy of ``search``: no flag
changes either.  ``construct`` is the exception: its q is the closed-form
root of the join's equitable quotient (``build_extremal``), so it runs no
eigensolver, reports no tolerance and never loads numpy.

Imports follow the command: ``cli`` itself loads only the package and
``errors``, and each library name ``_run`` calls resolves on first use
through the package's lazy names (PEP 562, ``__getattr__`` below), so a
command loads only the modules it runs (README, "CLI").  ``_run`` reaches
each name as an attribute of this module, so a wrapper set on it sees every
call.

Exit codes: 0 success, 1 usage error, 2 computation error (message on
stderr), 3 a result has the verdict ``bound_violated``.

The ``qx`` console script and ``python -m qindex.cli`` both enter through
``_entry``: it turns the cyclic garbage collector off (no qindex code path
makes a reference cycle, so collecting during imports, scans and hunts
frees nothing), runs ``main``, then freezes the collector before
``sys.exit``, so the final collections, which run even with it off, skip
the objects numpy and qindex leave tracked (tens of milliseconds per
process) while normal shutdown (atexit handlers, flushing stdout) still
runs.  ``main`` itself has no GC side effect, so it can be called in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import QxError

if TYPE_CHECKING:
    from .graphs import Graph

_cli = sys.modules[__name__]  # this module, whose attributes ``_run`` calls


def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache  # once per process: in-process callers of ``main`` share it
def _build_parser() -> _Parser:
    p = _Parser(prog="qx", description="Q-index extremal toolkit")
    p.add_argument("--version", action="version", version=f"qx {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

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

    sp = sub.add_parser("verify", help="exhaustive max-q search at one order")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--stream", help="graph6 file replacing the builtin enumerator")

    sp = sub.add_parser("prop4", help="scan q(K_1 v H) over all H with max degree <= s")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = sub.add_parser("hunt", help="simulated-annealing lower-bound search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("ledger", help="inequality checks behind the q < n cap")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    for name, sp in sub.choices.items():
        formats = ("json", "csv", "text") if name == "bounds" else ("json", "text")
        sp.add_argument("--format", choices=formats, default="json")
    return p


def _open_graph6(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin)  # a with block leaves stdin open
    # like stdin, a byte >= 0x80 becomes a lone surrogate that graph6_decode rejects
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def _read_graphs(path: str) -> list[tuple[str, Graph]]:
    from .graphs import _graph6_lines  # the line reader ``verify --stream`` shares
    with _open_graph6(path) as fh:
        return [(line, g) for _, line, g in _graph6_lines(fh, path, _cli.graph6_decode)]


def _round10(obj):
    """Clamp every float in a JSON-ready structure to 10 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    return obj


def _tolerances(cmd: str) -> dict:
    """The tolerances a command's results depend on; the others use none."""
    if cmd not in ("qindex", "verify", "prop4", "hunt"):
        return {}
    from .spectral import DEFAULT_TOL
    if cmd == "qindex":
        return {"tol": DEFAULT_TOL}
    from .search import EPS
    return {"tol": DEFAULT_TOL, "eps": EPS}


def _witness(witness) -> dict | None:
    return None if witness is None else {"left": list(witness[0]), "right": list(witness[1])}


def _run(args) -> list:
    """Execute one subcommand; returns its results."""
    cmd = args.command

    if cmd == "qindex":
        results = []
        for line, g in _read_graphs(args.file):
            q = _cli.q_index(g)
            results.append({
                "graph6": line,
                "n": g.n,
                "edges": g.edge_count(),
                "max_degree": g.max_degree(),
                "q": q.value,
                "q_residual": q.residual,
                "lambda": _cli.adjacency_radius(g).value,
                "merris_bound": _cli.merris_bound(g) if g.edge_count() else None,
            })
        return results

    if cmd == "spectrum":
        return [{"graph6": line, "matrix": args.matrix, "eigenvalues": _cli.full_spectrum(g, args.matrix)}
                for line, g in _read_graphs(args.file)]

    if cmd == "free-check":
        pat = _cli.ForbiddenPattern.from_ts(args.t, args.s)
        results = []
        for line, g in _read_graphs(args.file):
            witness = _cli.find_kst(g, pat)
            results.append({
                "graph6": line,
                "pattern": str(pat),
                "verdict": "contains" if witness else "free",
                "witness": _witness(witness),
            })
        return results

    if cmd == "bounds":
        return [_cli.bound_report(n, s, t)._asdict() for n in args.n for s in args.s for t in args.t]

    if cmd == "construct":
        built = _cli.build_extremal(_cli.ExtremalSpec(args.n, args.s, args.t))
        return [{
            "graph6": _cli.graph6_encode(built.graph),
            "free": built.free,
            "witness": _witness(built.witness),
            "strategy_used": built.strategy_used,
            "exhaustive": built.exhaustive,
            "attempts": built.attempts,
            "q": built.q,
            "bound": built.q,  # the build's q is the closed-form cap
        }]

    if cmd == "ledger":
        checks = _cli.q_cap_ledger(args.s, args.n)
        return [{"s": args.s, "n": args.n, "checks": checks, "all_passed": all(checks.values())}]

    if cmd == "verify":
        pat = _cli.ForbiddenPattern.from_ts(args.t, args.s)
        if args.stream:
            with _open_graph6(args.stream) as fh:
                report = _cli.exhaustive_max_q(args.n, pat, stream=fh)
        else:
            report = _cli.exhaustive_max_q(args.n, pat)
    elif cmd == "prop4":
        report = _cli.join_cap_scan(args.m, args.s)
    elif cmd == "hunt":
        pat = _cli.ForbiddenPattern.from_ts(args.t, args.s)
        report = _cli.heuristic_max_q(args.n, pat, budget=args.budget, seed=args.seed)
    else:
        raise AssertionError(f"unhandled command {cmd}")
    return [report._asdict()]


def _render_text(command: str, results: list) -> str:
    lines = [f"# qx {command}"]
    for entry in results:
        lines.append("  ".join(f"{k}={v:.10g}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in entry.items()))
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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        results = _round10(_run(args))
    except (QxError, OSError) as exc:
        sys.stderr.write(f"qx: error: {exc}\n")
        return 2
    if args.format == "csv":
        sys.stdout.write(_render_csv(results))
    elif args.format == "text":
        sys.stdout.write(_render_text(args.command, results))
    else:
        flags = vars(args)
        payload = {
            "command": args.command,
            "parameters": {k: v for k, v in flags.items() if k not in ("command", "format", "seed")},
            "results": results,
            "tolerances": _tolerances(args.command),
            "seed": flags.get("seed"),
            "runtime_ms": int((time.perf_counter() - t0) * 1000),
            "version": __version__,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 3 if any(r.get("verdict") == "bound_violated" for r in results) else 0


def _entry() -> None:
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _entry()
