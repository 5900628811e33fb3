"""Independent correctness oracle for ``qx`` reports.

Nothing here imports ``qindex``.  Spectra come from
``numpy.linalg.eigvalsh``, K_{2,s+1} detection from the codegree matrix
A^2, the t = 2 cap from its closed form, and the class counts of the
builtin enumeration are pinned reference numbers.  Each ``check_*`` function takes one parsed
report and returns (results checked, list of disagreements).

Reported floats are clamped to 10 significant digits, so numeric checks
allow 1e-8 relative to max(1, |value|).
"""

from __future__ import annotations

import math

import numpy as np

from inputs import cycles, graph6_decode, hub_join, invariant

TOL = 1e-8
EPS = 1e-7  # qx's default slack for ties and bound comparisons

# Isomorphism classes of order n generated by ``verify --n n --s 2``,
# pinned: "free" are the K_{2,3}-free classes, "seen" the classes with at
# least one K_{2,3}-free vertex-deleted subgraph, which is what canonical
# augmentation from the free order-(n-1) classes generates.  Both agree
# with the codegree filter below applied to networkx's atlas of all 156
# graphs of order 6 and all 1,044 of order 7.
PINNED_VERIFY = {
    (6, 2): {"graphs_seen": 145, "free_graphs": 95},
    (7, 2): {"graphs_seen": 881, "free_graphs": 386},
}


def close(got, want) -> bool:
    return got is not None and abs(got - want) <= TOL * max(1.0, abs(want))


def q_matrix(a: np.ndarray) -> np.ndarray:
    return a + np.diag(a.sum(axis=1))


def q_top(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(q_matrix(a).astype(float))[-1])


def max_codegree(a: np.ndarray) -> int:
    if a.shape[0] < 2:
        return 0
    c = a @ a
    np.fill_diagonal(c, 0)
    return int(c.max())


def k2_free(a: np.ndarray, s: int) -> bool:
    """No two vertices share s+1 common neighbours, i.e. no K_{2,s+1}."""
    return max_codegree(a) <= s


def q_bound_t2(n: int, s: int) -> float:
    return (n + 2 * s) / 2.0 + 0.5 * math.sqrt((n - 2 * s) ** 2 + 8 * s)


def is_regular_hub_join(a: np.ndarray, s: int) -> bool:
    """K1 v H with H s-regular."""
    n = a.shape[0]
    deg = a.sum(axis=1)
    for hub in np.flatnonzero(deg == n - 1):
        rest = [v for v in range(n) if v != hub]
        if rest and np.all(a[np.ix_(rest, rest)].sum(axis=1) == s):
            return True
    return False


def _component_multisets(sizes, m: int) -> int:
    """Graphs on m vertices built as multisets of components, one
    component kind per entry of ``sizes`` (its order)."""
    ways = [1] + [0] * m
    for size in sizes:
        for total in range(size, m + 1):
            ways[total] += ways[total - size]
    return ways[m]


def max_degree_le2_classes(m: int) -> int:
    """Graphs on m vertices with maximum degree <= 2: unions of paths P_k
    (k >= 1) and cycles C_k (k >= 3)."""
    return _component_multisets([*range(1, m + 1), *range(3, m + 1)], m)


def two_regular_classes(m: int) -> int:
    """2-regular graphs on m vertices: unions of cycles."""
    return _component_multisets(range(3, m + 1), m)


def _results(report: dict, command: str) -> list:
    if report.get("command") != command:
        raise ValueError(f"report is for {report.get('command')!r}, expected {command!r}")
    return report["results"]


def _argmax_checks(entry: dict, n: int, s: int, fails: list[str]) -> list[np.ndarray]:
    graphs = []
    for text in entry["argmax"]:
        a = graph6_decode(text)
        graphs.append(a)
        if a.shape[0] != n:
            fails.append(f"argmax {text} has order {a.shape[0]}, expected {n}")
        elif not k2_free(a, s):
            fails.append(f"argmax {text} contains K_2,{s + 1}")
        elif not close(entry["max_q"], q_top(a)):
            fails.append(f"argmax {text}: q {q_top(a)!r} != max_q {entry['max_q']!r}")
    if not graphs:
        fails.append("empty argmax")
    join = any(is_regular_hub_join(a, s) for a in graphs)
    if entry["argmax_is_extremal_join"] != join:
        fails.append(f"argmax_is_extremal_join {entry['argmax_is_extremal_join']} != {join}")
    bound = q_bound_t2(n, s)
    want = "bound_holds" if entry["max_q"] <= bound + EPS else "bound_violated"
    if entry["verdict"] != want or not close(entry["bound_value"], bound):
        fails.append(f"verdict {entry['verdict']} / bound {entry['bound_value']}, expected {want} / {bound}")
    return graphs


def check_verify(report: dict, n: int, s: int) -> tuple[int, list[str]]:
    """Builtin enumeration: pinned counts, the cap attained by K1 v C_{n-1}."""
    (entry,) = _results(report, "verify")
    fails: list[str] = []
    want = PINNED_VERIFY[(n, s)]
    for key, value in want.items():
        if entry[key] != value:
            fails.append(f"{key} {entry[key]} != pinned {value}")
    graphs = _argmax_checks(entry, n, s, fails)
    cap = q_bound_t2(n, s)
    if not close(entry["max_q"], cap):
        fails.append(f"max_q {entry['max_q']!r} != q_bound_t2({n}, {s}) = {cap!r}")
    hub = invariant(hub_join(cycles([n - 1])))
    if hub not in {invariant(a) for a in graphs}:
        fails.append(f"K1 v C{n - 1} missing from the argmax")
    return 1, fails


def check_prop4(report: dict, m: int, s: int) -> tuple[int, list[str]]:
    """Hub-join scan over H with max degree <= s on m vertices; the class
    counts hold for s = 2."""
    (entry,) = _results(report, "prop4")
    fails: list[str] = []
    classes = max_degree_le2_classes(m)
    if entry["classes"] != classes:
        fails.append(f"classes {entry['classes']} != {classes}")
    cap = q_bound_t2(m + 1, s)
    if not (close(entry["bound"], cap) and close(entry["max_q"], cap)):
        fails.append(f"bound {entry['bound']!r} / max_q {entry['max_q']!r} != cap {cap!r}")
    eq = entry["equality_graph6"]
    if len(eq) != two_regular_classes(m):
        fails.append(f"{len(eq)} equality graphs, expected {two_regular_classes(m)}")
    for text in eq:
        h = graph6_decode(text)
        if h.shape[0] != m or not np.all(h.sum(axis=1) == s):
            fails.append(f"equality graph {text} is not {s}-regular on {m} vertices")
    flags = ("all_capped", "equality_all_regular", "regular_all_equality")
    if not all(entry[f] for f in flags) or entry["verdict"] != "bound_holds":
        fails.append(f"flags {[entry[f] for f in flags]} verdict {entry['verdict']}")
    return 1, fails


def check_hunt(report: dict, n: int, s: int, budget: int, earlier: dict) -> tuple[int, list[str]]:
    """Annealing: the argmax is free and its q is the reported maximum.

    Uphill toggles are always accepted and a single edge is free, so the
    maximum is at least 2; a hunt is deterministic per seed, so a repeat of
    the same hunt (``earlier`` remembers the first) must report the same.
    """
    (entry,) = _results(report, "hunt")
    fails: list[str] = []
    if entry["graphs_seen"] != budget or not 0 < entry["free_graphs"] <= budget:
        fails.append(f"graphs_seen {entry['graphs_seen']} free {entry['free_graphs']} budget {budget}")
    if entry["max_q"] < 2:
        fails.append(f"max_q {entry['max_q']!r} below a single edge's 2")
    _argmax_checks(entry, n, s, fails)
    outcome = (entry["max_q"], entry["argmax"], entry["free_graphs"])
    if earlier.setdefault("outcome", outcome) != outcome:
        fails.append(f"same seed, different result: {outcome} after {earlier['outcome']}")
    return 1, fails


def check_stream(report: dict, lines: list[str], n: int, s: int) -> tuple[int, list[str]]:
    """Stream scan: classes and free classes from the file, the cap, argmax."""
    (entry,) = _results(report, "verify")
    fails: list[str] = []
    classes = {}
    for line in lines:
        a = graph6_decode(line)
        classes.setdefault(invariant(a), a)
    free = {key: a for key, a in classes.items() if k2_free(a, s)}
    if entry["graphs_seen"] != len(classes) or entry["free_graphs"] != len(free):
        fails.append(
            f"graphs_seen {entry['graphs_seen']} free {entry['free_graphs']}, "
            f"expected {len(classes)} {len(free)}"
        )
    qs = {key: q_top(a) for key, a in free.items()}
    best = max(qs.values())
    if not close(entry["max_q"], best):
        fails.append(f"max_q {entry['max_q']!r} != {best!r}")
    graphs = _argmax_checks(entry, n, s, fails)
    want = {key for key, q in qs.items() if q >= best - EPS}
    got = {invariant(a) for a in graphs}
    if got != want:
        fails.append(f"argmax has {len(got)} classes, expected {len(want)}")
    cap = q_bound_t2(n, s)
    if any(is_regular_hub_join(a, s) for a in free.values()) and not close(best, cap):
        fails.append(f"the hub joins in the file give {best!r}, not q_bound_t2 = {cap!r}")
    return 1, fails


def check_qindex(report: dict, lines: list[str]) -> tuple[int, list[str]]:
    results = _results(report, "qindex")
    fails: list[str] = []
    if [r["graph6"] for r in results] != lines:
        return len(lines), ["qindex results do not follow the input lines"]
    for r in results:
        a = graph6_decode(r["graph6"])
        deg = a.sum(axis=1)
        lam = float(np.linalg.eigvalsh(a.astype(float))[-1])
        merris = max((d + a[u] @ deg / d for u, d in enumerate(deg) if d > 0), default=None)
        ok = (
            r["n"] == a.shape[0]
            and r["edges"] == int(deg.sum()) // 2
            and r["max_degree"] == int(deg.max())
            and close(r["q"], q_top(a))
            and close(r["lambda"], lam)
            and (r["merris_bound"] is None if merris is None else close(r["merris_bound"], merris))
        )
        if not ok:
            fails.append(f"qindex {r['graph6'][:20]}: q {r['q']!r} lambda {r['lambda']!r}")
    return len(results), fails


def check_spectrum(report: dict, lines: list[str]) -> tuple[int, list[str]]:
    results = _results(report, "spectrum")
    fails: list[str] = []
    if [r["graph6"] for r in results] != lines:
        return len(lines), ["spectrum results do not follow the input lines"]
    for r in results:
        a = graph6_decode(r["graph6"])
        want = np.linalg.eigvalsh(q_matrix(a).astype(float))
        got = r["eigenvalues"]
        if len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
            fails.append(f"spectrum {r['graph6'][:20]} disagrees with eigvalsh")
    return len(results), fails


def check_free(report: dict, lines: list[str], s: int) -> tuple[int, list[str]]:
    results = _results(report, "free-check")
    fails: list[str] = []
    if [r["graph6"] for r in results] != lines:
        return len(lines), ["free-check results do not follow the input lines"]
    for r in results:
        a = graph6_decode(r["graph6"])
        free = k2_free(a, s)
        w = r["witness"]
        if r["verdict"] != ("free" if free else "contains"):
            fails.append(f"free-check {r['graph6'][:20]}: {r['verdict']}, codegree says free={free}")
        elif w is not None and not (
            len(w["left"]) == 2
            and len(w["right"]) == s + 1
            and not set(w["left"]) & set(w["right"])
            and all(a[u, v] for u in w["left"] for v in w["right"])
        ):
            fails.append(f"free-check {r['graph6'][:20]}: witness {w} is not a K_2,{s + 1}")
    return len(results), fails


def check_construct(report: dict, n: int, s: int) -> tuple[int, list[str]]:
    """Extremal join for t = 2: free, K1 v (s-regular), q at the cap."""
    (r,) = _results(report, "construct")
    fails: list[str] = []
    a = graph6_decode(r["graph6"])
    cap = q_bound_t2(n, s)
    if a.shape[0] != n or not is_regular_hub_join(a, s):
        fails.append(f"construct {r['graph6']} is not K1 v ({s}-regular) on {n} vertices")
    elif not (r["free"] and r["witness"] is None and k2_free(a, s)):
        fails.append(f"construct freeness {r['free']} / codegree {max_codegree(a)}")
    elif not (close(r["q"], q_top(a)) and close(r["q"], cap) and close(r["bound"], cap)):
        fails.append(f"construct q {r['q']!r} bound {r['bound']!r}, cap {cap!r}")
    return 1, fails
