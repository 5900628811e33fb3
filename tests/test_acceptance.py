"""Acceptance suite.

One test per criterion, each at its stated tolerance, each emitting one
PASS/FAIL line (visible under ``pytest -s`` or in the captured output).
Exact verification runs at small orders, closed-form identities over wide
parameter grids, and the proved thresholds are exercised through the
inequality ledger since they sit beyond exhaustive reach.
"""

import itertools
import math
import random
import time

import pytest

import conftest

from qindex.bounds import (
    conjecture_bound,
    merris_bound,
    q_bound_t2,
    q_cap_ledger,
)
from qindex.canonical import canonical_key
from qindex.forbidden import ForbiddenPattern
from qindex.graphs import (
    MAX_ORDER,
    complete_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    join,
)
from qindex.search import heuristic_max_q
from qindex.spectral import adjacency_radius, full_spectrum, q_index
from conftest import exhaustive_scan, q_bound_window, random_graph, random_regular


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    # queued for the terminal summary so the line shows without -s
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def merris_corpus(all_graphs_upto_8):
    """Shared corpus for criteria 4 and 5: every class of order <= 8 plus
    1000 seeded random graphs of order <= 30, with q and lambda attached."""
    graphs = [g for order in range(2, 9) for g in all_graphs_upto_8[order]]
    rng = random.Random(20240901)
    for _ in range(1000):
        graphs.append(random_graph(rng, rng.randint(2, 30), rng.choice([0.15, 0.3, 0.5, 0.8])))
    stats = []
    for g in graphs:
        stats.append((g, q_index(g).value, adjacency_radius(g).value))
    return stats


def test_criterion_01_eigensolver_oracle_agreement(all_graphs_upto_8):
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for order in range(1, 8):
        for g in all_graphs_upto_8[order]:
            worst = max(worst, abs(q_index(g).value - max(full_spectrum(g, "Q"))))
            count += 1
    rng = random.Random(31415)
    for _ in range(500):
        g = random_graph(rng, rng.randint(8, 30), rng.choice([0.1, 0.3, 0.5, 0.8]))
        worst = max(worst, abs(q_index(g).value - max(full_spectrum(g, "Q"))))
        count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 120
    _report(1, "eigensolver oracle agreement", ok,
            f"{count} graphs, worst gap {worst:.2e}, {elapsed:.0f}s")
    assert worst <= 1e-8
    assert elapsed < 120


def test_criterion_02_regular_join_identity():
    worst = 0.0
    pairs = 0
    for s in range(1, 5):
        for m in range(s + 1, 31):
            if (s * m) % 2:
                continue
            n = m + 1
            target = (n + 2 * s) / 2 + 0.5 * math.sqrt((n - 2 * s) ** 2 + 8 * s)
            for seed in (0, 1, 2):
                h = random_regular(m, s, seed)
                q = q_index(join(complete_graph(1), h)).value
                worst = max(worst, abs(q - target))
            pairs += 1
    ok = worst <= 1e-7
    _report(2, "hub-join of s-regular graphs hits the closed form", ok,
            f"{pairs} (s,m) pairs x3 builds, worst gap {worst:.2e}")
    assert ok


def test_criterion_03_bounded_degree_join_scan():
    from qindex.search import join_cap_scan

    t0 = time.monotonic()
    ok = True
    scanned = 0
    for m in range(1, 8):
        for s in (1, 2, 3):
            report = join_cap_scan(m, s)
            scanned += report.classes
            if not (report.all_capped and report.equality_all_regular
                    and report.regular_all_equality):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    _report(3, "join cap exhaustive, equality exactly at regular parts", ok,
            f"{scanned} bounded-degree classes, {elapsed:.0f}s")
    assert ok


def test_criterion_04_merris_bound(merris_corpus):
    worst = -math.inf
    checked = 0
    for g, q, _lam in merris_corpus:
        if g.edge_count() == 0:
            continue
        worst = max(worst, q - merris_bound(g))
        checked += 1
    ok = worst <= 1e-7
    _report(4, "Merris degree bound dominates q", ok,
            f"{checked} graphs, worst excess {worst:.2e}")
    assert ok


def test_criterion_05_spectral_facts(merris_corpus):
    worst_q = -math.inf
    worst_lam = -math.inf
    for g, q, lam in merris_corpus:
        if g.edge_count() > 0:
            worst_q = max(worst_q, g.max_degree() + 1 - q)
        worst_lam = max(worst_lam, 2 * g.edge_count() / g.n - lam)
    ok = worst_q <= 1e-7 and worst_lam <= 1e-7
    _report(5, "q >= max degree + 1 and lambda >= average degree", ok,
            f"worst slacks {worst_q:.2e}, {worst_lam:.2e}")
    assert ok


def test_criterion_06_conjecture_reduction_at_t2():
    worst = max(
        abs(conjecture_bound(n, s, 2) - q_bound_t2(n, s))
        for s in range(1, 7)
        for n in range(3, 201)
    )
    ok = worst <= 1e-10
    _report(6, "general bound reduces to the t=2 form", ok, f"worst gap {worst:.2e}")
    assert ok


def test_criterion_07_bracketing_window_strict():
    ok = True
    cells = 0
    for s in range(1, 7):
        for n in range(3, 201):
            if n <= 2 * s:
                continue
            lo, hi = q_bound_window(n, s)
            v = q_bound_t2(n, s)
            cells += 1
            if not (lo < v < hi):
                ok = False
    _report(7, "cap strictly inside (n, n + 2s/(n-2s))", ok, f"{cells} grid cells")
    assert ok


def test_criterion_08_inequality_ledger():
    ok = True
    cells = 0
    for s in range(1, 7):
        for n in range(s * s + 6 * s + 6, 201):
            cells += 1
            if not all(q_cap_ledger(s, n).values()):
                ok = False
    _report(8, "q < n inequality ledger over the proved range", ok, f"{cells} (s,n) pairs")
    assert ok


def test_criterion_09_conjecture_probe():
    t0 = time.monotonic()
    violations = []
    for t, s in ((2, 1), (2, 2), (3, 2)):
        pat = ForbiddenPattern.from_ts(t, s)
        for report in exhaustive_scan(8, pat):
            if report.verdict == "bound_violated":
                violations.append((t, s, report.n))
    hunts_ok = True
    details = []
    pat = ForbiddenPattern.from_ts(2, 1)
    for n in range(13, 17):
        report = heuristic_max_q(n, pat, budget=10 ** 5, seed=1)
        cap = q_bound_t2(n, 1)
        best = graph6_decode(report.argmax[0])
        dominating = best.max_degree() == n - 1
        details.append(f"n={n}: gap {cap - report.max_q:.1e} dom={dominating}")
        if report.max_q > cap + 1e-4 or not dominating:
            hunts_ok = False
    elapsed = time.monotonic() - t0
    ok = not violations and hunts_ok and elapsed < 900
    _report(9, "no violation found, hunts recover dominating-vertex joins", ok,
            f"exhaustive n<=8 x3 patterns, {'; '.join(details)}, {elapsed:.0f}s")
    assert not violations
    assert hunts_ok
    assert elapsed < 900


def test_criterion_10_enumeration_counts(all_graphs_upto_8):
    expected = [1, 2, 4, 11, 34, 156, 1044, 12346]
    got = [len(all_graphs_upto_8[order]) for order in range(1, 9)]
    counts_ok = got == expected
    oracle_ok = True
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        keys = {
            canonical_key(
                from_edge_list(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            )
            for bits in range(1 << len(pairs))
        }
        if len(keys) != expected[n - 1]:
            oracle_ok = False
    ok = counts_ok and oracle_ok
    _report(10, "isomorphism-class counts and labeled brute-force oracle", ok,
            f"augmentation {got}, oracle n<=6 {'agrees' if oracle_ok else 'DISAGREES'}")
    assert ok


def test_criterion_11_graph6_round_trip():
    checked = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert graph6_decode(graph6_encode(g)) == g
            checked += 1
    rng = random.Random(62)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, MAX_ORDER), rng.random())
        text = graph6_encode(g)
        assert graph6_decode(text) == g
        assert graph6_encode(graph6_decode(text)) == text
        checked += 1
    _report(11, "graph6 codec round-trip identity", True, f"{checked} graphs")
