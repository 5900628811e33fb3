import gc
import itertools
import math
import random
import time

import numpy as np
import pytest
from numpy.linalg import eigvalsh

import qindex.canonical as canonical
import qindex.search as search
from qindex.bounds import q_bound_t2
from qindex.canonical import canonical_graph6, canonical_key, degree_cap, refinement_cells
from qindex.constructions import circulant
from qindex.errors import InvalidParameter, InvariantViolated
from qindex.forbidden import ForbiddenPattern, _contains_through, _walk
from qindex.graphs import (
    Graph,
    _bits,
    complete_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    join,
)
from qindex.search import (
    JoinCapReport,
    enumerate_levels,
    exhaustive_max_q,
    heuristic_max_q,
    is_extremal_join,
    join_cap_scan,
)
from qindex.spectral import DEFAULT_TOL, _matrices, _top, q_index
from conftest import (
    disjoint_union,
    edges,
    enumerate_graphs,
    exhaustive_scan,
    path_graph,
    random_graph,
    relabel,
    relabeled_lines,
    unrestricted,
)

UNLABELED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def per_mask_levels(max_n, keep):
    """Reference for ``enumerate_levels``: every kept parent is extended by
    all 2^|P| neighbour masks, and each child is labeled through
    ``canonical_key``.  ``keep`` runs on certificates, whose last vertex is
    not the new one, so it must test the whole graph."""
    current = [(0,)] if keep((0,)) else []
    yield 1, list(current), 1
    for order in range(2, max_n + 1):
        seen = set()
        kept = set()
        for parent in current:
            for mask in range(1 << len(parent)):
                adj = [m | 1 << len(parent) if mask >> u & 1 else m for u, m in enumerate(parent)]
                _, cert = canonical_key(Graph(order, adj + [mask]))
                if cert in seen:
                    continue
                seen.add(cert)
                if keep(cert):
                    kept.add(cert)
        current = sorted(kept)
        yield order, current, len(seen)


def free_of(t, s):
    """The scan's keep-predicate: it walks only the copies through the last vertex."""
    return search._free_predicate(ForbiddenPattern.from_ts(t, s))


def whole_free_of(t, s):
    """Whether the whole graph is K_{t,s+1}-free."""
    return lambda adj: _walk(adj, t, s + 1) is None


def max_degree_2(adj):
    return all(m.bit_count() <= 2 for m in adj)


def triangle_free(adj):
    return not any(adj[u] & adj[v] for u in range(len(adj)) for v in _bits(adj[u]))


PATTERNS = {"K_{2,2}-free": (2, 1), "K_{2,3}-free": (2, 2), "K_{3,3}-free": (3, 2)}

# keep-predicates for enumerate_levels, each given that the graph less its
# last vertex passes
ORACLE_PREDICATES = {
    "unrestricted": unrestricted,
    **{name: free_of(*ts) for name, ts in PATTERNS.items()},
    "max degree <= 2": degree_cap(2),
    # hereditary but not a K_{t,s+1} pattern
    "triangle-free": triangle_free,
}
# the same properties tested on the whole graph, for per_mask_levels
WHOLE_GRAPH_PREDICATES = {
    **ORACLE_PREDICATES,
    **{name: whole_free_of(*ts) for name, ts in PATTERNS.items()},
    "max degree <= 2": max_degree_2,
}


class TestCanonical:
    def test_relabel_invariance(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(relabel(g, perm))

    def test_distinguishes_same_degree_sequence(self):
        # C_6 and 2 triangles are both 2-regular on 6 vertices
        a = circulant(6, [1])
        b = disjoint_union(complete_graph(3), complete_graph(3))
        assert canonical_key(a) != canonical_key(b)

    def test_refinement_cells_partition(self):
        g = join(complete_graph(1), path_graph(4))
        cells = refinement_cells(g.n, g.adj)
        flat = sorted(v for cell in cells for v in cell)
        assert flat == list(range(g.n))

    def test_labeled_brute_force_counts_upto_5(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            keys = {
                canonical_key(
                    from_edge_list(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
                )
                for bits in range(1 << len(pairs))
            }
            assert len(keys) == UNLABELED_COUNTS[n]


class TestEnumeration:
    def test_class_counts_upto_7(self):
        for order, kept, seen in enumerate_levels(7, unrestricted):
            assert len(kept) == UNLABELED_COUNTS[order]
            assert seen == UNLABELED_COUNTS[order]

    def test_degree_cap_predicate(self):
        # graphs with max degree <= 2 are unions of paths and cycles
        for g in enumerate_graphs(6, keep=ORACLE_PREDICATES["max degree <= 2"]):
            assert g.max_degree() <= 2

    def test_all_outputs_canonical_and_distinct(self):
        # one mask tuple per class at every order, a certificate below the last
        for order, kept, _ in enumerate_levels(5, unrestricted):
            keys = {canonical_key(Graph(order, adj))[1] for adj in kept}
            assert len(keys) == len(kept) == UNLABELED_COUNTS[order]
            if order < 5:
                assert keys == set(kept)

    @pytest.mark.parametrize("t, s", itertools.product([2, 3], [1, 2, 3]))
    def test_free_predicate_is_the_whole_graph_test(self, t, s):
        # the keep-predicate walks only copies through the last vertex w, on
        # the promise that the graph less w is free: on every child of random
        # free parents it answers as a walk over the whole graph
        rng = random.Random(31 * t + s)
        keep, whole = free_of(t, s), whole_free_of(t, s)
        rejected = 0
        for n in [*range(t, 11)] * 2:  # two random parents of each order up to 10
            adj = list(random_graph(rng, n, rng.choice([0.4, 0.6, 0.8])).adj)
            while (found := _walk(adj, t, s + 1)) is not None:
                (u, *_), (v, *_) = found
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            for mask in range(1 << n):
                child = [m | 1 << n if mask >> u & 1 else m for u, m in enumerate(adj)] + [mask]
                assert keep(child) == whole(child), (adj, mask)
                rejected += not keep(child)
        assert rejected > 0


class TestOrbitPrunedAugmentation:
    @pytest.mark.parametrize("name", ORACLE_PREDICATES)
    def test_levels_match_per_mask_oracle(self, name):
        levels = list(enumerate_levels(7, ORACLE_PREDICATES[name]))
        # the last order lists some classes by their unlabeled masks
        order, kept, seen = levels[-1]
        levels[-1] = order, sorted(canonical_key(Graph(order, adj))[1] for adj in kept), seen
        assert levels == list(per_mask_levels(7, WHOLE_GRAPH_PREDICATES[name]))

    def test_k23_free_order_8_class_counts(self):
        *_, (order, kept, seen) = enumerate_levels(8, free_of(2, 2))
        assert (order, len(kept), seen) == (8, 2197, 8423)

    # the scans that count most of their classes without a certificate
    @pytest.mark.parametrize("name, counts", [("K_{2,2}-free", (351, 3469)), ("max degree <= 2", (46, 804))])
    def test_sparse_order_8_class_counts(self, name, counts):
        *_, (order, kept, seen) = enumerate_levels(8, ORACLE_PREDICATES[name])
        assert (order, len(kept), seen) == (8, *counts)

    def test_graphs_only_for_what_a_report_prints(self, monkeypatch):
        # a class is its certificate from generation to scoring: enumeration
        # builds no Graph (a Graph per kept class built 1,252 here), a scan
        # builds one per argmax class it encodes (526 when scoring took
        # Graphs), the join scan one per equality class it prints (59 when
        # each H and its join were Graphs), and a hunt one for its best graph
        # plus one for its canonical form (3 when scoring rebuilt it)
        built = []
        init = Graph.__init__

        def counted(self, n, adj):
            built.append(n)
            init(self, n, adj)

        monkeypatch.setattr(Graph, "__init__", counted)
        list(enumerate_levels(7, unrestricted))
        assert built == []
        report = exhaustive_max_q(7, ForbiddenPattern.from_ts(2, 2))
        assert 0 < len(built) <= len(report.argmax) + len(report.rest_argmax)
        built.clear()
        report = join_cap_scan(7, 2)
        assert 0 < len(built) <= len(report.equality_graph6)
        built.clear()
        heuristic_max_q(16, ForbiddenPattern.from_ts(2, 2), 2000, 3)
        assert 0 < len(built) <= 2

    @pytest.mark.parametrize("name, limit", [
        ("unrestricted", 1350),
        ("K_{2,3}-free", 800),
        ("max degree <= 2", 160),
    ])
    def test_outranked_children_are_not_labeled(self, monkeypatch, name, limit):
        # a child whose new vertex is outranked by a deletable old vertex is
        # dropped before labeling, and one whose new vertex is the unique top
        # is labeled only when kept; at the last order a child is labeled
        # only when another that may share its class (any tied child, or a
        # unique-top sibling) shares its degree profile.  Labeling every
        # orbit representative took 5,758, 3,741 and 640 calls here,
        # labeling every child not outranked 1,306, 1,120 and 424, and
        # labeling every kept unique-top child 1,306, 789 and 151, for 1,252,
        # 1,078 and 418 classes seen; now 363, 295 and 93 calls
        calls = []
        label = canonical._canonical

        def counted(n, adj):
            calls.append(n)
            return label(n, adj)

        monkeypatch.setattr(canonical, "_canonical", counted)
        seen = sum(seen for _, _, seen in enumerate_levels(7, ORACLE_PREDICATES[name]))
        assert len(calls) <= limit
        if name != "unrestricted":
            assert len(calls) < seen

    @pytest.mark.parametrize("name", ORACLE_PREDICATES)
    def test_leaves_no_cyclic_garbage(self, name):
        # labeling and K_{t,s+1} walks run with the collector off under
        # ``qx``: a cycle made per child would never be freed
        list(enumerate_levels(4, ORACLE_PREDICATES[name]))  # warm-up
        gc.collect()
        gc.disable()
        try:
            list(enumerate_levels(7, ORACLE_PREDICATES[name]))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["unrestricted", "K_{2,3}-free", "max degree <= 2"])
    def test_incomplete_automorphism_group_is_caught(self, monkeypatch, name):
        # a child whose new vertex is the unique top is counted without a
        # certificate on the promise that one orbit of masks gives it; with
        # no automorphisms every mask of an orbit is tried, and the kept
        # certificate met twice must raise rather than be counted again
        label = canonical._canonical
        monkeypatch.setattr(canonical, "_canonical", lambda n, adj: (label(n, adj)[0], []))
        with pytest.raises(InvariantViolated):
            list(enumerate_levels(6, ORACLE_PREDICATES[name]))

    @pytest.mark.parametrize("name", ["unrestricted", "K_{2,3}-free", "max degree <= 2"])
    def test_incomplete_group_of_a_last_parent_is_caught(self, monkeypatch, name):
        # the last order labels a unique-top child only when a sibling shares
        # its degree profile; with no automorphisms for the order-5 parents
        # alone, isomorphic siblings of order 6 arise and must still raise
        # (dropping them everywhere raises at an earlier order)
        label = canonical._canonical
        monkeypatch.setattr(canonical, "_canonical",
                            lambda n, adj: (label(n, adj)[0], []) if n == 5 else label(n, adj))
        with pytest.raises(InvariantViolated, match="order-6 class generated twice"):
            list(enumerate_levels(6, ORACLE_PREDICATES[name]))


class TestExhaustive:
    def test_an_argmax_with_the_pattern_is_an_invariant_violation(self, monkeypatch):
        # the scan re-verifies its argmax on Graphs: with a predicate that
        # keeps every class, K_5 tops the scan and contains K_{2,2}
        monkeypatch.setattr(search, "_free_predicate", lambda pat: unrestricted)
        with pytest.raises(InvariantViolated, match="argmax is not pattern-free"):
            exhaustive_max_q(5, ForbiddenPattern.from_ts(2, 1))

    def test_graphs_seen_at_order_4(self):
        report = exhaustive_max_q(4, ForbiddenPattern(2, 2))
        assert report.graphs_seen == 11
        assert report.free_graphs == 8  # C_4, diamond, K_4 contain 4-cycles

    def test_bowtie_is_the_order5_maximizer(self, bowtie):
        report = exhaustive_max_q(5, ForbiddenPattern(2, 2))
        assert report.max_q == pytest.approx(q_bound_t2(5, 1), abs=1e-8)
        assert report.argmax == [canonical_graph6(bowtie)]
        assert report.argmax_is_extremal_join
        assert report.verdict == "bound_holds"

    def test_order3_all_free(self):
        report = exhaustive_max_q(3, ForbiddenPattern(2, 2))
        assert report.free_graphs == 4
        assert report.max_q == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("t, s", [(2, 1), (2, 2), (3, 2)])
    def test_max_q_matches_scan_at_each_order(self, t, s):
        pat = ForbiddenPattern.from_ts(t, s)
        for n, scanned in enumerate(exhaustive_scan(6, pat), start=1):
            direct = exhaustive_max_q(n, pat)
            assert direct._replace(runtime_ms=0) == scanned._replace(runtime_ms=0)

    def test_builtin_cap(self):
        with pytest.raises(InvalidParameter, match="builtin enumeration capped at order 9"):
            exhaustive_max_q(10, ForbiddenPattern(2, 2))

    @pytest.mark.parametrize("t, s", [(2, 1), (2, 2), (3, 2)])
    def test_stream_source_relabel_invariant(self, t, s):
        # every order-7 class in 1-3 relabeled copies, shuffled: lines alone
        # with their degree profile go unlabeled, the rest are deduplicated,
        # and the report is the builtin one with each class seen once
        rng = random.Random(5)
        lines = relabeled_lines(rng, [g for g in enumerate_graphs(7) for _ in range(rng.randint(1, 3))])
        rng.shuffle(lines)
        pat = ForbiddenPattern.from_ts(t, s)
        rep_stream = exhaustive_max_q(7, pat, stream=iter(lines))
        rep_builtin = exhaustive_max_q(7, pat)
        assert rep_stream.graphs_seen == UNLABELED_COUNTS[7]
        same = dict(graphs_seen=0, runtime_ms=0)
        assert rep_stream._replace(**same) == rep_builtin._replace(**same)

    def test_stream_labels_both_lines_of_a_shared_profile(self):
        # K_1 v C_9 and K_1 v (C_3 u C_6) share a degree profile but are not
        # isomorphic: a collision is labeled, not taken for a duplicate
        hub = complete_graph(1)
        joins = [join(hub, circulant(9, [1])), join(hub, disjoint_union(circulant(3, [1]), circulant(6, [1])))]
        assert canonical._degree_profile(joins[0].adj) == canonical._degree_profile(joins[1].adj)
        report = exhaustive_max_q(10, ForbiddenPattern.from_ts(2, 2), stream=[graph6_encode(g) for g in joins])
        assert report.graphs_seen == 2

    def test_stream_of_distinct_profiles_labels_nothing(self, monkeypatch):
        # one order-7 class per degree profile: every line is a class alone,
        # scored unlabeled, so only the printed argmax is labeled, by _canonical
        calls = counted_keys(monkeypatch)
        by_profile = {canonical._degree_profile(g.adj): g for g in enumerate_graphs(7)}
        lines = relabeled_lines(random.Random(7), by_profile.values())
        report = exhaustive_max_q(7, ForbiddenPattern.from_ts(2, 2), stream=lines)
        assert calls == []
        assert report.graphs_seen == len(lines)
        # K_1 v 2C_3 shares K_1 v C_6's profile, so one of the two maximizers is left out
        builtin = exhaustive_max_q(7, ForbiddenPattern.from_ts(2, 2))
        assert report.max_q == builtin.max_q and set(report.argmax) < set(builtin.argmax)

    def test_stream_label_count_on_a_bench_shaped_stream(self, monkeypatch):
        calls = counted_keys(monkeypatch)
        lines = bench_shaped_stream(random.Random(14))
        report = exhaustive_max_q(12, ForbiddenPattern.from_ts(2, 2), stream=lines)
        assert report.graphs_seen == 44
        # the four hub joins share one profile, and each copy is labeled with
        # the line it copies: 4 + 2 * 5 calls
        assert len(calls) == 14

    def test_stream_errors(self):
        with pytest.raises(InvalidParameter, match="stream line 2: order byte 33 outside"):
            exhaustive_max_q(3, ForbiddenPattern(2, 2), stream=iter(["Bw", "!!"]))
        with pytest.raises(InvalidParameter, match=r"stream line 2: multi-byte graph6 order header \(order > 62\)"):
            exhaustive_max_q(3, ForbiddenPattern(2, 2), stream=iter(["Bw", "~??@??"]))
        with pytest.raises(InvalidParameter, match="stream line 1: order 5, expected 3"):
            exhaustive_max_q(3, ForbiddenPattern(2, 2), stream=iter(["DQc"]))
        # no graph line at all is no enumeration, not a proof of the bound
        for lines in ([], ["", "  \n"]):
            with pytest.raises(InvalidParameter, match="no graph line"):
                exhaustive_max_q(5, ForbiddenPattern(2, 2), stream=iter(lines))

    def test_stream_with_no_free_class(self):
        # K6, K_{2,4} twice (relabeled) and K_{3,3}: each contains K_{2,3},
        # so the scan scores an empty list and both halves are vacuous
        report = exhaustive_max_q(6, ForbiddenPattern.from_ts(2, 2),
                                  stream=["E~~w", "E]r?", "E?~o", "EFz_"])
        assert (report.graphs_seen, report.free_graphs) == (3, 0)
        assert (report.max_q, report.argmax, report.verdict) == (0.0, [], "bound_holds")
        assert (report.rest_max_q, report.rest_argmax, report.rest_below_n) == (0.0, [], True)

    def test_free_graphs_reverified(self):
        pat = ForbiddenPattern.from_ts(2, 1)
        for report in exhaustive_scan(6, pat):
            for line in report.argmax:
                g = graph6_decode(line)
                from qindex.forbidden import contains_kst

                assert not contains_kst(g, pat)


class TestJoinCapScan:
    def test_m5_s2_equality_is_pentagon(self):
        report = join_cap_scan(5, 2)
        assert report.all_capped
        assert report.equality_graph6 == [canonical_graph6(circulant(5, [1]))]
        assert report.equality_all_regular and report.regular_all_equality

    def test_m4_s1_equality_is_perfect_matching(self):
        matching = from_edge_list(4, [(0, 1), (2, 3)])
        report = join_cap_scan(4, 1)
        assert report.equality_graph6 == [canonical_graph6(matching)]
        assert report.equality_all_regular and report.regular_all_equality

    def test_m5_s1_no_equality_by_parity(self):
        report = join_cap_scan(5, 1)
        assert report.all_capped
        assert report.equality_graph6 == []
        assert report.max_q < report.bound - 1e-7

    def test_grid_m_le_6(self):
        for m in range(1, 7):
            for s in (1, 2, 3):
                report = join_cap_scan(m, s)
                assert report.all_capped
                assert report.equality_all_regular and report.regular_all_equality

    def test_grid_holds_with_zero_slack(self):
        # equality joins miss the closed form by a few ulp; a q within its
        # certified residual of the cap meets it
        for m in range(3, 9):
            for s in (1, 2, 3):
                report = join_cap_scan(m, s)
                assert report.verdict == "bound_holds", (m, s)

    @pytest.mark.parametrize("m, s", [(4, 1), (5, 1), (7, 2), (8, 3)])
    def test_labels_only_the_printed_equality_set(self, monkeypatch, m, s):
        # prop4 prints no argmax, so the only classes it labels are the
        # equality classes it prints (none at m = 5, s = 1; six at m = 8, s = 3)
        calls = []
        label = search._canonical
        monkeypatch.setattr(search, "_canonical", lambda n, adj: calls.append(adj) or label(n, adj))
        report = join_cap_scan(m, s)
        assert len(calls) == len(report.equality_graph6)


class TestDominatingScan:
    """The paper's split: a class with a dominating vertex is K_1 v H with
    Delta(H) <= s, capped by ``join_cap_scan``; the best class without one
    is the exhaustive report's ``rest_*`` half."""

    @pytest.mark.parametrize("n, s", [(5, 1), (6, 2), (7, 2)])
    @pytest.mark.parametrize("eps", [0.0, 1e300])
    def test_equality_split_ignores_slack(self, monkeypatch, n, s, eps):
        # equality is decided within the certified residual, never by the
        # violation slack EPS, so neither extreme of it moves the split
        monkeypatch.setattr(search, "EPS", eps)
        report = join_cap_scan(n - 1, s)
        assert report.all_capped
        assert report.equality_all_regular and report.regular_all_equality

    def test_order6_s2(self):
        report = exhaustive_max_q(6, ForbiddenPattern.from_ts(2, 2))
        assert report.max_q == pytest.approx(q_bound_t2(6, 2), abs=1e-8)
        wheel6 = join(complete_graph(1), circulant(5, [1]))
        assert canonical_graph6(wheel6) in report.argmax
        assert not report.bound_applicable  # n = 6 is far below the proved threshold
        assert join_cap_scan(5, 2).equality_graph6 == [canonical_graph6(circulant(5, [1]))]

    def test_order5_s1(self, bowtie):
        report = exhaustive_max_q(5, ForbiddenPattern.from_ts(2, 1))
        assert report.max_q == pytest.approx(q_bound_t2(5, 1), abs=1e-8)
        assert report.argmax == [canonical_graph6(bowtie)]
        matching = from_edge_list(4, [(0, 1), (2, 3)])
        assert join_cap_scan(4, 1).equality_graph6 == [canonical_graph6(matching)]

    def test_order4_s1_rest_class(self):
        # without a dominating vertex the best C_4-free order-4 graph is
        # a triangle plus an isolated vertex, whose q equals n exactly
        report = exhaustive_max_q(4, ForbiddenPattern.from_ts(2, 1))
        assert report.rest_max_q == pytest.approx(4.0, abs=1e-9)
        assert not report.rest_below_n
        assert report.verdict == "bound_holds"
        tri = from_edge_list(4, [(0, 1), (0, 2), (1, 2)])
        assert canonical_graph6(tri) in report.rest_argmax

    def test_order5_s1_rest_class(self):
        # at order 5 the best C_4-free graph without a dominating vertex is
        # the bull (a triangle with pendant edges at two corners), below n
        report = exhaustive_max_q(5, ForbiddenPattern.from_ts(2, 1))
        assert report.rest_max_q == pytest.approx(4.935432331970031, abs=1e-9)
        assert report.rest_below_n
        bull = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
        assert report.rest_argmax == [canonical_graph6(bull)]

    def test_no_rest_class_is_vacuous(self):
        # K_1 is its own dominating vertex, so the rest half is empty
        report = exhaustive_scan(1, ForbiddenPattern.from_ts(2, 1))[0]
        assert (report.rest_max_q, report.rest_argmax, report.rest_below_n) == (0.0, [], True)


class TestFloatSlack:
    """Each float comparison of the scans allows exactly its stated slack."""

    def test_above_allows_eps_plus_the_certified_error(self):
        assert not search._above(search.EPS + DEFAULT_TOL / 2, 0.0)
        assert search._above(search.EPS + 2 * DEFAULT_TOL, 0.0)

    def test_at_cap_includes_its_edge(self):
        assert search._at_cap(DEFAULT_TOL, 0.0)
        assert not search._at_cap(2 * DEFAULT_TOL, 0.0)

    def test_argmax_keeps_a_tie_at_its_edge(self):
        a, b = (1,), (2,)
        assert search._argmax([(1.0, a), (1.0 - search.EPS, b)]) == (1.0, [a, b])
        assert search._argmax([(1.0, a), (1.0 - 2 * search.EPS, b)]) == (1.0, [a])


class TestHeuristic:
    def test_matches_exhaustive_at_order5(self):
        pat = ForbiddenPattern.from_ts(2, 1)
        hunt = heuristic_max_q(5, pat, budget=1000, seed=0)
        exact = exhaustive_max_q(5, pat)
        assert hunt.max_q == pytest.approx(exact.max_q, abs=1e-8)
        assert not hunt.exhaustive

    def test_never_beats_exhaustive(self):
        for t, s, n in [(2, 1, 6), (2, 2, 6), (2, 1, 7)]:
            pat = ForbiddenPattern.from_ts(t, s)
            hunt = heuristic_max_q(n, pat, budget=2000, seed=1)
            exact = exhaustive_max_q(n, pat)
            assert hunt.max_q <= exact.max_q + 1e-7

    def test_deterministic_per_seed(self):
        pat = ForbiddenPattern.from_ts(2, 1)
        a = heuristic_max_q(7, pat, budget=500, seed=9)
        b = heuristic_max_q(7, pat, budget=500, seed=9)
        assert a.argmax == b.argmax
        assert a.max_q == b.max_q

    def test_free_throughout(self):
        from qindex.forbidden import contains_kst

        pat = ForbiddenPattern.from_ts(2, 2)
        report = heuristic_max_q(9, pat, budget=3000, seed=4)
        g = graph6_decode(report.argmax[0])
        assert not contains_kst(g, pat)

    def test_bad_budget(self):
        with pytest.raises(InvalidParameter, match="budget must be >= 1, got 0"):
            heuristic_max_q(5, ForbiddenPattern(2, 2), budget=0, seed=0)

    @pytest.mark.parametrize("budget", [10 ** 18, 10 ** 200, 10 ** 400])
    def test_budget_whose_cooling_factor_rounds_to_one(self, monkeypatch, budget):
        monkeypatch.setattr(search, "_contains_through", None)  # the walk never starts
        with pytest.raises(InvalidParameter, match=r"budget too large \(\d+ digits\): its cooling factor"):
            heuristic_max_q(4, ForbiddenPattern(2, 2), budget=budget, seed=0)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 9, 16, 22, 30])
    def test_matches_the_reference_annealer(self, n, s, t):
        pat = ForbiddenPattern.from_ts(t, s)
        for seed, budget in [(n + s, 300), (7 * t + s, 1000), (n * s + t, 3000)]:
            assert same_hunt(n, pat, budget, seed)

    def test_the_bound_saves_most_eigensolves(self, monkeypatch):
        calls = []

        def full(m):
            calls.append(1)
            return eigvalsh(m)

        monkeypatch.setattr(search, "_jacobi", full)
        pat = ForbiddenPattern.from_ts(2, 2)
        hunt = heuristic_max_q(16, pat, budget=2000, seed=2)
        assert hunt._replace(runtime_ms=0) == reference_hunt(16, pat, 2000, 2)._replace(runtime_ms=0)
        assert len(calls) < hunt.free_graphs

    def test_order_above_ceiling_fails_before_walking(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the walk ran before the order was checked")

        monkeypatch.setattr(search, "_contains_through", walked)
        with pytest.raises(InvalidParameter, match="graph order 63 exceeds the ceiling of 62"):
            heuristic_max_q(63, ForbiddenPattern(2, 2), budget=10 ** 6, seed=0)


def reference_hunt(n, pat, budget, seed):
    """Reference annealer for ``heuristic_max_q``, whose reports must equal its own:
    one eigvalsh call per evaluated proposal and one pattern check per insertion,
    with no deletion bound and nothing kept between proposals."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    alpha = (search.T_END / search.T_START) ** (1.0 / budget)
    temp = search.T_START
    adj = [0] * n
    m = _matrices(adj)
    q_cur, best_q, best_adj, evaluated = 0.0, -1.0, tuple(adj), 0
    for _ in range(budget):
        temp *= alpha
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        adding = not adj[u] >> v & 1
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if adding and _contains_through(adj, pat, u, v):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            continue
        delta = 1.0 if adding else -1.0
        for i, j in ((u, v), (v, u), (u, u), (v, v)):
            m[i, j] += delta
        q_new = float(eigvalsh(m)[-1])
        evaluated += 1
        dq = q_new - q_cur
        if dq >= 0 or rng.random() < math.exp(dq / temp):
            q_cur = q_new
            if q_new > best_q:
                best_q, best_adj = q_new, tuple(adj)
        else:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            for i, j in ((u, v), (v, u), (u, u), (v, v)):
                m[i, j] -= delta
    best = Graph(n, best_adj)
    return search._finish_report(n, pat, search._cap(n, pat), [best], q_index(best).value, canonical_graph6,
                                 t0, graphs_seen=budget, free_graphs=evaluated, exhaustive=False,
                                 seed=seed, budget=budget)


def same_hunt(n, pat, budget, seed):
    """Whether the hunt's report equals the reference annealer's, runtime aside."""
    hunt = heuristic_max_q(n, pat, budget=budget, seed=seed)
    return hunt._replace(runtime_ms=0) == reference_hunt(n, pat, budget, seed)._replace(runtime_ms=0)


class TestDropBound:
    """``search._drop_bound`` against the true change in q from deleting each edge."""

    @staticmethod
    def graphs():
        rng = random.Random(35)
        for _ in range(60):
            n = rng.randint(2, 30)
            yield random_graph(rng, n, rng.uniform(0.05, 0.9))
        for _ in range(20):  # disconnected, components of unequal q
            a, b = random_graph(rng, rng.randint(2, 15), 0.5), random_graph(rng, rng.randint(2, 15), 0.3)
            yield disjoint_union(a, b)
        for _ in range(10):  # two equal components: lambda1 = lambda2
            a = random_graph(rng, rng.randint(2, 15), rng.uniform(0.2, 0.8))
            yield disjoint_union(a, a)
        yield disjoint_union(complete_graph(2), Graph(3, [0, 0, 0]))  # x on one edge: c^2 = 2

    def test_bounds_every_deletion(self):
        checked = 0
        for g in self.graphs():
            m = _matrices(g.adj)
            lam = eigvalsh(m)
            gap = lam[-1] - lam[-2]
            x = _top(m)[1]
            for u, v in edges(g):
                most = search._drop_bound(gap, x[u] + x[v])
                z = np.zeros(g.n)
                z[[u, v]] = 1.0
                dq = eigvalsh(m - np.outer(z, z))[-1] - lam[-1]
                assert dq <= most
                assert -gap - 1e-12 <= most - search.EPS <= 1e-12
                checked += 1
        assert checked > 3000

    def test_zero_gap_gives_zero(self):
        for c in [0.0, 0.3, 1.0, 1.2, math.sqrt(2), math.sqrt(2) + 1e-15]:
            assert search._drop_bound(0.0, c) == search.EPS

    def test_tight_on_a_lone_edge(self):
        # K_2 and isolated vertices: deleting the edge drops q from 2 to 0, the bound's -gap
        assert search._drop_bound(2.0, math.sqrt(2)) == pytest.approx(-2 + search.EPS, abs=1e-12)


HUGE = 10 ** 200  # an s whose cap overflows a double


@pytest.mark.parametrize("run", [
    lambda: exhaustive_max_q(9, ForbiddenPattern.from_ts(2, HUGE)),
    lambda: exhaustive_max_q(12, ForbiddenPattern.from_ts(2, HUGE), stream=iter(["K" + "?" * 11])),
    lambda: heuristic_max_q(4, ForbiddenPattern.from_ts(2, HUGE), budget=10 ** 6, seed=0),
], ids=["builtin", "stream", "hunt"])
def test_cap_past_a_double_fails_before_the_work(monkeypatch, run):
    def worked(*args, **kwargs):
        raise AssertionError("the work started before the cap was taken")

    for name in ("enumerate_levels", "_graph6_lines", "_contains_through"):
        monkeypatch.setattr(search, name, worked)
    with pytest.raises(InvalidParameter, match="n, s and t too large: a bound overflows double precision"):
        run()


class TestHuntAtProvedThreshold:
    def test_order_22_stays_capped(self):
        # n = 22 is the smallest proved order for s = 2; the walk must not
        # find anything above the cap
        pat = ForbiddenPattern.from_ts(2, 2)
        report = heuristic_max_q(22, pat, budget=10 ** 5, seed=1)
        assert report.max_q <= q_bound_t2(22, 2) + 1e-7
        assert report.verdict == "bound_holds"

    def test_bound_applicable_only_where_the_cap_is_proved(self):
        # proved for t = 2 from n = s^2 + 6s + 6 (22 at s = 2); t >= 3 is conjectured
        assert not exhaustive_max_q(7, ForbiddenPattern.from_ts(2, 2)).bound_applicable
        assert not exhaustive_max_q(7, ForbiddenPattern.from_ts(3, 2)).bound_applicable
        report = heuristic_max_q(22, ForbiddenPattern.from_ts(2, 2), budget=50, seed=0)
        assert report.bound_applicable
        assert not heuristic_max_q(22, ForbiddenPattern.from_ts(3, 2), budget=200, seed=1).bound_applicable


def hub_join_stream(rng):
    """Order-10 graph6 lines: every K1 v (2-regular H), each under two
    random labelings (their q ties at the t = 2 cap), plus random graphs."""
    hubs = [circulant(9, [1])] + [disjoint_union(circulant(a, [1]), circulant(9 - a, [1])) for a in (3, 4)]
    hubs.append(disjoint_union(*[circulant(3, [1])] * 3))
    graphs = [join(complete_graph(1), h) for h in hubs for _ in range(2)]
    graphs += [random_graph(rng, 10, 0.3) for _ in range(40)]
    return relabeled_lines(rng, graphs)


def bench_shaped_stream(rng):
    """Order-12 graph6 lines shaped like the benchmark's stream: the hub joins
    K_1 v C_11 and K_1 v (C_a u C_b) with a + b = 11, which share one degree
    profile, 40 random graphs at densities 0.1-0.3, and relabeled copies of
    five of them; shuffled."""
    hubs = [circulant(11, [1])] + [disjoint_union(circulant(a, [1]), circulant(11 - a, [1])) for a in (3, 4, 5)]
    randoms = [random_graph(rng, 12, 0.1 * (1 + i % 3)) for i in range(40)]
    lines = relabeled_lines(rng, [join(complete_graph(1), h) for h in hubs] + randoms + rng.sample(randoms, 5))
    rng.shuffle(lines)
    return lines


def counted_keys(monkeypatch):
    """Graphs passed to ``search.canonical_key`` from now on, which still labels them."""
    calls = []
    monkeypatch.setattr(search, "canonical_key", lambda g: calls.append(g) or canonical_key(g))
    return calls


SCORED_SCANS = {
    **{f"exhaustive_scan(7, t={t}, s={s})":
       lambda t=t, s=s: exhaustive_scan(7, ForbiddenPattern.from_ts(t, s))
       for t, s in [(2, 1), (2, 2), (3, 2)]},
    **{f"join_cap_scan({m}, {s})": lambda m=m, s=s: join_cap_scan(m, s)
       for m in range(3, 9) for s in (1, 2, 3)},
    **{f"exhaustive_max_q({n}, t=2, s={s})":
       lambda n=n, s=s: exhaustive_max_q(n, ForbiddenPattern.from_ts(2, s))
       for n in range(4, 9) for s in (1, 2, 3)},
    "stream exhaustive_max_q(10, t=2, s=2)": lambda: exhaustive_max_q(
        10, ForbiddenPattern.from_ts(2, 2), stream=iter(hub_join_stream(random.Random(23)))),
}
# the runs of one scan differ only in scoring, so its classes are enumerated
# once, and each graph's q_index value is computed once for every reference
ENUMERATED: dict = {}  # (scan name, max order) -> enumerate_levels output
CERTIFIED_Q: dict = {}  # adjacency mask tuple -> q_index value


def without_runtime(report):
    if isinstance(report, list):
        return [without_runtime(r) for r in report]
    return report._replace(runtime_ms=0)


def run_scan(name, monkeypatch):
    def levels_once(max_n, keep):
        if (name, max_n) not in ENUMERATED:
            ENUMERATED[name, max_n] = list(enumerate_levels(max_n, keep))
        return ENUMERATED[name, max_n]

    with monkeypatch.context() as m:
        m.setattr(search, "enumerate_levels", levels_once)
        return without_runtime(SCORED_SCANS[name]())


def certified_q(adj):
    if adj not in CERTIFIED_Q:
        CERTIFIED_Q[adj] = search.q_index(Graph(len(adj), adj)).value
    return CERTIFIED_Q[adj]


def certified_scan(name, monkeypatch):
    """The scan with every graph scored by its own ``q_index`` call: the
    per-graph reference the stacked scoring must reproduce."""
    def certify(masks):
        return [certified_q(adj) for adj in masks]

    with monkeypatch.context() as m:
        m.setattr(search, "_certified_q", certify)
        return run_scan(name, m)


def counted_top(calls):
    """``spectral._top`` that appends the stack size of each call to ``calls``."""
    def top(m):
        calls.append(len(m))
        return _top(m)

    return top


def perturbed_eigh(vector=0.0, value=0.0):
    """``numpy.linalg.eigh`` that, on a stack of matrices, moves entry 0 of
    the middle matrix's top eigenvector by ``vector`` and its top value by
    ``value``."""
    eigh = np.linalg.eigh

    def perturbed(m):
        w, v = eigh(m)
        if v.ndim == 3:
            w, v = w.copy(), v.copy()
            w[len(w) // 2, -1] += value
            v[len(v) // 2, 0, -1] += vector
        return w, v

    return perturbed


ORDER7_SCANS = pytest.mark.parametrize("scan", [
    lambda: exhaustive_max_q(7, ForbiddenPattern.from_ts(2, 2)),
    lambda: join_cap_scan(7, 2),
], ids=["exhaustive_max_q(7, K_{2,3})", "join_cap_scan(7, 2)"])


class TestCertifiedScoring:
    """Scans certify every graph's q in one stacked ``_top`` call."""

    @pytest.mark.parametrize("name", SCORED_SCANS)
    def test_same_report_as_certifying_every_graph(self, monkeypatch, name):
        assert run_scan(name, monkeypatch) == certified_scan(name, monkeypatch)

    def test_cap_below_the_argmax_band_is_certified(self, monkeypatch):
        # a cap at the q of K1 v (C5 + K1), far below the band of the top
        # joins: that join meets it, and the joins above it break it
        h = disjoint_union(circulant(5, [1]), complete_graph(1))
        cap = q_index(join(complete_graph(1), h)).value
        monkeypatch.setattr(search, "conjecture_bound", lambda n, s, t: cap)
        report = join_cap_scan(6, 2)
        assert report.equality_graph6 == [canonical_graph6(h)]
        assert not report.all_capped

    @ORDER7_SCANS
    def test_one_stacked_call_and_no_q_index(self, monkeypatch, scan):
        calls = []

        def q(g):
            raise AssertionError("a scan certified a graph through q_index")

        monkeypatch.setattr(search, "q_index", q)
        monkeypatch.setattr(search, "_top", counted_top(calls))
        report = scan()
        # one call scores every class as generated; verify certifies the few
        # argmax certificates it prints once more, since rounding may move q
        # with the labeling, and prop4 prints no argmax
        if isinstance(report, JoinCapReport):
            assert calls == [report.classes]
        else:
            assert len(calls) == 2 and calls[0] == report.free_graphs

    @pytest.mark.parametrize("name", SCORED_SCANS)
    @pytest.mark.parametrize("error", [{"vector": 1e-6}, {"value": 4e-10}], ids=["vector", "value"])
    def test_uncertified_eigenpair_in_the_stack_raises(self, monkeypatch, name, error):
        # one matrix of each stack gets a top eigenpair off by more than
        # DEFAULT_TOL allows: a vector entry moved by 1e-6, or the value moved
        # by 4e-10; its residual fails, so the scan stops instead of
        # reporting its q
        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh(**error))
        with pytest.raises(InvariantViolated):
            run_scan(name, monkeypatch)

    @pytest.mark.parametrize("name", SCORED_SCANS)
    def test_rounding_error_in_the_stack_is_certified(self, monkeypatch, name):
        # a vector entry moved by 1e-13, the scale of LAPACK's own error,
        # keeps every residual under DEFAULT_TOL: the report is unchanged
        expected = run_scan(name, monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh(vector=1e-13))
        assert run_scan(name, monkeypatch) == expected

    def test_chunked_scoring_matches_one_call(self, monkeypatch):
        pat = ForbiddenPattern.from_ts(2, 1)
        whole = exhaustive_max_q(6, pat)
        calls = []
        monkeypatch.setattr(search, "CHUNK_ENTRIES", 2 * 6 * 6)
        monkeypatch.setattr(search, "_top", counted_top(calls))
        chunked = exhaustive_max_q(6, pat)
        assert chunked._replace(runtime_ms=0) == whole._replace(runtime_ms=0)
        # the scored classes, then the printed argmax certificates
        printed = len(whole.argmax) + len(whole.rest_argmax)
        assert len(calls) == math.ceil(whole.free_graphs / 2) + math.ceil(printed / 2) and max(calls) == 2


@pytest.mark.slow
class TestSlowEnumeration:
    def test_order_9_class_count(self):
        *_, (order, kept, seen) = enumerate_levels(9, unrestricted)
        assert order == 9
        assert len(kept) == 274668
        assert seen == 274668

    def test_k22_free_order_9_class_counts(self):
        *_, (order, kept, seen) = enumerate_levels(9, free_of(2, 1))
        assert (order, len(kept), seen) == (9, 1230, 25862)

    def test_k23_free_order_9_class_counts(self):
        *_, (order, kept, seen) = enumerate_levels(9, free_of(2, 2))
        assert (order, len(kept), seen) == (9, 16864, 126018)

    def test_k33_free_order_9_class_counts(self):
        *_, (order, kept, seen) = enumerate_levels(9, free_of(3, 2))
        assert (order, len(kept), seen) == (9, 148080, 255320)


@pytest.mark.slow
class TestSlowHuntEquivalence:
    # hunt --n 30 --t 2 --s 2, then acceptance criterion 09's hunts (s = 1, n = 13-16)
    @pytest.mark.parametrize("n, s", [(30, 2), (13, 1), (14, 1), (15, 1), (16, 1)])
    def test_long_hunt_matches_the_reference_annealer(self, n, s):
        assert same_hunt(n, ForbiddenPattern.from_ts(2, s), 10 ** 5, 1)


class TestExtremalJoinRecognition:
    def test_positive_cases(self, bowtie):
        assert is_extremal_join(bowtie, 1, 2)
        assert is_extremal_join(join(complete_graph(1), circulant(5, [1])), 2, 2)
        assert is_extremal_join(join(complete_graph(2), circulant(6, [1])), 2, 3)
        assert is_extremal_join(complete_graph(4), 2, 2)  # K_4 = K_1 v K_3

    def test_negative_cases(self, petersen):
        assert not is_extremal_join(petersen, 3, 2)  # no dominating vertex
        assert not is_extremal_join(join(complete_graph(1), path_graph(4)), 1, 2)
        assert not is_extremal_join(complete_graph(2), 2, 3)  # n = t - 1: no rest at all
        assert not is_extremal_join(join(complete_graph(1), circulant(5, [1])), 1, 2)  # wrong s
        # a second dominating vertex left in the rest has degree n - 1, not s + 1
        assert not is_extremal_join(join(complete_graph(2), circulant(6, [1])), 2, 2)

    def test_agrees_with_a_search_over_hubs(self, all_graphs_upto_8):
        # the definition: some t-1 vertices adjacent to every other vertex,
        # and the rest (at least one vertex) spanning an s-regular graph
        def hub_join(g, hub, s):
            rest = (1 << g.n) - 1 & ~sum(1 << v for v in hub)
            return (rest != 0 and all(g.degree(v) == g.n - 1 for v in hub)
                    and all((g.adj[v] & rest).bit_count() == s for v in _bits(rest)))

        for order in range(1, 8):
            for g in all_graphs_upto_8[order]:
                for t in (2, 3, 4):
                    for s in range(1, 6):
                        want = any(hub_join(g, hub, s) for hub in itertools.combinations(range(g.n), t - 1))
                        assert is_extremal_join(g, s, t) == want, (graph6_encode(g), s, t)
