import itertools
import random
from dataclasses import replace

import pytest
from numpy.linalg import eigvalsh

import qindex.search as search
from qindex.bounds import q_bound_t2
from qindex.canonical import canonical_graph6, canonical_key, refinement_cells
from qindex.errors import InvalidBudget, InvalidVertexSet, MalformedGraph6, OrderOverflow, UseStreamSource
from qindex.forbidden import ForbiddenPattern
from qindex.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    join,
    path_graph,
)
from qindex.search import (
    dominating_vertex_scan,
    enumerate_graphs,
    enumerate_levels,
    exhaustive_max_q,
    exhaustive_scan,
    heuristic_max_q,
    is_extremal_join,
    join_cap_scan,
)
from qindex.spectral import q_index
from conftest import random_graph

UNLABELED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def per_mask_levels(max_n, keep=None):
    """Reference for ``enumerate_levels``: every kept parent is extended by
    all 2^|P| neighbour masks, and each child is labeled through
    ``canonical_key``."""
    k1 = empty_graph(1)
    current = [k1] if keep is None or keep(k1) else []
    yield 1, list(current), 1
    for order in range(2, max_n + 1):
        seen = set()
        kept = {}
        for parent in current:
            for mask in range(1 << parent.n):
                adj = [m | 1 << parent.n if mask >> u & 1 else m for u, m in enumerate(parent.adj)]
                key = canonical_key(Graph(order, adj + [mask]))
                if key in seen:
                    continue
                seen.add(key)
                child = Graph(*key)
                if keep is None or keep(child):
                    kept[key] = child
        current = [kept[k] for k in sorted(kept)]
        yield order, current, len(seen)


def free_of(t, s):
    return search._free_predicate(ForbiddenPattern.from_ts(t, s))


ORACLE_PREDICATES = {
    "unrestricted": None,
    "K_{2,2}-free": free_of(2, 1),
    "K_{2,3}-free": free_of(2, 2),
    "K_{3,3}-free": free_of(3, 2),
    "max degree <= 2": lambda g: g.max_degree() <= 2,
}


class TestCanonical:
    def test_relabel_invariance(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(g.relabel(perm))

    def test_distinguishes_same_degree_sequence(self):
        # C_6 and 2 triangles are both 2-regular on 6 vertices
        a = cycle_graph(6)
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
        for order, kept, seen in enumerate_levels(7):
            assert len(kept) == UNLABELED_COUNTS[order]
            assert seen == UNLABELED_COUNTS[order]

    def test_degree_cap_predicate(self):
        # graphs with max degree <= 2 are unions of paths and cycles
        for g in enumerate_graphs(6, keep=lambda g: g.max_degree() <= 2):
            assert g.max_degree() <= 2

    def test_all_outputs_canonical_and_distinct(self):
        graphs = enumerate_graphs(5)
        keys = {canonical_key(g) for g in graphs}
        assert len(keys) == len(graphs) == 34


class TestOrbitPrunedAugmentation:
    @pytest.mark.parametrize("name", ORACLE_PREDICATES)
    def test_levels_match_per_mask_oracle(self, name):
        keep = ORACLE_PREDICATES[name]
        assert list(enumerate_levels(7, keep)) == list(per_mask_levels(7, keep))

    def test_k23_free_order_8_class_counts(self):
        *_, (order, kept, seen) = enumerate_levels(8, free_of(2, 2))
        assert (order, len(kept), seen) == (8, 2197, 8423)

    def test_one_graph_per_new_class(self, monkeypatch):
        # children are built and labeled as masks; a Graph is built only for
        # a class not seen before (the per-mask extension built 12,542 here)
        built = []
        init = Graph.__init__

        def counted(self, n, adj):
            built.append(n)
            init(self, n, adj)

        monkeypatch.setattr(Graph, "__init__", counted)
        seen = sum(seen for _, _, seen in enumerate_levels(7))
        assert len(built) <= 2 * seen


class TestExhaustive:
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
            assert replace(direct, runtime_ms=0) == replace(scanned, runtime_ms=0)

    def test_builtin_cap(self):
        with pytest.raises(UseStreamSource):
            exhaustive_max_q(10, ForbiddenPattern(2, 2))

    def test_stream_source_relabel_invariant(self):
        rng = random.Random(5)
        base = enumerate_graphs(5)
        lines = []
        for g in base:
            perm = list(range(5))
            rng.shuffle(perm)
            lines.append(graph6_encode(g.relabel(perm)))
        rng.shuffle(lines)
        rep_stream = exhaustive_max_q(5, ForbiddenPattern(2, 2), stream=iter(lines + lines))
        rep_builtin = exhaustive_max_q(5, ForbiddenPattern(2, 2))
        assert rep_stream.graphs_seen == 34  # canonical dedup of 68 lines
        assert rep_stream.max_q == pytest.approx(rep_builtin.max_q, abs=1e-10)
        assert rep_stream.argmax == rep_builtin.argmax

    def test_stream_errors(self):
        with pytest.raises(MalformedGraph6, match="line 2"):
            exhaustive_max_q(3, ForbiddenPattern(2, 2), stream=iter(["Bw", "!!"]))
        with pytest.raises(InvalidVertexSet, match="line 1"):
            exhaustive_max_q(3, ForbiddenPattern(2, 2), stream=iter(["DQc"]))

    def test_free_graphs_reverified(self):
        pat = ForbiddenPattern.from_ts(2, 1)
        for report in exhaustive_scan(6, pat):
            for line in report.argmax:
                g = graph6_decode(line)
                from qindex.forbidden import contains_kst

                assert g.n < pat.order or not contains_kst(g, pat)


class TestJoinCapScan:
    def test_m5_s2_equality_is_pentagon(self):
        report = join_cap_scan(5, 2)
        assert report.all_capped
        assert report.equality_graph6 == [canonical_graph6(cycle_graph(5))]
        assert report.equality_all_regular and report.regular_all_equality

    def test_m4_s1_equality_is_perfect_matching(self):
        matching = disjoint_union(complete_graph(2), complete_graph(2))
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
        # certified residual of the cap meets it whatever eps is
        for m in range(3, 9):
            for s in (1, 2, 3):
                report = join_cap_scan(m, s, eps=0.0)
                assert report.verdict == "bound_holds", (m, s)


class TestDominatingScan:
    @pytest.mark.parametrize("n, s", [(5, 1), (6, 2), (7, 2)])
    @pytest.mark.parametrize("eps", [0.0, 1e300])
    def test_equality_split_ignores_slack(self, n, s, eps):
        report = dominating_vertex_scan(n, s, eps=eps)
        assert report.dominating_capped and report.equality_matches_regular_join

    def test_order6_s2(self):
        report = dominating_vertex_scan(6, 2)
        assert report.dominating_max_q == pytest.approx(q_bound_t2(6, 2), abs=1e-8)
        wheel6 = join(complete_graph(1), cycle_graph(5))
        assert canonical_graph6(wheel6) in report.dominating_argmax
        assert report.dominating_capped and report.equality_matches_regular_join
        assert not report.cap_applicable  # n = 6 is far below the proved threshold

    def test_order5_s1(self, bowtie):
        report = dominating_vertex_scan(5, 1)
        assert report.dominating_max_q == pytest.approx(q_bound_t2(5, 1), abs=1e-8)
        assert report.dominating_argmax == [canonical_graph6(bowtie)]

    def test_order4_s1_rest_class(self):
        # without a dominating vertex the best C_4-free order-4 graph is
        # a triangle plus an isolated vertex, whose q equals n exactly
        report = dominating_vertex_scan(4, 1)
        assert report.rest_max_q == pytest.approx(4.0, abs=1e-9)
        assert not report.rest_below_n
        assert not report.cap_applicable
        tri = disjoint_union(complete_graph(3), complete_graph(1))
        assert canonical_graph6(tri) in report.rest_argmax


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
        with pytest.raises(InvalidBudget):
            heuristic_max_q(5, ForbiddenPattern(2, 2), budget=0, seed=0)

    def test_one_lapack_call_per_evaluated_proposal(self, monkeypatch):
        # every evaluated proposal is scored by exactly one eigvalsh call,
        # and the walk never runs power iteration
        def power(*args):
            raise AssertionError("the walk ran power iteration")

        calls = []

        def full(m):
            calls.append(1)
            return eigvalsh(m)

        monkeypatch.setattr(search, "_power_largest", power)
        monkeypatch.setattr(search, "_jacobi", full)
        pat = ForbiddenPattern.from_ts(2, 1)
        hunt = heuristic_max_q(5, pat, budget=1000, seed=0)
        assert len(calls) == hunt.free_graphs > 0
        assert hunt.max_q == pytest.approx(exhaustive_max_q(5, pat).max_q, abs=1e-8)

    def test_order_above_ceiling_fails_before_walking(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the walk ran before the order was checked")

        monkeypatch.setattr(search, "_contains_through", walked)
        with pytest.raises(OrderOverflow):
            heuristic_max_q(63, ForbiddenPattern(2, 2), budget=10 ** 6, seed=0)


class TestHuntAtProvedThreshold:
    def test_order_22_stays_capped(self):
        # n = 22 is the smallest proved order for s = 2; the walk must not
        # find anything above the cap
        pat = ForbiddenPattern.from_ts(2, 2)
        report = heuristic_max_q(22, pat, budget=10 ** 5, seed=1)
        assert report.max_q <= q_bound_t2(22, 2) + 1e-7
        assert report.verdict == "bound_holds"


@pytest.mark.slow
class TestSlowEnumeration:
    def test_order_9_class_count(self):
        *_, (order, kept, seen) = enumerate_levels(9)
        assert order == 9
        assert len(kept) == 274668
        assert seen == 274668

    def test_k22_free_order_9_class_counts(self):
        *_, (order, kept, seen) = enumerate_levels(9, free_of(2, 1))
        assert (order, len(kept), seen) == (9, 1230, 25862)


class TestExtremalJoinRecognition:
    def test_positive_cases(self, bowtie):
        assert is_extremal_join(bowtie, 1, 2)
        assert is_extremal_join(join(complete_graph(1), cycle_graph(5)), 2, 2)
        assert is_extremal_join(join(complete_graph(2), cycle_graph(6)), 2, 3)
        assert is_extremal_join(complete_graph(4), 2, 2)  # K_4 = K_1 v K_3

    def test_negative_cases(self, petersen):
        assert not is_extremal_join(petersen, 3, 2)  # no dominating vertex
        assert not is_extremal_join(join(complete_graph(1), path_graph(4)), 1, 2)
