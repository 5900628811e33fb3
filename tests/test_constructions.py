import math

import pytest

from qindex import constructions
from qindex.bounds import adjacency_bound, conjecture_bound, q_bound_t2
from qindex.canonical import canonical_key
from qindex.constructions import ExtremalSpec, build_extremal, circulant
from qindex.errors import HypothesisViolated, InvalidParameter, InvariantViolated
from qindex.forbidden import ForbiddenPattern, contains_kst, find_kst
from qindex.graphs import MAX_ORDER, Graph, complete_graph, from_edge_list, join
from qindex.search import is_extremal_join
from qindex.spectral import adjacency_radius, q_index
from conftest import disjoint_union


class TestCirculant:
    def test_pentagon(self):
        g = circulant(5, {1})
        assert g == from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

    def test_prism_like(self):
        g = circulant(6, {1, 3})
        assert g.degrees() == [3] * 6

    def test_degree_four(self):
        g = circulant(21, {1, 2})
        assert g.degrees() == [4] * 21

    def test_antipodal_offset_degree_one(self):
        g = circulant(6, {3})
        assert g.degrees() == [1] * 6

    def test_bad_offsets(self):
        with pytest.raises(InvalidParameter, match=r"offsets \[0\] outside 1\.\.3"):
            circulant(6, {0})
        with pytest.raises(InvalidParameter, match=r"offsets \[4\] outside 1\.\.3"):
            circulant(6, {4})


class TestBuildExtremal:
    def test_hub_join_pentagon(self):
        r = build_extremal(ExtremalSpec(6, 2, 2))
        assert r.free
        assert r.graph == join(complete_graph(1), circulant(5, [1]))
        assert q_index(r.graph).value == pytest.approx(q_bound_t2(6, 2), abs=1e-8)

    def test_parity_failure(self):
        with pytest.raises(InvalidParameter, match="parity: 1-regular on 5 vertices impossible"):
            build_extremal(ExtremalSpec(6, 1, 2))

    def test_threshold_order(self):
        r = build_extremal(ExtremalSpec(22, 2, 2))
        assert r.free
        assert q_index(r.graph).value == pytest.approx(13 + 0.5 * math.sqrt(340), abs=1e-8)

    def test_uncertifiable_surfaces_verdict(self):
        # order 5 with s=2 leaves only H = C_4, whose hub join contains K_{2,3}
        r = build_extremal(ExtremalSpec(5, 2, 2))
        assert not r.free
        assert r.witness is not None

    def test_unfree_build_counts_every_join(self):
        # m = 4 and d = min(2, 4 - 1 - 2) = 1: C_4 is the only 2-regular graph
        # of order 4, so its one join is every join, and it is not free
        r = build_extremal(ExtremalSpec(5, 2, 2))
        assert (r.attempts, r.exhaustive, r.strategy_used) == (1, True, "circulant")
        assert r.graph == join(complete_graph(1), circulant(4, [1]))
        assert contains_kst(r.graph, ForbiddenPattern.from_ts(2, 2))
        free = build_extremal(ExtremalSpec(6, 2, 2))  # free at the circulant
        assert (free.attempts, free.exhaustive) == (1, False)

    @pytest.mark.parametrize("n, s, t", [(7, 3, 2), (8, 3, 3), (9, 3, 4)])
    def test_enumeration_finds_the_prism(self, n, s, t):
        # m = 6: K_{t-1} v K_{3,3} (the circulant) contains K_{t,4}; the other
        # 3-regular graph of order 6, the prism (complement of C_6), gives a
        # free join, and the circulant's class is not joined a second time
        r = build_extremal(ExtremalSpec(n, s, t))
        assert (r.free, r.exhaustive, r.strategy_used, r.attempts) == (True, False, "enumerated", 2)
        prism = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
        assert canonical_key(r.graph) == canonical_key(join(complete_graph(t - 1), prism))

    def test_unfree_past_the_enumeration_order_is_not_exhaustive(self):
        # m = 10 > 9 with d = 2: the other 7-regular graphs are not enumerated
        r = build_extremal(ExtremalSpec(13, 7, 4))
        assert (r.free, r.exhaustive, r.strategy_used, r.attempts) == (False, False, "circulant", 1)
        assert r.witness == find_kst(r.graph, ForbiddenPattern.from_ts(4, 7))

    def test_larger_clique_side(self):
        r = build_extremal(ExtremalSpec(8, 2, 3))
        assert r.free
        assert q_index(r.graph).value == pytest.approx(conjecture_bound(8, 2, 3), abs=1e-8)

    def test_join_value_identity_grid(self):
        # q of K_1 v (s-regular H) must hit the closed form regardless of
        # which s-regular H came out, certified or not
        for s, m in [(1, 8), (2, 9), (3, 8), (4, 9), (2, 21)]:
            r = build_extremal(ExtremalSpec(m + 1, s, 2))
            assert q_index(r.graph).value == pytest.approx(q_bound_t2(m + 1, s), abs=1e-7)

    def test_cycle_union_joins_stay_free(self):
        # s=2, t=2: any union of cycles with no C_4 part keeps the hub join free
        pat = ForbiddenPattern.from_ts(2, 2)

        def partitions(m, smallest=3):
            if m == 0:
                yield []
            for part in range(smallest, m + 1):
                if part == 4 or m - part in (1, 2):
                    continue
                for rest in partitions(m - part, part):
                    yield [part] + rest

        count = 0
        for m in range(3, 13):
            for parts in partitions(m):
                h = disjoint_union(*(circulant(p, [1]) for p in parts))
                if h.n != m:
                    continue
                g = join(complete_graph(1), h)
                assert not contains_kst(g, pat), parts
                count += 1
        assert count >= 10

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter, match="2-regular needs order > 2, H has 2"):
            build_extremal(ExtremalSpec(3, 2, 2))  # H order 2 cannot be 2-regular
        with pytest.raises(HypothesisViolated, match="n=5, t=9"):
            ExtremalSpec(5, 1, 9)  # the clique side alone needs t-1 = 8 vertices
        with pytest.raises(InvalidParameter, match="graph order 63 exceeds the ceiling of 62"):
            ExtremalSpec(63, 2, 2)
        with pytest.raises(HypothesisViolated, match="need s >= t-1, got s=4, t=6"):
            ExtremalSpec(14, 4, 6)  # outside the conjecture: the cap is undefined there


# (n, s, t) -> (free, exhaustive, strategy_used) for every grid spec whose
# circulant join contains K_{t,s+1}; the rest are free at the circulant
UNFREE_CIRCULANT = {
    (5, 2, 2): (False, True, "circulant"),
    (7, 3, 2): (True, False, "enumerated"),
    (7, 4, 2): (False, True, "circulant"),
    (9, 6, 2): (False, True, "circulant"),
    (11, 8, 2): (False, True, "circulant"),
    (6, 2, 3): (False, True, "circulant"),
    (8, 3, 3): (True, False, "enumerated"),
    (8, 4, 3): (False, True, "circulant"),
    (10, 6, 3): (False, True, "circulant"),
    (12, 8, 3): (False, True, "circulant"),
    (9, 3, 4): (True, False, "enumerated"),
    (9, 4, 4): (False, True, "circulant"),
    (11, 6, 4): (False, True, "circulant"),
    (13, 7, 4): (False, False, "circulant"),
    (13, 8, 4): (False, True, "circulant"),
}


def test_every_spec_of_the_grid_builds_deterministically():
    specs = [(n, s, t) for t in (2, 3, 4) for s in range(t - 1, 9) for n in range(t, MAX_ORDER + 1)
             if n - t + 1 > s and (n - t + 1) * s % 2 == 0]
    assert len(specs) == 882
    outcomes = {}
    for n, s, t in specs:
        r = build_extremal(ExtremalSpec(n, s, t))
        assert build_extremal(ExtremalSpec(n, s, t)) == r
        assert (r.witness is None) == r.free
        assert is_extremal_join(r.graph, s, t)
        # the quotient's root is the join's q (LAPACK as the oracle) and the cap
        assert abs(r.q - q_index(r.graph).value) <= 1e-9 * r.q
        assert r.q == conjecture_bound(n, s, t)
        outcomes[n, s, t] = (r.free, r.exhaustive, r.strategy_used)
    assert {k: v for k, v in outcomes.items() if v != (True, False, "circulant")} == UNFREE_CIRCULANT


# free circulant joins at t = 2 and 3, an unfree one with every H checked and
# an unfree one past the enumeration order: each returns the circulant's join
@pytest.mark.parametrize("n, s, t", [(22, 2, 2), (8, 2, 3), (5, 2, 2), (13, 7, 4)])
def test_a_build_that_is_not_a_join_is_an_invariant_violation(monkeypatch, n, s, t):
    # the quotient's root is q only for K_{t-1} v (s-regular H): a join whose
    # first hub vertex misses the last vertex must not get a q
    def broken_join(g, h):
        adj = list(join(g, h).adj)
        adj[0] &= ~(1 << len(adj) - 1)
        adj[-1] &= ~1
        return Graph(len(adj), adj)

    monkeypatch.setattr(constructions, "join", broken_join)
    with pytest.raises(InvariantViolated, match=f"not K_{t - 1} v"):
        build_extremal(ExtremalSpec(n, s, t))


class TestDesignGraph:
    def test_rook_equality_case(self, rook_4x4):
        # design graphs sit exactly on the adjacency bound at pattern K_{s+1,2}
        assert adjacency_radius(rook_4x4).value == pytest.approx(
            adjacency_bound(16, 3, 2), abs=1e-7
        )

    def test_shrikhande_graph(self, rook_4x4):
        # same parameters as the rook graph but a different isomorphism class
        diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
        edges = [
            (4 * a + b, 4 * c + d)
            for a in range(4)
            for b in range(4)
            for c in range(4)
            for d in range(4)
            if 4 * a + b < 4 * c + d and ((a - c) % 4, (b - d) % 4) in diffs
        ]
        shrikhande = from_edge_list(16, edges)
        codegrees = {(shrikhande.adj[u] & shrikhande.adj[v]).bit_count() for v in range(16) for u in range(v)}
        assert codegrees == {2}  # every pair has 2 common neighbours, as in the rook graph
        assert adjacency_radius(shrikhande).value == pytest.approx(
            adjacency_bound(16, 3, 2), abs=1e-7
        )
        from qindex.canonical import canonical_key

        assert canonical_key(shrikhande) != canonical_key(rook_4x4)
