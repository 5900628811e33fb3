import math
import random

import pytest

import qindex.constructions as constructions
from qindex.bounds import adjacency_bound, conjecture_bound, q_bound_t2
from qindex.constructions import ExtremalSpec, build_extremal, circulant, random_regular
from qindex.errors import HypothesisViolated, InvalidParameter, QxError
from qindex.forbidden import ForbiddenPattern, contains_kst
from qindex.graphs import complete_graph, from_edge_list, join
from qindex.spectral import adjacency_radius, q_index
from conftest import disjoint_union, is_connected


class TestCirculant:
    def test_pentagon(self):
        g = circulant(5, {1})
        assert g == from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

    def test_prism_like(self):
        g = circulant(6, {1, 3})
        assert g.regular_degree() == 3

    def test_degree_four(self):
        g = circulant(21, {1, 2})
        assert g.regular_degree() == 4

    def test_antipodal_offset_degree_one(self):
        g = circulant(6, {3})
        assert g.regular_degree() == 1

    def test_bad_offsets(self):
        with pytest.raises(InvalidParameter, match=r"offsets \[0\] outside 1\.\.3"):
            circulant(6, {0})
        with pytest.raises(InvalidParameter, match=r"offsets \[4\] outside 1\.\.3"):
            circulant(6, {4})


class TestRandomRegular:
    def test_unique_one_regular_on_four(self):
        for seed in range(5):
            g = random_regular(4, 1, seed)
            assert g.degrees() == [1, 1, 1, 1]
            assert g.edge_count() == 2

    def test_two_regular_on_five_is_pentagon(self):
        g = random_regular(5, 2, 1)
        assert g.regular_degree() == 2
        assert is_connected(g)  # 5 = 3 + 2 has no valid cycle split

    def test_three_regular_on_ten(self):
        g = random_regular(10, 3, 7)
        assert g.regular_degree() == 3

    def test_deterministic_per_seed(self):
        assert random_regular(12, 3, 5) == random_regular(12, 3, 5)

    def test_parity_rejected(self):
        with pytest.raises(InvalidParameter, match=r"parity: 1-regular on 5 vertices needs s\*m even"):
            random_regular(5, 1, 0)
        with pytest.raises(InvalidParameter, match="degree 4 impossible on 4 vertices"):
            random_regular(4, 4, 0)

    def test_restart_cap(self, monkeypatch):
        monkeypatch.setattr(constructions, "RESTART_CAP", 0)
        with pytest.raises(QxError, match="no simple 3-regular pairing on 8 vertices after 0 restarts"):
            random_regular(8, 3, 0)

    def test_degrees_across_seeds(self):
        rng = random.Random(0)
        for _ in range(40):
            m = rng.randint(3, 20)
            s = rng.randint(1, min(5, m - 1))
            if (m * s) % 2:
                continue
            assert random_regular(m, s, rng.randint(0, 999)).regular_degree() == s


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
        # no join at order 5 is free: the circulant and every random regular
        # graph are built, and the first join comes back with its witness
        r = build_extremal(ExtremalSpec(5, 2, 2))
        assert r.attempts == constructions.MAX_ATTEMPTS + 1
        assert r.strategy_used == "circulant"
        assert r.seed_used is None
        assert r.graph == join(complete_graph(1), circulant(4, [1]))
        assert contains_kst(r.graph, ForbiddenPattern.from_ts(2, 2))
        assert build_extremal(ExtremalSpec(6, 2, 2)).attempts == 1  # free at the circulant

    def test_larger_clique_side(self):
        r = build_extremal(ExtremalSpec(8, 2, 3))
        assert r.free
        assert q_index(r.graph).value == pytest.approx(conjecture_bound(8, 2, 3), abs=1e-8)

    def test_join_value_identity_grid(self):
        # q of K_1 v (s-regular H) must hit the closed form regardless of
        # which s-regular H came out, certified or not
        for s, m in [(1, 8), (2, 9), (3, 8), (4, 9), (2, 21)]:
            try:
                r = build_extremal(ExtremalSpec(m + 1, s, 2))
            except NoRegularGraphExists:
                continue
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
