import itertools
import random

import networkx as nx
import pytest

from qindex.errors import (
    IndexOutOfRange,
    InvalidEdge,
    InvalidVertexSet,
    MalformedGraph6,
    OrderOverflow,
    Unsupported,
)
from qindex.graphs import (
    MAX_ORDER,
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    induced,
    join,
    path_graph,
)
from conftest import random_graph


class TestConstruction:
    def test_cycle_from_edge_list(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.degrees() == [2, 2, 2, 2]
        assert g.edge_count() == 4

    def test_edgeless(self):
        g = from_edge_list(3, [])
        assert g.edge_count() == 0

    def test_star(self):
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert g.max_degree() == 4
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            from_edge_list(3, [(1, 1)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_edge_list(3, [(0, 3)])

    def test_order_bounds(self):
        with pytest.raises(OrderOverflow):
            from_edge_list(63, [])
        with pytest.raises(OrderOverflow):
            from_edge_list(0, [])
        from_edge_list(62, [])  # ceiling itself is fine

    def test_asymmetric_masks_rejected(self):
        with pytest.raises(InvalidEdge):
            Graph(2, [0b10, 0b00])

    def test_handshake_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 20), 0.4)
            assert sum(g.degrees()) == 2 * g.edge_count()

    def test_immutability(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5


class TestJoin:
    def test_wheel(self):
        w = join(complete_graph(1), cycle_graph(5))
        assert w.n == 6
        assert w.degree(0) == 5
        assert sorted(w.degrees()) == [3, 3, 3, 3, 3, 5]

    def test_join_with_edgeless_is_star(self):
        assert join(complete_graph(1), empty_graph(4)) == complete_bipartite(1, 4)

    def test_k1_join_k1(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)

    def test_edge_count_law(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            h = random_graph(rng, rng.randint(1, 10), 0.5)
            j = join(g, h)
            assert j.edge_count() == g.edge_count() + h.edge_count() + g.n * h.n
            for u in range(g.n):
                assert j.degree(u) == g.degree(u) + h.n

    def test_join_overflow(self):
        with pytest.raises(OrderOverflow):
            join(complete_graph(32), complete_graph(31))


class TestGraph6:
    def test_hand_decoded_dqc(self):
        # 'D' -> n=5; payload 'Q','c' -> bits 010010 100100 over pairs
        # (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),(0,4),(1,4),(2,4),(3,4)
        g = graph6_decode("DQc")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 2), (0, 4), (1, 3), (3, 4)]

    def test_k1_encodes_to_at(self):
        assert graph6_encode(complete_graph(1)) == "@"
        assert graph6_decode("@") == complete_graph(1)

    def test_round_trip_exhaustive_upto_6(self):
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
                assert graph6_decode(graph6_encode(g)) == g

    def test_round_trip_random_to_62(self):
        rng = random.Random(7)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, MAX_ORDER), rng.random())
            text = graph6_encode(g)
            assert graph6_decode(text) == g
            assert graph6_encode(graph6_decode(text)) == text

    def test_trailing_newline_tolerated(self):
        assert graph6_decode("DQc\n") == graph6_decode("DQc")

    def test_strictness(self):
        with pytest.raises(MalformedGraph6):
            graph6_decode("")
        with pytest.raises(MalformedGraph6):
            graph6_decode("DQ")  # truncated payload
        with pytest.raises(MalformedGraph6):
            graph6_decode("DQcX")  # trailing garbage
        with pytest.raises(MalformedGraph6):
            graph6_decode("D Qc")  # embedded whitespace
        with pytest.raises(MalformedGraph6):
            graph6_decode("B" + chr(200))  # byte outside 63..126
        with pytest.raises(Unsupported):
            graph6_decode(chr(126) + "AAA")  # multi-byte order header

    def test_nonzero_padding_rejected(self):
        # C_3 on 3 vertices uses 3 bits; the last 3 payload bits must be 0
        good = graph6_encode(complete_graph(3))
        bad = good[:-1] + chr(63 + ((ord(good[-1]) - 63) | 0b111))
        with pytest.raises(MalformedGraph6):
            graph6_decode(bad)

    def test_against_networkx(self):
        rng = random.Random(19)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 30), 0.4)
            mine = graph6_encode(g)
            theirs = nx.to_graph6_bytes(
                nx.from_edgelist(g.edges(), nx.Graph()) if g.edge_count() else nx.empty_graph(g.n),
                header=False,
            ).decode().strip()
            if g.edge_count():
                nxg = nx.Graph()
                nxg.add_nodes_from(range(g.n))
                nxg.add_edges_from(g.edges())
                theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert mine == theirs
            back = nx.from_graph6_bytes(mine.encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges()}


class TestVertexSets:
    def test_induced_relabels_in_order(self):
        g = cycle_graph(5)
        sub = induced(g, [1, 2, 4])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1)]  # only 1-2 survives

    def test_induced_empty_rejected(self):
        with pytest.raises(InvalidVertexSet):
            induced(cycle_graph(4), [])


class TestStructure:
    def test_components(self):
        g = disjoint_union(cycle_graph(3), path_graph(2))
        comps = g.components()
        assert len(comps) == 2
        assert comps[0] == 0b00111
        assert comps[1] == 0b11000

    def test_relabel_roundtrip(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_graph(rng, 9, 0.5)
            perm = list(range(9))
            rng.shuffle(perm)
            inv = [0] * 9
            for i, p in enumerate(perm):
                inv[p] = i
            assert g.relabel(perm).relabel(inv) == g

    def test_dominating_vertices(self):
        w = join(complete_graph(1), cycle_graph(5))
        assert w.dominating_vertices() == (0,)
        assert complete_graph(4).dominating_vertices() == (0, 1, 2, 3)

    def test_toggle(self):
        g = empty_graph(3)
        g2 = g.with_toggled_edge(0, 2)
        assert g2.has_edge(0, 2)
        assert g2.with_toggled_edge(0, 2) == g
