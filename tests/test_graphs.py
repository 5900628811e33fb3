import itertools
import random

import networkx as nx
import numpy as np
import pytest

from qindex.errors import InvalidParameter
from qindex.constructions import circulant
from qindex.graphs import (
    MAX_ORDER,
    Graph,
    complete_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    join,
)
from conftest import edges, empty_graph, random_graph


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
        with pytest.raises(InvalidParameter, match="loop edge"):
            from_edge_list(3, [(1, 1)])

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameter, match=r"edge \(0, 3\) outside 0\.\.2"):
            from_edge_list(3, [(0, 3)])

    def test_order_bounds(self):
        with pytest.raises(InvalidParameter, match=r"order must be in 1\.\.62, got 63"):
            from_edge_list(63, [])
        with pytest.raises(InvalidParameter, match=r"order must be in 1\.\.62, got 0"):
            from_edge_list(0, [])
        from_edge_list(62, [])  # ceiling itself is fine

    @pytest.mark.parametrize("n, adj, match", [
        (0, [], "graph order must be >= 1, got 0"),
        (63, [0] * 63, "graph order 63 exceeds the ceiling of 62"),
        (3, [0, 0], "expected 3 adjacency masks, got 2"),
        (2, [0b100, 0], "adjacency mask of vertex 0 mentions vertices >= 2"),
        (2, [0b01, 0], "loop at vertex 0"),
    ], ids=["order-0", "order-63", "mask-count", "mask-bit", "loop"])
    def test_bad_masks_rejected(self, n, adj, match):
        with pytest.raises(InvalidParameter, match=match):
            Graph(n, adj)

    def test_equal_graphs_hash_equal(self):
        a = Graph(3, [0b110, 0b001, 0b001])
        b = from_edge_list(3, [(2, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, complete_graph(3)}) == 2

    def test_asymmetric_masks_rejected(self):
        with pytest.raises(InvalidParameter, match="asymmetric adjacency"):
            Graph(2, [0b10, 0b00])

    @pytest.mark.parametrize("adj", [[2.7, 1.2], ["2", "1"], [None, 1]], ids=["float", "str", "None"])
    def test_non_integer_masks_rejected(self, adj):
        with pytest.raises(InvalidParameter, match="adjacency masks must be integers"):
            Graph(2, adj)

    def test_numpy_integer_and_bool_masks_accepted(self):
        assert Graph(2, [np.uint64(2), np.int64(1)]).adj == (2, 1)
        assert Graph(2, [2, True]).adj == (2, 1)
        assert all(type(m) is int for m in Graph(2, [np.uint64(2), True]).adj)

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
        w = join(complete_graph(1), circulant(5, [1]))
        assert w.n == 6
        assert w.degree(0) == 5
        assert sorted(w.degrees()) == [3, 3, 3, 3, 3, 5]

    def test_join_with_edgeless_is_star(self):
        assert join(complete_graph(1), empty_graph(4)) == from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])

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
        with pytest.raises(InvalidParameter, match="join order 63 exceeds 62"):
            join(complete_graph(32), complete_graph(31))


class TestGraph6:
    def test_hand_decoded_dqc(self):
        # 'D' -> n=5; payload 'Q','c' -> bits 010010 100100 over pairs
        # (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),(0,4),(1,4),(2,4),(3,4)
        g = graph6_decode("DQc")
        assert g.n == 5
        assert edges(g) == [(0, 2), (0, 4), (1, 3), (3, 4)]

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
        with pytest.raises(InvalidParameter, match="empty graph6 line"):
            graph6_decode("")
        with pytest.raises(InvalidParameter, match="expected 2 payload bytes for order 5, got 1"):
            graph6_decode("DQ")  # truncated payload
        with pytest.raises(InvalidParameter, match="expected 2 payload bytes for order 5, got 3"):
            graph6_decode("DQcX")  # trailing garbage
        with pytest.raises(InvalidParameter, match="expected 2 payload bytes for order 5, got 3"):
            graph6_decode("D Qc")  # embedded whitespace
        with pytest.raises(InvalidParameter, match=r"payload byte 200 outside 63\.\.126"):
            graph6_decode("B" + chr(200))  # byte outside 63..126
        with pytest.raises(InvalidParameter, match=r"multi-byte graph6 order header \(order > 62\)"):
            graph6_decode(chr(126) + "AAA")  # multi-byte order header

    def test_nonzero_padding_rejected(self):
        # C_3 on 3 vertices uses 3 bits; the last 3 payload bits must be 0
        good = graph6_encode(complete_graph(3))
        bad = good[:-1] + chr(63 + ((ord(good[-1]) - 63) | 0b111))
        with pytest.raises(InvalidParameter, match="nonzero padding bits"):
            graph6_decode(bad)

    def test_against_networkx(self):
        rng = random.Random(19)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 30), 0.4)
            mine = graph6_encode(g)
            theirs = nx.to_graph6_bytes(
                nx.from_edgelist(edges(g), nx.Graph()) if g.edge_count() else nx.empty_graph(g.n),
                header=False,
            ).decode().strip()
            if g.edge_count():
                nxg = nx.Graph()
                nxg.add_nodes_from(range(g.n))
                nxg.add_edges_from(edges(g))
                theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert mine == theirs
            back = nx.from_graph6_bytes(mine.encode())
            assert set(back.edges()) == set(edges(g))


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_codec_at_every_order(n):
    # the column slices start at v(v-1)/2, so every order puts the payload's
    # byte and padding boundaries at a different place among them
    rng = random.Random(n)
    nxg = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(1 << 30))
    text = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    g = graph6_decode(text)
    back = nx.from_graph6_bytes(text.encode())
    assert edges(g) == sorted(tuple(sorted(e)) for e in back.edges())
    assert graph6_encode(g) == text
    need = len(text) - 1
    for k in range(6 * need - n * (n - 1) // 2):  # padding bits, low end of the last byte
        bad = text[:-1] + chr(63 + (ord(text[-1]) - 63 ^ 1 << k))
        with pytest.raises(InvalidParameter, match="nonzero padding bits"):
            graph6_decode(bad)
    if need:
        with pytest.raises(InvalidParameter, match=f"expected {need} payload bytes for order {n}, got {need - 1}"):
            graph6_decode(text[:-1])


class TestStructure:
    def test_dominating_vertices(self):
        w = join(complete_graph(1), circulant(5, [1]))
        assert w.dominating_vertices() == (0,)
        assert complete_graph(4).dominating_vertices() == (0, 1, 2, 3)
