"""Canonical labeling on the symmetric graphs the paper is about, and on
random graphs of every order the package takes.

The labeled brute-force oracle and the class counts live in
``test_search.py::TestCanonical`` and ``TestEnumeration``."""

import random
import time

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from qindex.canonical import (
    _canonical,
    _certificate,
    canonical_graph6,
    canonical_key,
)
from qindex.graphs import (
    MAX_ORDER,
    Graph,
    _bits,
    complete_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    join,
)
from conftest import disjoint_union, empty_graph, random_graph, relabel

CALL_LIMIT_S = 5.0  # generous: the slowest family takes well under 0.1 s per call


def circulant(m, steps):
    return from_edge_list(m, [(i, (i + d) % m) for i in range(m) for d in steps])


def matching(k):
    return from_edge_list(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def hub_join(h):
    return join(complete_graph(1), h)


def shrikhande():
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return from_edge_list(16, [
        (u, v) for u in range(16) for v in range(u + 1, 16)
        if ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4) in diffs
    ])


FAMILIES = {
    "K1 v C(n-1)": lambda n: hub_join(circulant(n - 1, (1,))),
    "K1 v kK2": lambda n: hub_join(matching((n - 1) // 2)),
    "K1 v circulant(n-1, {1, 2})": lambda n: hub_join(circulant(n - 1, (1, 2))),
}
ORDERS = {
    "K1 v C(n-1)": (6, 14, 18, 22, 31, 46, 62),
    "K1 v kK2": (5, 15, 19, 31, 45, 61),
    "K1 v circulant(n-1, {1, 2})": (7, 15, 19, 30, 47, 62),
}


def timed_key(g):
    t0 = time.perf_counter()
    key = canonical_key(g)
    return key, time.perf_counter() - t0


def isomorphic(g, h):
    """networkx's VF2 test, run on the complements of dense graphs: on random
    graphs of order 43-52 and density above 0.9 it ran past 3 s each, and
    two graphs are isomorphic iff their complements are."""
    a, b = (nx.from_graph6_bytes(graph6_encode(x).encode()) for x in (g, h))
    if 4 * g.edge_count() > g.n * (g.n - 1):
        a, b = nx.complement(a), nx.complement(b)
    return nx.is_isomorphic(a, b)


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


@pytest.mark.parametrize("family, n", [(f, n) for f, orders in ORDERS.items() for n in orders])
def test_symmetric_hub_joins_under_relabeling(family, n):
    g = FAMILIES[family](n)
    assert g.n == n
    rng = random.Random(n)
    key, elapsed = timed_key(g)
    assert elapsed < CALL_LIMIT_S
    for _ in range(3):
        other, elapsed = timed_key(shuffled(rng, g))
        assert other == key
        assert elapsed < CALL_LIMIT_S


def test_relabel_invariance_at_every_order():
    rng = random.Random(2014)
    for n in range(2, MAX_ORDER + 1):
        for p in (0.1, 0.5, rng.random()):
            g = random_graph(rng, n, p)
            assert canonical_key(shuffled(rng, g)) == canonical_key(g), (n, p)


def test_strongly_regular_union_under_relabeling(rook_4x4):
    # Shrikhande and the 4x4 rook graph are both srg(16, 6, 2, 2), so the root
    # refinement cannot split their union; pruning a child by a generator
    # that moves the node's prefix (not only by those fixing it) loses the
    # least leaf on this graph
    g = disjoint_union(shrikhande(), rook_4x4)
    rng = random.Random(16)
    key = canonical_key(g)
    for _ in range(10):
        assert canonical_key(shuffled(rng, g)) == key


def test_generators_are_automorphisms(rook_4x4):
    # vertex augmentation extends a canonical form by one neighbour mask per
    # orbit of these permutations of its canonical labels, so each must be a
    # bijection preserving the certificate's adjacency; a twin transposition
    # applied one way only (u -> v without v -> u) is not, and neither is a
    # permutation left on the input labels
    symmetric = [FAMILIES[f](n) for f, orders in ORDERS.items() for n in orders]
    symmetric += [circulant(m, steps) for m in (8, 13, 20) for steps in ((1,), (1, 3), (2, 5))]
    symmetric += [join(empty_graph(3), empty_graph(3)), disjoint_union(shrikhande(), rook_4x4)]
    rng = random.Random(1998)
    others = [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(200)]
    for g in symmetric + others:
        cert, perms = _canonical(g.n, g.adj)
        if g in symmetric:
            assert perms, g
        for perm in perms:
            assert sorted(perm) == list(range(g.n))
            assert all(cert[perm[v]] == sum(1 << perm[u] for u in _bits(cert[v])) for v in range(g.n))


def automorphism_count(adj):
    """Brute-force |Aut|: extend a partial image vertex by vertex, keeping
    degrees and the adjacency to every vertex already placed."""
    n = len(adj)
    deg = [m.bit_count() for m in adj]
    image = []

    def extend(used):
        v = len(image)
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if not used >> w & 1 and deg[w] == deg[v] and all(
                    (adj[v] >> u & 1) == (adj[w] >> image[u] & 1) for u in range(v)):
                image.append(w)
                total += extend(used | 1 << w)
                image.pop()
        return total

    return extend(0)


def group_order(n, perms):
    """Order of the group generated by ``perms``: the identity closed under them."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for perm in perms:
            h = tuple(perm[x] for x in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return len(group)


def test_automorphisms_generate_the_whole_group():
    # vertex augmentation counts a class whose new vertex is the unique top
    # without labeling it, which is exact only if the permutations generate
    # all of Aut(G), not a subgroup; every class of order 1..7 from the
    # networkx atlas, relabeled
    rng = random.Random(1981)
    graphs = [from_edge_list(len(h), list(h.edges())) for h in graph_atlas_g() if len(h)]
    assert len(graphs) == 1252
    for g in graphs:
        h = shuffled(rng, g)
        assert group_order(h.n, _canonical(h.n, h.adj)[1]) == automorphism_count(h.adj), g.adj


def test_canonical_form_is_a_fixed_point():
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(1, MAX_ORDER), rng.random()) for _ in range(40)]
    graphs += [FAMILIES[f](n) for f, orders in ORDERS.items() for n in orders]
    for g in graphs:
        c = canonical_graph6(g)
        assert canonical_graph6(graph6_decode(c)) == c
        assert isomorphic(g, Graph(*canonical_key(g)))


def test_hub_joins_of_cycle_unions_are_distinct():
    hs = [circulant(13, (1,))] + [disjoint_union(circulant(a, (1,)), circulant(13 - a, (1,))) for a in range(3, 7)]
    keys = {canonical_key(hub_join(h)) for h in hs}
    assert len(keys) == 5


def test_agrees_with_networkx_on_regular_graphs():
    # cubic graphs of one order share every degree-based invariant, so the
    # key must tell them apart by search alone; order 10 has 21 classes,
    # so 30 samples hold isomorphic pairs too
    rng = random.Random(3)
    graphs = [nx.random_regular_graph(3, 10, seed=rng.randrange(1 << 30)) for _ in range(30)]
    keys = [canonical_key(from_edge_list(10, list(h.edges()))) for h in graphs]
    assert len(set(keys)) < len(keys)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert (keys[i] == keys[j]) == nx.is_isomorphic(graphs[i], graphs[j])


def bitwise_certificate(adj, lab):
    """Reference for ``_certificate``: each relabeled row summed bit by bit."""
    pos = [0] * len(lab)
    for i, v in enumerate(lab):
        pos[v] = i
    return tuple(sum(1 << pos[u] for u in _bits(adj[v])) for v in lab)


def test_certificate_matches_bitwise_relabeling():
    rng = random.Random(17)
    for n in range(1, MAX_ORDER + 1):
        g = random_graph(rng, n, rng.random())
        for _ in range(3):
            lab = list(range(n))
            rng.shuffle(lab)
            assert _certificate(g.adj, lab) == bitwise_certificate(g.adj, lab)
