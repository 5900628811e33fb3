import random
import time

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

import qindex.canonical as canonical
import qindex.search as search
from qindex.constructions import circulant
from qindex.graphs import Graph, complete_graph, from_edge_list, graph6_encode, join


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def random_regular(m: int, s: int, seed: int) -> Graph:
    """Seeded s-regular graph on m vertices (s*m even) by the pairing model,
    reshuffling the stubs until no pair is a loop or a repeat."""
    rng = random.Random(seed)
    stubs = [v for v in range(m) for _ in range(s)]
    while True:
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(pairs) == len(stubs) // 2:
            return from_edge_list(m, sorted(pairs))


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def unrestricted(adj) -> bool:
    """The always-true keep-predicate: under it ``enumerate_levels`` keeps
    every class."""
    return True


def enumerate_graphs(n: int, keep=unrestricted) -> list[Graph]:
    """One representative of each order-n class accepted by ``keep``, a
    keep-predicate on adjacency masks (see ``search.enumerate_levels``)."""
    *_, (_, kept, _) = search.enumerate_levels(n, keep)
    return [Graph(n, cert) for cert in kept]


def edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, in lexicographic order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation old index -> perm[old]."""
    assert sorted(perm) == list(range(g.n))
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in edges(g)])


def relabeled_lines(rng: random.Random, graphs) -> list[str]:
    """The graph6 line of each graph, in order, under its own random relabeling."""
    lines = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        lines.append(graph6_encode(relabel(g, perm)))
    return lines


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each shifted past the vertices of those before it."""
    adj = []
    for g in graphs:
        adj += [m << len(adj) for m in g.adj]
    return Graph(len(adj), adj)


def q_bound_window(n: int, s: int) -> tuple[float, float]:
    """Open interval (n, n + 2s/(n-2s)) that strictly brackets the t = 2 cap,
    for n > 2s.  In doubles the bracket is resolvable only at small n: from
    n = 12,144 (s = 1) the cap lies within an ulp of the top end."""
    assert n > 2 * s >= 2
    return (float(n), n + 2.0 * s / (n - 2 * s))


def exhaustive_scan(max_n: int, pat) -> list:
    """One exhaustive ``SearchReport`` per order 1..max_n, each as
    ``exhaustive_max_q`` builds it, from a single builtin enumeration
    (``search.enumerate_levels``, looked up at call time)."""
    levels = search.enumerate_levels(max_n, search._free_predicate(pat))
    return [search._scan_report(order, pat, search._cap(order, pat), kept, seen, time.perf_counter(),
                                lambda adj, n=order: canonical._canonical(n, adj)[0])
            for order, kept, seen in levels]


@pytest.fixture(scope="session")
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def bowtie() -> Graph:
    return join(complete_graph(1), from_edge_list(4, [(0, 1), (2, 3)]))


@pytest.fixture(scope="session")
def rook_4x4() -> Graph:
    edges = [
        (4 * a + b, 4 * c + d)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        for d in range(4)
        if 4 * a + b < 4 * c + d and (a == c or b == d)
    ]
    return from_edge_list(16, edges)


@pytest.fixture(scope="session")
def wheel_5() -> Graph:
    return join(complete_graph(1), circulant(4, [1]))


@pytest.fixture(scope="session")
def all_graphs_upto_8():
    """One representative of every isomorphism class, orders 1..8 (canonical
    below order 8, the last order ``enumerate_levels`` generates here).

    Built once per session; several invariant suites and the acceptance
    criteria share this corpus.
    """
    from qindex.search import enumerate_levels

    by_order = {}
    for order, kept, _seen in enumerate_levels(8, unrestricted):
        by_order[order] = [Graph(order, cert) for cert in kept]
    return by_order
