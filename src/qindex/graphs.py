"""Simple undirected graphs on at most 62 vertices, stored as per-vertex bitsets.

Vertices are the dense indices 0..n-1.  Neighborhoods are Python ints used
as bitsets (bit v of ``adj[u]`` set iff u ~ v), which keeps set algebra
(intersection, popcount) cheap for the codegree and search machinery built
on top.  Graphs are immutable and hashable, so they can be shared freely
and used as dict/set keys.

The order ceiling of 62 matches the single-byte graph6 header; longer
headers are rejected loudly rather than half-supported.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    IndexOutOfRange,
    InvalidEdge,
    InvalidVertexSet,
    MalformedGraph6,
    OrderOverflow,
    Unsupported,
)

MAX_ORDER = 62


class Graph:
    """Immutable simple graph: order ``n`` plus a neighbor bitset per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 1:
            raise OrderOverflow(f"graph order must be >= 1, got {n}")
        if n > MAX_ORDER:
            raise OrderOverflow(f"graph order {n} exceeds the ceiling of {MAX_ORDER}")
        if len(adj) != n:
            raise InvalidVertexSet(f"expected {n} adjacency masks, got {len(adj)}")
        masks = tuple(int(m) for m in adj)
        full = (1 << n) - 1
        for u, m in enumerate(masks):
            if m & ~full:
                raise IndexOutOfRange(f"adjacency mask of vertex {u} mentions vertices >= {n}")
            if m >> u & 1:
                raise InvalidEdge(f"loop at vertex {u}")
        for u, m in enumerate(masks):
            rest = m
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not masks[v] >> u & 1:
                    raise InvalidEdge(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", masks)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # basic invariants

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def max_degree(self) -> int:
        return max(m.bit_count() for m in self.adj)

    def min_degree(self) -> int:
        return min(m.bit_count() for m in self.adj)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return tuple(_bits(self.adj[u]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits(rest):
                yield (u, v)

    def regular_degree(self) -> int | None:
        """The common degree, or None when the graph is irregular."""
        degs = self.degrees()
        return degs[0] if min(degs) == max(degs) else None

    def dominating_vertices(self) -> tuple[int, ...]:
        """Vertices of degree n-1."""
        want = self.n - 1
        return tuple(u for u, m in enumerate(self.adj) if m.bit_count() == want)

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks, by smallest member."""
        seen = 0
        comps = []
        for u in range(self.n):
            if seen >> u & 1:
                continue
            comp = 1 << u
            frontier = self.adj[u] & ~comp
            while frontier:
                comp |= frontier
                nxt = 0
                for v in _bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
            comps.append(comp)
            seen |= comp
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under the permutation old index -> perm[old]."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise InvalidVertexSet("relabel requires a permutation of 0..n-1")
        adj = [0] * n
        for u in range(n):
            pu = perm[u]
            for v in _bits(self.adj[u]):
                adj[pu] |= 1 << perm[v]
        return Graph(n, adj)

    def with_toggled_edge(self, u: int, v: int) -> "Graph":
        """Copy with edge {u, v} added if absent, removed if present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise InvalidEdge("cannot toggle a loop")
        adj = list(self.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph(self.n, adj)

    def _check_vertex(self, u: int):
        if not 0 <= u < self.n:
            raise IndexOutOfRange(f"vertex {u} outside 0..{self.n - 1}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int], n: int) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise IndexOutOfRange(f"vertex {v} outside 0..{n - 1}")
        mask |= 1 << v
    return mask


# constructors

def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges; duplicates collapse."""
    if n < 1 or n > MAX_ORDER:
        raise OrderOverflow(f"order must be in 1..{MAX_ORDER}, got {n}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << u) for u in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidVertexSet("cycle needs at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOverflow(f"union order {n} exceeds {MAX_ORDER}")
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(n, adj)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderOverflow(f"join order {n} exceeds {MAX_ORDER}")
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = [m | h_mask for m in g.adj]
    adj += [(m << g.n) | g_mask for m in h.adj]
    return Graph(n, adj)


# vertex-set operations

def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by the set, relabeled by increasing original index."""
    mask = _mask_of(vertices, g.n)
    if mask == 0:
        raise InvalidVertexSet("induced subgraph needs a nonempty vertex set")
    kept = list(_bits(mask))
    pos = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for v in kept:
        for w in _bits(g.adj[v] & mask):
            adj[pos[v]] |= 1 << pos[w]
    return Graph(len(kept), adj)


# graph6 codec (order <= 62: single-byte header, upper triangle packed
# column by column, 6 bits per printable byte offset by 63)

def graph6_encode(g: Graph) -> str:
    bits = []
    for v in range(1, g.n):
        col = g.adj[v]
        bits.extend((col >> u) & 1 for u in range(v))
    out = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        chunk = bits[i:i + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    """Strict decoder: exact payload length, zero padding, no stray bytes."""
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise MalformedGraph6("empty graph6 line")
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        raise MalformedGraph6("non-byte characters in graph6 line") from None
    first = data[0]
    if first == 126:
        raise Unsupported("multi-byte graph6 order header (order > 62) not supported")
    if not 63 <= first <= 126:
        raise MalformedGraph6(f"order byte {first} outside 63..126")
    n = first - 63
    if n == 0:
        raise Unsupported("order-0 graph6 string")
    need = (n * (n - 1) // 2 + 5) // 6
    payload = data[1:]
    if len(payload) != need:
        raise MalformedGraph6(f"expected {need} payload bytes for order {n}, got {len(payload)}")
    bits = []
    for byte in payload:
        if not 63 <= byte <= 126:
            raise MalformedGraph6(f"payload byte {byte} outside 63..126")
        val = byte - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    m = n * (n - 1) // 2
    if any(bits[m:]):
        raise MalformedGraph6("nonzero padding bits")
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(n, adj)

