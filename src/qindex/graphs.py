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

import operator
from typing import Iterable, Iterator, Sequence

from .errors import InvalidParameter

MAX_ORDER = 62
# highest order ``canonical.enumerate_levels`` generates; defined here so that
# a ``construct`` that enumerates nothing does not load ``canonical``
BUILTIN_MAX_ORDER = 9


class Graph:
    """Immutable simple graph: order ``n`` plus a neighbor bitset per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 1:
            raise InvalidParameter(f"graph order must be >= 1, got {n}")
        if n > MAX_ORDER:
            raise InvalidParameter(f"graph order {n} exceeds the ceiling of {MAX_ORDER}")
        if len(adj) != n:
            raise InvalidParameter(f"expected {n} adjacency masks, got {len(adj)}")
        try:
            masks = tuple(operator.index(m) for m in adj)
        except TypeError:
            raise InvalidParameter("adjacency masks must be integers") from None
        full = (1 << n) - 1
        for u, m in enumerate(masks):
            if m & ~full:
                raise InvalidParameter(f"adjacency mask of vertex {u} mentions vertices >= {n}")
            if m >> u & 1:
                raise InvalidParameter(f"loop at vertex {u}")
        for u, m in enumerate(masks):
            rest = m
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not masks[v] >> u & 1:
                    raise InvalidParameter(f"asymmetric adjacency between {u} and {v}")
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

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def dominating_vertices(self) -> tuple[int, ...]:
        """Vertices of degree n-1."""
        want = self.n - 1
        return tuple(u for u, m in enumerate(self.adj) if m.bit_count() == want)

    def _check_vertex(self, u: int):
        if not 0 <= u < self.n:
            raise InvalidParameter(f"vertex {u} outside 0..{self.n - 1}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# constructors

def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges; duplicates collapse."""
    if n < 1 or n > MAX_ORDER:
        raise InvalidParameter(f"order must be in 1..{MAX_ORDER}, got {n}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise InvalidParameter(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameter(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << u) for u in range(n)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise InvalidParameter(f"join order {n} exceeds {MAX_ORDER}")
    return Graph(n, _join_masks(g.adj, h.adj))


def _join_masks(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Masks of the join of two mask graphs: a's vertices, then b's shifted past them."""
    k = len(a)
    return tuple(m | ((1 << len(b)) - 1) << k for m in a) + tuple(m << k | (1 << k) - 1 for m in b)


# graph6 codec (order <= 62: single-byte header, upper triangle packed
# column by column, 6 bits per printable byte offset by 63, MSB first).  The
# codec holds the stream as one integer whose bit k is its k-th bit, so
# column v is the v-bit slice at v(v-1)/2, with bit u for the pair (u, v).
_REV6 = [int(f"{v:06b}"[::-1], 2) for v in range(64)]  # 6-bit values, bits reversed


def graph6_encode(g: Graph) -> str:
    bits = 0
    for v in range(1, g.n):
        bits |= (g.adj[v] & (1 << v) - 1) << v * (v - 1) // 2
    need = (g.n * (g.n - 1) // 2 + 5) // 6
    return chr(63 + g.n) + "".join(chr(63 + _REV6[bits >> 6 * i & 63]) for i in range(need))


def graph6_decode(text: str) -> Graph:
    """Strict decoder: exact payload length, zero padding, no stray bytes."""
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise InvalidParameter("empty graph6 line")
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        raise InvalidParameter("non-byte characters in graph6 line") from None
    first = data[0]
    if first == 126:
        raise InvalidParameter("multi-byte graph6 order header (order > 62) not supported")
    if not 63 <= first <= 126:
        raise InvalidParameter(f"order byte {first} outside 63..126")
    n = first - 63
    if n == 0:
        raise InvalidParameter("order-0 graph6 string")
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    payload = data[1:]
    if len(payload) != need:
        raise InvalidParameter(f"expected {need} payload bytes for order {n}, got {len(payload)}")
    bits = 0
    for i, byte in enumerate(payload):
        if not 63 <= byte <= 126:
            raise InvalidParameter(f"payload byte {byte} outside 63..126")
        bits |= _REV6[byte - 63] << 6 * i
    if bits >> m:
        raise InvalidParameter("nonzero padding bits")
    adj = [0] * n
    for v in range(1, n):
        col = bits >> v * (v - 1) // 2 & (1 << v) - 1
        adj[v] = col
        for u in _bits(col):
            adj[u] |= 1 << v
    return Graph(n, adj)
