"""Complete-bipartite subgraph detection via codegree counting.

A graph contains K_{t,s+1} as a subgraph exactly when some t vertices have
at least s+1 common neighbors outside the t-set, so detection reduces to a
max-codegree computation over t-subsets.  Pairs (t = 2) go through a direct
bitset-intersection pass; larger t walks t-subsets lexicographically,
pruning branches whose running intersection is already too small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter, InvariantViolated, PatternLargerThanGraph
from .graphs import Graph, _bits


@dataclass(frozen=True)
class ForbiddenPattern:
    """The complete bipartite graph K_{t, s+1} being excluded."""

    t: int
    s_plus_1: int

    def __post_init__(self):
        if self.t < 2:
            raise InvalidParameter(f"small side must have t >= 2, got {self.t}")
        if self.s_plus_1 < 2:
            raise InvalidParameter(f"large side must have s+1 >= 2, got {self.s_plus_1}")

    @property
    def s(self) -> int:
        return self.s_plus_1 - 1

    @property
    def order(self) -> int:
        return self.t + self.s_plus_1

    @classmethod
    def from_ts(cls, t: int, s: int) -> "ForbiddenPattern":
        return cls(t=t, s_plus_1=s + 1)

    def __str__(self):
        return f"K_{{{self.t},{self.s_plus_1}}}"


Witness = tuple[tuple[int, ...], tuple[int, ...]]


def find_kst(g: Graph, pat: ForbiddenPattern) -> Witness | None:
    """First witness of K_{t,s+1} in lexicographic order, or None.

    A witness is (t-set, (s+1)-set): the smallest t-subset with codegree
    >= s+1, paired with its s+1 smallest common neighbors off the t-set.
    """
    t, need = pat.t, pat.s_plus_1
    if t > g.n:
        raise PatternLargerThanGraph(f"{pat} needs {t} left vertices, graph has {g.n}")
    if pat.order > g.n:
        return None
    adj = g.adj
    n = g.n
    if t == 2:
        for u in range(n - 1):
            au = adj[u]
            for v in range(u + 1, n):
                common = au & adj[v] & ~(1 << u) & ~(1 << v)
                if common.bit_count() >= need:
                    right = []
                    for w in _bits(common):
                        right.append(w)
                        if len(right) == need:
                            break
                    return _checked(g, (u, v), tuple(right))
        return None

    found: Witness | None = None

    def extend(start: int, chosen: list[int], inter: int):
        nonlocal found
        if found is not None:
            return
        if len(chosen) == t:
            mask = 0
            for c in chosen:
                mask |= 1 << c
            outside = inter & ~mask
            if outside.bit_count() >= need:
                right = []
                for w in _bits(outside):
                    right.append(w)
                    if len(right) == need:
                        break
                found = _checked(g, tuple(chosen), tuple(right))
            return
        remaining = t - len(chosen)
        for v in range(start, n - remaining + 1):
            nxt = inter & adj[v] if chosen else adj[v]
            # the final outside-count can never exceed the running intersection
            if nxt.bit_count() < need:
                continue
            chosen.append(v)
            extend(v + 1, chosen, nxt)
            chosen.pop()
            if found is not None:
                return

    extend(0, [], (1 << n) - 1)
    return found


def _checked(g: Graph, left: tuple[int, ...], right: tuple[int, ...]) -> Witness:
    """Re-verify a witness induces a complete bipartite subgraph."""
    if set(left) & set(right):
        raise InvariantViolated(f"witness sides {left} and {right} overlap")
    for u in left:
        for v in right:
            if not g.has_edge(u, v):
                raise InvariantViolated(f"witness edge ({u},{v}) missing")
    return (left, right)


def contains_kst(g: Graph, pat: ForbiddenPattern) -> bool:
    """True iff K_{t,s+1} occurs in g as a (not necessarily induced) subgraph."""
    return find_kst(g, pat) is not None


def max_codegree(g: Graph, t: int) -> int:
    """max over t-subsets X of |common neighborhood of X outside X|."""
    if not 2 <= t <= g.n:
        raise PatternLargerThanGraph(f"subset size {t} outside 2..{g.n}")
    adj = g.adj
    n = g.n
    best = 0
    if t == 2:
        for u in range(n - 1):
            au = adj[u]
            for v in range(u + 1, n):
                c = (au & adj[v] & ~(1 << u) & ~(1 << v)).bit_count()
                if c > best:
                    best = c
        return best

    def extend(start: int, chosen: list[int], inter: int, mask: int):
        nonlocal best
        if len(chosen) == t:
            c = (inter & ~mask).bit_count()
            if c > best:
                best = c
            return
        remaining = t - len(chosen)
        for v in range(start, n - remaining + 1):
            nxt = inter & adj[v] if chosen else adj[v]
            if nxt.bit_count() <= best:
                continue  # intersection only shrinks; cannot beat best
            chosen.append(v)
            extend(v + 1, chosen, nxt, mask | (1 << v))
            chosen.pop()

    extend(0, [], (1 << n) - 1, 0)
    return best
