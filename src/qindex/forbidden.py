"""Complete-bipartite subgraph detection via codegree counting.

A graph contains K_{t,s+1} as a subgraph exactly when some t vertices have
at least s+1 common neighbors outside the t-set.  Every question asked here
(a witness, a yes/no answer, whether some copy uses a given edge) is
answered by one walk over the t-subsets of raw adjacency masks, in
lexicographic order, that cuts a branch as soon as the running
intersection of neighborhoods is too small.  The walk takes a
sequence of masks rather than a ``Graph`` so that the annealing search can
run it on its mutable state.  It recurses through a module function with
explicit arguments, not a nested closure: a closure that calls itself is a
reference cycle, which ``qx`` never frees because it runs with the cyclic
garbage collector off (``cli``).
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from .errors import InvalidParameter, InvariantViolated
from .graphs import Graph, _bits


class ForbiddenPattern:
    """The complete bipartite graph K_{t, s+1} being excluded."""

    __slots__ = ("t", "s_plus_1")

    def __init__(self, t: int, s_plus_1: int):
        if t < 2:
            raise InvalidParameter(f"small side must have t >= 2, got {t}")
        if s_plus_1 < 2:
            raise InvalidParameter(f"large side must have s+1 >= 2, got {s_plus_1}")
        self.t, self.s_plus_1 = t, s_plus_1

    @property
    def s(self) -> int:
        return self.s_plus_1 - 1

    @classmethod
    def from_ts(cls, t: int, s: int) -> "ForbiddenPattern":
        return cls(t=t, s_plus_1=s + 1)

    def __str__(self):
        return f"K_{{{self.t},{self.s_plus_1}}}"


Witness = tuple[tuple[int, ...], tuple[int, ...]]


def _walk(adj: Sequence[int], t: int, need: int, anchor: int | None = None, pool: int = -1) -> Witness | None:
    """First t-set in lexicographic order (among those holding ``anchor``
    with the rest in the mask ``pool``, when given) with at least ``need``
    common neighbors outside itself, paired with the ``need`` smallest of
    them; None when there is none.

    Masks carry no loops, so an intersection of neighborhoods never meets
    the t-set itself.  Removing the anchor from every t-set keeps their
    lexicographic order, so the anchored walk runs over (t-1)-sets of the
    other vertices, starting from the anchor's neighborhood.
    """
    if anchor is None:
        return _extend(adj, t, need, [], (1 << len(adj)) - 1, pool, 0, -1)
    return _extend(adj, t, need, [anchor], adj[anchor], pool & ~(1 << anchor), 0, anchor)


def _extend(adj: Sequence[int], t: int, need: int, chosen: list[int], inter: int, pool: int, start: int,
            skip: int) -> Witness | None:
    """``_walk`` below the t-set prefix ``chosen`` with common neighbors
    ``inter``, adding vertices of the mask ``pool`` or, while it is negative
    (no pool given), of range(start, n) but ``skip``."""
    if len(chosen) == t:
        return tuple(sorted(chosen)), tuple(islice(_bits(inter), need))
    if pool < 0:
        for v in range(start, len(adj)):
            if v != skip:
                nxt = inter & adj[v]
                # the intersection only shrinks as the t-set grows
                if nxt.bit_count() >= need:
                    chosen.append(v)
                    found = _extend(adj, t, need, chosen, nxt, pool, v + 1, skip)
                    chosen.pop()
                    if found is not None:
                        return found
    while pool > 0:
        low = pool & -pool
        pool ^= low
        v = low.bit_length() - 1
        nxt = inter & adj[v]
        if nxt.bit_count() >= need:
            chosen.append(v)
            found = _extend(adj, t, need, chosen, nxt, pool, 0, skip)
            chosen.pop()
            if found is not None:
                return found
    return None


def find_kst(g: Graph, pat: ForbiddenPattern) -> Witness | None:
    """First witness of K_{t,s+1} in lexicographic order, or None.

    A witness is (t-set, (s+1)-set): the smallest t-subset with codegree
    >= s+1, paired with its s+1 smallest common neighbors off the t-set.
    A graph with fewer vertices than the pattern is free of it.
    """
    found = _walk(g.adj, pat.t, pat.s_plus_1)
    return None if found is None else _checked(g, *found)


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


def _contains_through(adj: Sequence[int], pat: ForbiddenPattern, u: int, v: int) -> bool:
    """Whether some K_{t,s+1} in the graph with masks ``adj`` uses the edge uv:
    one end on its t-side, the rest of that side in the other's neighborhood."""
    t, need = pat.t, pat.s_plus_1
    return _walk(adj, t, need, u, adj[v]) is not None or _walk(adj, t, need, v, adj[u]) is not None
