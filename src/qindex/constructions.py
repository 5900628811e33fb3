"""Builders for the conjectured extremal graphs K_{t-1} joined with an
s-regular graph.

Regularity alone does not make the join K_{t,s+1}-free (pairs inside H may
share too many neighbors once the hub is added), so every build carries an
explicit freeness certificate.  A circulant H is checked first.  If its
join contains the pattern, the other s-regular graphs of order m are taken
through the sparser of H and its complement, of degree d = min(s, m-1-s):
for d <= 1 the circulant is the only one (a perfect matching, its
complement, or K_m), and for d >= 2 the builtin enumerator lists the other
classes up to ``graphs.BUILTIN_MAX_ORDER`` as certificates, complemented on
masks.  Each of their joins is built and tested as masks; a ``Graph`` is
built only for the join a build returns.  The first free join comes back;
if none is, the circulant's join comes back with its witness.

The hub and H are an equitable partition of the join, so its q is the
larger root of their 2x2 quotient matrix (Brouwer & Haemers, *Spectra of
Graphs*, 2.3), which is ``bounds.conjecture_bound``: a build checks that
structure on the masks (``bounds.is_extremal_join``) and returns that
closed form without computing a spectrum.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import conjecture_bound, is_extremal_join
from .errors import HypothesisViolated, InvalidParameter, InvariantViolated
from .forbidden import ForbiddenPattern, Witness, _walk, find_kst
from .graphs import BUILTIN_MAX_ORDER, MAX_ORDER, Graph, _join_masks, complete_graph, from_edge_list, join


class ExtremalSpec:
    """Target join: complete part of order t-1, s-regular part of order n-t+1."""

    __slots__ = ("n", "s", "t")

    def __init__(self, n: int, s: int, t: int):
        if t < 2:
            raise HypothesisViolated(f"need t >= 2, got {t}")
        if s < 1:
            raise HypothesisViolated(f"need s >= 1, got {s}")
        if n < t:
            raise HypothesisViolated(f"need n >= t, got n={n}, t={t}")
        if n > MAX_ORDER:
            raise InvalidParameter(f"graph order {n} exceeds the ceiling of {MAX_ORDER}")
        if s < t - 1:
            raise HypothesisViolated(f"need s >= t-1, got s={s}, t={t}")
        self.n, self.s, self.t = n, s, t

    @property
    def m(self) -> int:
        """Order of the regular part."""
        return self.n - self.t + 1


class BuildResult(NamedTuple):
    """A join, its certificate and its Q-index.  ``exhaustive`` says that the
    join is not free and that every s-regular H of its order was checked, so
    no free K_{t-1} v (s-regular) graph of order n exists; ``attempts``
    counts the joins built, each of a distinct H; ``q`` is the larger root
    of the join's 2x2 quotient matrix."""

    graph: Graph
    free: bool
    witness: Witness | None
    strategy_used: str
    exhaustive: bool
    attempts: int
    q: float


def circulant(m: int, offsets) -> Graph:
    """Circulant graph: i ~ i +- c (mod m) for each offset c in 1..m//2."""
    offs = sorted(set(int(c) for c in offsets))
    if any(c < 1 or c > m // 2 for c in offs):
        raise InvalidParameter(f"offsets {offs} outside 1..{m // 2}")
    edges = []
    for c in offs:
        for i in range(m):
            edges.append((i, (i + c) % m))
    return from_edge_list(m, edges)


def _circulant_offsets(m: int, s: int) -> list[int]:
    # s even: offsets 1..s/2; s odd needs the antipodal offset (m even)
    offs = list(range(1, s // 2 + 1))
    if s % 2 == 1:
        offs.append(m // 2)
    return offs


def _regular_graphs(m: int, s: int, d: int, h: Graph) -> list[tuple[int, ...]]:
    """Masks of one s-regular graph of order m per class but h's: the d-regular
    classes of the builtin enumerator, labeled, in canonical order, and
    complemented when d < s (h's class is matched on the d-regular side)."""
    from .canonical import _canonical, degree_cap, enumerate_levels  # only this fallback loads canonical

    full = (1 << m) - 1
    flip = (lambda adj: tuple(full ^ a ^ 1 << v for v, a in enumerate(adj))) if d < s else tuple
    own = _canonical(m, flip(h.adj))[0]
    *_, (_, kept, _) = enumerate_levels(m, keep=degree_cap(d))
    regular = sorted(_canonical(m, adj)[0] for adj in kept if all(a.bit_count() == d for a in adj))
    return [flip(c) for c in regular if c != own]


def build_extremal(spec: ExtremalSpec) -> BuildResult:
    """Join a (t-1)-clique with an s-regular graph of order n-t+1 and certify
    the result K_{t,s+1}-free.

    Checks the circulant first.  If its join contains the pattern and the
    s-regular graphs of order m are not unique, joins each other class in
    turn when m <= ``BUILTIN_MAX_ORDER``.  Returns the first free
    join, or else the circulant's join with its witness (``.free`` says which).
    """
    m, s = spec.m, spec.s
    if m <= s:
        raise InvalidParameter(f"{s}-regular needs order > {s}, H has {m}")
    if (m * s) % 2 != 0:
        raise InvalidParameter(f"parity: {s}-regular on {m} vertices impossible")
    pat = ForbiddenPattern.from_ts(spec.t, s)
    clique = complete_graph(spec.t - 1)
    h = circulant(m, _circulant_offsets(m, s))
    g = join(clique, h)
    witness = find_kst(g, pat)
    if witness is None:
        return _certified(spec, g, True, None, "circulant", False, 1)
    d = min(s, m - 1 - s)
    # for d <= 1 the circulant is the only s-regular graph of order m
    exhaustive = d <= 1 or m <= BUILTIN_MAX_ORDER
    others = _regular_graphs(m, s, d, h) if d >= 2 and exhaustive else []
    for tried, other in enumerate(others, start=2):
        joined = _join_masks(clique.adj, other)
        if _walk(joined, pat.t, pat.s_plus_1) is None:
            return _certified(spec, Graph(spec.n, joined), True, None, "enumerated", False, tried)
    return _certified(spec, g, False, witness, "circulant", exhaustive, 1 + len(others))


def _certified(spec: ExtremalSpec, g: Graph, *outcome) -> BuildResult:
    """``BuildResult`` of a join certified K_{t-1} v (s-regular H) on its masks,
    with q the larger root of the quotient of {hub, H}: ``conjecture_bound``."""
    n, s, t = g.n, spec.s, spec.t
    if not is_extremal_join(g, s, t):
        raise InvariantViolated(f"build is not K_{t - 1} v ({s}-regular)")
    return BuildResult(g, *outcome, conjecture_bound(n, s, t))
