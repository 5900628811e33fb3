"""Builders for the conjectured extremal graphs K_{t-1} joined with an
s-regular graph.

Regularity alone does not make the join K_{t,s+1}-free (pairs inside H may
share too many neighbors once the hub is added), so every build carries an
explicit freeness certificate: a circulant H is checked first, then random
regular graphs under fresh seeds; if none is free, the first join comes
back with its witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import HypothesisViolated, InvalidParameter, InvariantViolated, QxError
from .forbidden import ForbiddenPattern, Witness, find_kst
from .graphs import MAX_ORDER, Graph, complete_graph, empty_graph, from_edge_list, join

MAX_ATTEMPTS = 20  # random regular graphs tried after the circulant
RESTART_CAP = 200000  # pairing-model shuffles before random_regular gives up


@dataclass(frozen=True)
class ExtremalSpec:
    """Target join: complete part of order t-1, s-regular part of order n-t+1."""

    n: int
    s: int
    t: int

    def __post_init__(self):
        if self.t < 2:
            raise HypothesisViolated(f"need t >= 2, got {self.t}")
        if self.s < 1:
            raise HypothesisViolated(f"need s >= 1, got {self.s}")
        if self.n < self.t:
            raise HypothesisViolated(f"need n >= t, got n={self.n}, t={self.t}")
        if self.n > MAX_ORDER:
            raise InvalidParameter(f"graph order {self.n} exceeds the ceiling of {MAX_ORDER}")

    @property
    def m(self) -> int:
        """Order of the regular part."""
        return self.n - self.t + 1


@dataclass(frozen=True)
class BuildResult:
    graph: Graph
    free: bool
    witness: Witness | None
    strategy_used: str
    seed_used: int | None
    attempts: int


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


def random_regular(m: int, s: int, seed: int) -> Graph:
    """Uniform s-regular graph by the pairing model, restarting on any loop
    or repeated pair.  Deterministic for a given seed."""
    if s < 0 or s >= m:
        raise InvalidParameter(f"degree {s} impossible on {m} vertices")
    if (m * s) % 2 != 0:
        raise InvalidParameter(f"parity: {s}-regular on {m} vertices needs s*m even")
    if s == 0:
        return empty_graph(m)
    if s == m - 1:
        return complete_graph(m)
    rng = random.Random(seed)
    stubs = [v for v in range(m) for _ in range(s)]
    for _ in range(RESTART_CAP):
        rng.shuffle(stubs)
        seen = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if ok:
            return from_edge_list(m, sorted(seen))
    raise QxError(f"no simple {s}-regular pairing on {m} vertices after {RESTART_CAP} restarts")


def _circulant_offsets(m: int, s: int) -> list[int]:
    # s even: offsets 1..s/2; s odd needs the antipodal offset (m even)
    offs = list(range(1, s // 2 + 1))
    if s % 2 == 1:
        offs.append(m // 2)
    return offs


def build_extremal(spec: ExtremalSpec, seed: int = 0) -> BuildResult:
    """Join a (t-1)-clique with an s-regular graph of order n-t+1 and certify
    the result K_{t,s+1}-free.

    Tries a circulant first; if the join contains the pattern, retries with
    random regular graphs under seeds seed, seed+1, ... up to
    ``MAX_ATTEMPTS``.  Returns the first free join, or else the first join
    with its witness (the caller checks ``.free``); ``attempts`` counts every join built.
    """
    m = spec.m
    if m <= spec.s:
        raise InvalidParameter(f"{spec.s}-regular needs order > {spec.s}, H has {m}")
    if (m * spec.s) % 2 != 0:
        raise InvalidParameter(f"parity: {spec.s}-regular on {m} vertices impossible")
    pat = ForbiddenPattern.from_ts(spec.t, spec.s)
    clique = complete_graph(spec.t - 1)
    first: BuildResult | None = None
    for tried, sd in enumerate([None] + [seed + k for k in range(MAX_ATTEMPTS)], start=1):
        if sd is None:
            kind, h = "circulant", circulant(m, _circulant_offsets(m, spec.s))
        else:
            kind, h = "random_regular", random_regular(m, spec.s, sd)
        if h.regular_degree() != spec.s:
            raise InvariantViolated("regular part failed its degree check")
        g = join(clique, h)
        witness = find_kst(g, pat)
        result = BuildResult(g, witness is None, witness, kind, sd, tried)
        if result.free:
            return result
        if first is None:
            first = result
    return replace(first, attempts=tried)
