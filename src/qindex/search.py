"""Search for Q-index maximizers among pattern-free graphs.

Exhaustive side: isomorph-free generation by vertex augmentation.  Children
of each canonical parent are deduplicated through the canonical labeling,
and a hereditary keep-predicate (pattern-freeness, degree caps) prunes
whole subtrees, since deleting the new vertex cannot create a forbidden
subgraph.  Builtin generation is capped at order 9; beyond that a graph6
stream from an external enumerator is deduplicated and scanned the same
way.

Heuristic side: simulated annealing over single edge toggles with a
geometric cooling schedule.  Toggles that would create the forbidden
pattern are rejected outright, so the walk never leaves the free region;
the result is a certified lower bound on the true maximum, never claimed
optimal.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np
# bench/spans.py wraps this name as spectral.full; the rename waits for ROADMAP item 2
from numpy.linalg import eigh as _jacobi

from .bounds import DEFAULT_EPS, conjecture_bound, q_bound_t2, q_bound_t2_applicable
from .canonical import canonical_graph6, canonical_key
from .errors import (
    DiscriminantNegative,
    HypothesisViolated,
    InvalidBudget,
    InvalidParameter,
    InvalidVertexSet,
    InvariantViolated,
    MalformedGraph6,
    OrderOverflow,
    UseStreamSource,
)
from .forbidden import ForbiddenPattern, _contains_through, contains_kst
from .graphs import MAX_ORDER, Graph, _bits, empty_graph, graph6_decode, induced, join
from .spectral import DEFAULT_TOL, _power_largest, q_index

BUILTIN_MAX_ORDER = 9
SEARCH_TOL = 1e-8  # annealing walk only; every reported q is scored at spectral.DEFAULT_TOL
T_START, T_END = 1.0, 1e-3  # annealing temperatures, cooled geometrically over the budget


def _extend(g: Graph, mask: int) -> Graph:
    """Parent plus one new vertex whose neighborhood is the given bitmask."""
    n = g.n
    adj = list(g.adj)
    for u in _bits(mask):
        adj[u] |= 1 << n
    adj.append(mask)
    return Graph(n + 1, adj)


def enumerate_levels(max_n: int, keep=None):
    """Yield (order, kept, seen) for order = 1..max_n.

    ``kept`` is the sorted list of canonical representatives surviving the
    hereditary predicate ``keep``; ``seen`` counts every distinct class
    generated at that order (children of surviving parents), kept or not.
    """
    if max_n < 1:
        raise InvalidVertexSet("enumeration needs max_n >= 1")
    k1 = empty_graph(1)
    current = [k1] if keep is None or keep(k1) else []
    yield 1, list(current), 1
    for order in range(2, max_n + 1):
        seen: set = set()
        kept: dict = {}
        for parent in current:
            pn = parent.n
            for mask in range(1 << pn):
                key = canonical_key(_extend(parent, mask))
                if key in seen:
                    continue
                seen.add(key)
                child = Graph(key[0], key[1])
                if keep is None or keep(child):
                    kept[key] = child
        current = [kept[k] for k in sorted(kept)]
        yield order, current, len(seen)


def enumerate_graphs(n: int, keep=None) -> list[Graph]:
    """Canonical representatives of all order-n classes passing ``keep``."""
    *_, (_, kept, _) = enumerate_levels(n, keep)
    return kept


def _free_predicate(pat: ForbiddenPattern):
    def keep(g: Graph) -> bool:
        if g.n < pat.order:
            return True
        return not contains_kst(g, pat)

    return keep


def is_extremal_join(g: Graph, s: int, t: int) -> bool:
    """Whether g is a join of a (t-1)-clique with an s-regular graph."""
    if g.n < t:
        return False
    dom = g.dominating_vertices()
    if len(dom) < t - 1:
        return False
    hub = set(dom[: t - 1])
    rest = [v for v in range(g.n) if v not in hub]
    if not rest:
        return False
    return induced(g, rest).regular_degree() == s


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search over K_{t,s+1}-free graphs of order n.

    For exhaustive runs ``max_q`` is the exact maximum over isomorphism
    classes and ``argmax`` lists every maximizer (canonical graph6,
    sorted, ties within ``eps``).  For heuristic runs ``max_q`` is only a
    lower bound on the true maximum, ``graphs_seen`` counts proposals and
    ``free_graphs`` the ones that were evaluated (pattern-creating toggles
    are rejected unevaluated).
    """

    n: int
    s: int
    t: int
    graphs_seen: int
    free_graphs: int
    max_q: float
    argmax: list[str]
    bound_value: float | None
    bound_applicable: bool
    verdict: str
    argmax_is_extremal_join: bool
    exhaustive: bool
    eps: float
    runtime_ms: int
    seed: int | None = None
    budget: int | None = None


def _check_eps(eps: float) -> None:
    """Reject a slack that is negative, NaN or infinite: any of them would
    turn the comparison with the cap into a made-up verdict."""
    if not 0 <= eps < math.inf:
        raise InvalidParameter(f"eps must be finite and >= 0, got {eps}")


def _above(q: float, bound: float, eps: float) -> bool:
    """Whether q exceeds the cap by more than ``eps``.  Every q is certified
    to a residual of at most ``DEFAULT_TOL``, which bounds its error, so a
    float within that of the cap is not counted as above it."""
    return q > bound + eps + DEFAULT_TOL


def _at_cap(q: float, bound: float) -> bool:
    """Whether q meets the cap within its certified error, whatever eps is."""
    return abs(q - bound) <= DEFAULT_TOL


def _verdict(max_q: float, pat: ForbiddenPattern, n: int, eps: float):
    """Compare a maximum against the conjectured cap, minding its hypothesis."""
    try:
        bound = conjecture_bound(n, pat.s, pat.t)
    except (HypothesisViolated, DiscriminantNegative):
        return None, False, "bound_inapplicable"
    applicable = True
    verdict = "bound_violated" if _above(max_q, bound, eps) else "bound_holds"
    return bound, applicable, verdict


def _argmax(scored: list[tuple[float, Graph]], eps: float) -> tuple[float, list[Graph]]:
    """Top score (0.0 when empty) and every graph scoring within ``eps`` of it."""
    best = max((q for q, _ in scored), default=0.0)
    return best, [g for q, g in scored if q >= best - eps]


def _finish_report(n, pat, free_list, graphs_seen, free_count, eps, t0, exhaustive,
                   seed=None, budget=None) -> SearchReport:
    """Score free graphs, pick argmaxes, re-verify them, and compare bounds."""
    max_q, top = _argmax([(q_index(g).value, g) for g in free_list], eps)
    for g in top:
        if g.n >= pat.order and contains_kst(g, pat):
            raise InvariantViolated("argmax is not pattern-free")
    bound, applicable, verdict = _verdict(max_q, pat, n, eps)
    return SearchReport(
        n=n,
        s=pat.s,
        t=pat.t,
        graphs_seen=graphs_seen,
        free_graphs=free_count,
        max_q=max_q,
        argmax=sorted({canonical_graph6(g) for g in top}),
        bound_value=bound,
        bound_applicable=applicable,
        verdict=verdict,
        argmax_is_extremal_join=any(is_extremal_join(g, pat.s, pat.t) for g in top),
        exhaustive=exhaustive,
        eps=eps,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        seed=seed,
        budget=budget,
    )


def exhaustive_scan(max_n: int, pat: ForbiddenPattern, eps: float = DEFAULT_EPS) -> list[SearchReport]:
    """One SearchReport per order 1..max_n from a single builtin enumeration."""
    _check_eps(eps)
    if max_n > BUILTIN_MAX_ORDER:
        raise UseStreamSource(f"builtin enumeration capped at order {BUILTIN_MAX_ORDER}")
    reports = []
    t_prev = time.perf_counter()
    for order, kept, seen in enumerate_levels(max_n, _free_predicate(pat)):
        reports.append(_finish_report(order, pat, kept, seen, len(kept), eps, t_prev, True))
        t_prev = time.perf_counter()
    return reports


def exhaustive_max_q(
    n: int,
    pat: ForbiddenPattern,
    stream=None,
    eps: float = DEFAULT_EPS,
) -> SearchReport:
    """Exact Q-index maximum over K_{t,s+1}-free classes of order n.

    ``stream`` is an iterable of graph6 lines replacing the builtin
    enumerator (required for n > 9); the scan is invariant under input
    relabeling because every line is canonically deduplicated.
    """
    _check_eps(eps)
    t0 = time.perf_counter()
    keep = _free_predicate(pat)
    if stream is None:
        if n > BUILTIN_MAX_ORDER:
            raise UseStreamSource(f"builtin enumeration capped at order {BUILTIN_MAX_ORDER}")
        *_, (_, kept, classes) = enumerate_levels(n, keep)
        return _finish_report(n, pat, kept, classes, len(kept), eps, t0, True)
    seen: set = set()
    free: dict = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            g = graph6_decode(line)
        except MalformedGraph6 as exc:
            raise MalformedGraph6(f"stream line {lineno}: {exc}") from None
        if g.n != n:
            raise InvalidVertexSet(f"stream line {lineno}: order {g.n}, expected {n}")
        key = canonical_key(g)
        if key in seen:
            continue
        seen.add(key)
        child = Graph(key[0], key[1])
        if keep(child):
            free[key] = child
    free_list = [free[k] for k in sorted(free)]
    return _finish_report(n, pat, free_list, len(seen), len(free_list), eps, t0, True)


# bounded-degree join scan

@dataclass(frozen=True)
class JoinCapReport:
    """Scan of q(K_1 v H) over all H of order m with max degree <= s.

    The cap is the closed form at (m+1, s); equality cases must coincide
    exactly with the s-regular H.
    """

    m: int
    s: int
    classes: int
    bound: float
    max_q: float
    all_capped: bool
    equality_graph6: list[str]
    equality_all_regular: bool
    regular_all_equality: bool
    eps: float
    runtime_ms: int

    @property
    def verdict(self) -> str:
        ok = self.all_capped and self.equality_all_regular and self.regular_all_equality
        return "bound_holds" if ok else "bound_violated"


def join_cap_scan(m: int, s: int, eps: float = DEFAULT_EPS) -> JoinCapReport:
    """Exhaustively verify the hub-join cap over every H with max degree <= s."""
    _check_eps(eps)
    if m > 8:
        raise UseStreamSource("join scan enumerates H internally; capped at order 8")
    if s < 1:
        raise HypothesisViolated(f"need s >= 1, got {s}")
    t0 = time.perf_counter()
    k1 = empty_graph(1)
    bound = q_bound_t2(m + 1, s)
    all_capped = True
    equality = []
    eq_all_regular = True
    reg_all_eq = True
    max_q = 0.0
    classes = 0
    for h in enumerate_graphs(m, keep=lambda g: g.max_degree() <= s):
        classes += 1
        g = join(k1, h)
        q = q_index(g).value
        max_q = max(max_q, q)
        if _above(q, bound, eps):
            all_capped = False
        is_eq = _at_cap(q, bound)
        is_reg = h.regular_degree() == s
        if is_eq:
            equality.append(canonical_graph6(h))
            if not is_reg:
                eq_all_regular = False
        elif is_reg:
            reg_all_eq = False
    return JoinCapReport(
        m=m,
        s=s,
        classes=classes,
        bound=bound,
        max_q=max_q,
        all_capped=all_capped,
        equality_graph6=sorted(equality),
        equality_all_regular=eq_all_regular,
        regular_all_equality=reg_all_eq,
        eps=eps,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


# dominating-vertex split scan

@dataclass(frozen=True)
class DominatingScanReport:
    """K_{2,s+1}-free classes of order n split by presence of a dominating
    vertex.

    The dominating class is checked against the t = 2 cap with equality
    exactly at hub joins of s-regular graphs.  For the rest, the maximum is
    recorded and compared with n; the strict cap below n is only proved
    from order s^2+6s+6 up, so ``cap_applicable`` reports whether the
    comparison is guaranteed or just data.
    """

    n: int
    s: int
    dominating_count: int
    dominating_max_q: float
    dominating_argmax: list[str]
    dominating_capped: bool
    equality_matches_regular_join: bool
    rest_count: int
    rest_max_q: float
    rest_argmax: list[str]
    rest_below_n: bool
    cap_applicable: bool
    bound: float
    eps: float
    runtime_ms: int


def dominating_vertex_scan(n: int, s: int, eps: float = DEFAULT_EPS) -> DominatingScanReport:
    _check_eps(eps)
    if n > BUILTIN_MAX_ORDER:
        raise UseStreamSource(f"builtin enumeration capped at order {BUILTIN_MAX_ORDER}")
    t0 = time.perf_counter()
    pat = ForbiddenPattern.from_ts(2, s)
    bound = q_bound_t2(n, s)
    dom: list[tuple[float, Graph]] = []
    rest: list[tuple[float, Graph]] = []
    for g in enumerate_graphs(n, _free_predicate(pat)):
        q = q_index(g).value
        (dom if g.max_degree() == n - 1 else rest).append((q, g))
    dom_max, dom_top = _argmax(dom, eps)
    rest_max, rest_top = _argmax(rest, eps)
    capped = not any(_above(q, bound, eps) for q, _ in dom)
    eq_ok = all(_at_cap(q, bound) == is_extremal_join(g, s, 2) for q, g in dom)
    return DominatingScanReport(
        n=n,
        s=s,
        dominating_count=len(dom),
        dominating_max_q=dom_max,
        dominating_argmax=sorted(canonical_graph6(g) for g in dom_top),
        dominating_capped=capped,
        equality_matches_regular_join=eq_ok,
        rest_count=len(rest),
        rest_max_q=rest_max,
        rest_argmax=sorted(canonical_graph6(g) for g in rest_top),
        rest_below_n=rest_max < n,
        cap_applicable=q_bound_t2_applicable(n, s),
        bound=bound,
        eps=eps,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


# simulated annealing

def heuristic_max_q(
    n: int,
    pat: ForbiddenPattern,
    budget: int,
    seed: int,
    eps: float = DEFAULT_EPS,
) -> SearchReport:
    """Annealed edge-toggle walk through the pattern-free graphs of order n.

    Geometric cooling from ``T_START`` down to ``T_END`` over exactly
    ``budget`` proposals; an edge insertion creating the pattern costs its
    proposal but is never evaluated or accepted.  Deterministic per seed.
    Returns a lower-bound report (``exhaustive=False``).
    """
    if n < 2:
        raise InvalidVertexSet(f"an edge-toggle walk needs n >= 2, got {n}")
    if n > MAX_ORDER:
        raise OrderOverflow(f"graph order {n} exceeds the ceiling of {MAX_ORDER}")
    if budget < 1:
        raise InvalidBudget(f"budget must be >= 1, got {budget}")
    _check_eps(eps)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    alpha = (T_END / T_START) ** (1.0 / budget)
    temp = T_START
    adj = [0] * n  # the walk's graph as neighbor masks, toggled in place
    m = np.zeros((n, n))  # its Q matrix, kept in step with adj
    x = np.full(n, 1.0 / math.sqrt(n))
    q_cur = 0.0
    best_q = -1.0
    best_adj = tuple(adj)
    evaluated = 0
    for _ in range(budget):
        temp *= alpha
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        adding = not adj[u] >> v & 1
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if adding and (_contains_through(adj, pat, u) or _contains_through(adj, pat, v)):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            continue
        delta = 1.0 if adding else -1.0
        m[u, v] += delta
        m[v, u] += delta
        m[u, u] += delta
        m[v, v] += delta
        x0 = x + 1e-3  # keep overlap with every component's top eigenvector
        q_new, x_new, _res, _, ok = _power_largest(m, SEARCH_TOL, 3000, x0=x0)
        if not ok:
            w, vecs = _jacobi(m)
            q_new = float(w[-1])
            x_new = np.abs(vecs[:, -1])
        evaluated += 1
        dq = q_new - q_cur
        if dq >= 0 or rng.random() < math.exp(dq / temp):
            q_cur = q_new
            x = x_new
            if q_new > best_q:
                best_q = q_new
                best_adj = tuple(adj)
        else:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            m[u, v] -= delta
            m[v, u] -= delta
            m[u, u] -= delta
            m[v, v] -= delta
    return _finish_report(
        n, pat, [Graph(n, best_adj)], budget, evaluated, eps, t0, False, seed=seed, budget=budget
    )
