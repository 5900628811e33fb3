"""Search for Q-index maximizers among pattern-free graphs.

Exhaustive side: a scan scores one adjacency mask tuple per pattern-free
class of one order, as generated by ``canonical.enumerate_levels`` under
``_free_predicate`` or, beyond ``graphs.BUILTIN_MAX_ORDER``, read from an
external enumerator's graph6 stream, where only lines sharing a degree
profile are labeled and deduplicated by certificate (canonical adjacency
masks).  A scan certifies the q of every mask tuple it scores in one
stacked LAPACK call (``spectral._top``: ``numpy.linalg.eigh`` and a
residual check), so every argmax, tie and cap comparison is decided by
certified values; only the classes a report prints (the argmax, or in
``join_cap_scan`` the equality set) are labeled and built as ``Graph``s.
Scans and hunts end in one report tail, ``_finish_report``.  Its report
also carries the paper's dominating-vertex split: the best class with a
vertex of degree n - 1 is K_1 v H, capped by ``join_cap_scan``'s closed
form, and the best class without one is compared with n, the cap that half
obeys from order s^2 + 6s + 6 (``bounds.q_cap_ledger``).

Heuristic side: simulated annealing over single edge toggles with a
geometric cooling schedule.  Toggles that would create the forbidden
pattern are rejected outright, so the walk never leaves the free region.
Each evaluated proposal is scored by one LAPACK call
(``numpy.linalg.eigvalsh``) on the walk's Q matrix, unless it is a deletion
that a certified bound on its q (``_drop_bound``) already rejects; only the
best graph found is rescored by the certified ``q_index``, so the result is
a certified lower bound on the true maximum, never claimed optimal.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from .bounds import conjecture_bound, is_extremal_join, q_bound_t2_applicable
from .canonical import _canonical, _collide, canonical_graph6, canonical_key, degree_cap, enumerate_levels
from .errors import HypothesisViolated, InvalidParameter, InvariantViolated
from .forbidden import ForbiddenPattern, _contains_through, _walk, contains_kst
from .graphs import BUILTIN_MAX_ORDER, MAX_ORDER, Graph, _graph6_lines, _join_masks, graph6_encode
from .graphs import _graph6_masks as graph6_decode  # (n, masks), not a Graph; named for bench (ROADMAP item 1)
from .spectral import DEFAULT_TOL, _matrices, _top, q_index
# bench/spans.py wraps this name as spectral.full; the rename waits for ROADMAP item 1
from .spectral import _eigvalsh as _jacobi
from .spectral import _eigvalsh as _power_largest  # unused; bench/spans.py wraps it until ROADMAP item 1

T_START, T_END = 1.0, 1e-3  # annealing temperatures, cooled geometrically over the budget
EPS = 1e-7  # width of an argmax tie, and slack before a q above a cap is a violation
CHUNK_ENTRIES = 1 << 20  # matrix entries per stacked eigh call of a scan


def _free_predicate(pat: ForbiddenPattern):
    """``enumerate_levels`` predicate: no ``pat`` through the last vertex w (the graph less w is
    free), with w on its t-side (a walk anchored at w) or on the other, its t-side in N(w)."""
    t, need = pat.t, pat.s_plus_1
    return lambda adj: _walk(adj, t, need, len(adj) - 1) is None and _walk(adj, t, need, None, adj[-1]) is None


class SearchReport(NamedTuple):
    """Outcome of one search over K_{t,s+1}-free graphs of order n.

    For exhaustive runs ``max_q`` is the exact maximum over isomorphism
    classes and ``argmax`` lists every maximizer (canonical graph6,
    sorted, ties within ``EPS``).  For heuristic runs ``max_q`` is only a
    lower bound on the true maximum, ``graphs_seen`` counts proposals and
    ``free_graphs`` the ones decided by q or by a certified bound on it
    (pattern-creating toggles are rejected unevaluated).  ``bound_applicable``
    says whether the cap is proved for every graph of this order (t = 2 and
    n >= s^2 + 6s + 6) rather than conjectured.

    The ``rest_*`` fields cover the free classes with no vertex of degree
    n - 1 (an exhaustive run's argmax convention: 0.0, [] and a vacuous
    ``rest_below_n`` when there are none; None for heuristic runs).
    ``rest_below_n`` is ``rest_max_q < n - DEFAULT_TOL``, so a q equal to
    n reads False.  It is data, never a violation: the paper proves it
    only from n = s^2 + 6s + 6 up, and it leaves ``verdict`` alone.
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
    runtime_ms: int
    seed: int | None = None
    budget: int | None = None
    rest_max_q: float | None = None
    rest_argmax: list[str] | None = None
    rest_below_n: bool | None = None


def _above(q: float, bound: float) -> bool:
    """Whether q exceeds the cap by more than ``EPS``.  Every q is certified
    to a residual of at most ``DEFAULT_TOL``, which bounds its error, so a
    float within that of the cap is not counted as above it."""
    return q > bound + EPS + DEFAULT_TOL


def _at_cap(q: float, bound: float) -> bool:
    """Whether q meets the cap within its certified error ``DEFAULT_TOL``."""
    return abs(q - bound) <= DEFAULT_TOL


def _cap(n: int, pat: ForbiddenPattern) -> float | None:
    """The conjectured cap at order n, or None outside its hypothesis s >= t - 1."""
    try:
        return conjecture_bound(n, pat.s, pat.t)
    except HypothesisViolated:
        return None


def _argmax(scored: list[tuple[float, tuple[int, ...]]]) -> tuple[float, list[tuple[int, ...]]]:
    """Top score (0.0 when empty) and every mask tuple scoring within ``EPS`` of it."""
    best = max((q for q, _ in scored), default=0.0)
    return best, [adj for q, adj in scored if q >= best - EPS]


def _certified_q(masks: list[tuple[int, ...]]) -> list[float]:
    """Certified q of each graph in a list of same-order adjacency mask
    tuples, from one stacked ``_top`` call per chunk of at most
    ``CHUNK_ENTRIES`` matrix entries."""
    if not masks:
        return []
    step = max(1, CHUNK_ENTRIES // len(masks[0]) ** 2)
    return [q for i in range(0, len(masks), step)
            for q in _top(_matrices(masks[i:i + step]))[0].tolist()]


def _finish_report(n, pat, bound, graphs, max_q, encode, t0, **fields) -> SearchReport:
    """Shared tail of scans and hunts: re-verify the argmax ``Graph``s, compare ``max_q`` with
    ``bound`` (``_cap``, taken before the work starts, so a cap past a double's range stops it
    first) and build the report, with ``encode`` printing each argmax and ``fields`` the caller's."""
    for g in graphs:
        if contains_kst(g, pat):
            raise InvariantViolated("argmax is not pattern-free")
    return SearchReport(
        n=n,
        s=pat.s,
        t=pat.t,
        max_q=max_q,
        argmax=sorted({encode(g) for g in graphs}),
        bound_value=bound,
        bound_applicable=pat.t == 2 and q_bound_t2_applicable(n, pat.s),
        verdict=("bound_inapplicable" if bound is None
                 else "bound_violated" if _above(max_q, bound) else "bound_holds"),
        argmax_is_extremal_join=any(is_extremal_join(g, pat.s, pat.t) for g in graphs),
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        **fields,
    )


def _scan_report(n, pat, bound, free, graphs_seen, t0, label) -> SearchReport:
    """Report of a scan over ``free``, one mask tuple per free class: certified q (``_certified_q``),
    the argmax, and the argmax of the classes with no dominating vertex; only those are labeled (by
    ``label``, to their certificates), certified again and built as ``Graph``s."""
    scored = list(zip(_certified_q(free), free))
    no_hub = [(q, adj) for q, adj in scored if all(m.bit_count() < n - 1 for m in adj)]
    top, rest = ([label(adj) for adj in _argmax(pairs)[1]] for pairs in (scored, no_hub))
    qs = _certified_q(top + rest)  # float rounding may move q with the labeling: report the certificates'
    max_q, rest_q = max(qs[:len(top)], default=0.0), max(qs[len(top):], default=0.0)
    return _finish_report(n, pat, bound, [Graph(n, cert) for cert in top], max_q, graph6_encode, t0,
                          graphs_seen=graphs_seen, free_graphs=len(free), exhaustive=True,
                          rest_max_q=rest_q, rest_below_n=rest_q < n - DEFAULT_TOL,
                          rest_argmax=sorted(graph6_encode(Graph(n, cert)) for cert in rest))


def exhaustive_max_q(n: int, pat: ForbiddenPattern, stream=None) -> SearchReport:
    """Exact Q-index maximum over K_{t,s+1}-free classes of order n.

    ``stream`` is an iterable of graph6 lines replacing the builtin
    enumerator (required for n > 9), labeling and deduplicating a line only
    once another shares its degree profile (``canonical._collide``).  A
    stream with no graph line is an error: every order has a graph.
    """
    t0 = time.perf_counter()
    bound = _cap(n, pat)
    if stream is None:
        *_, (_, kept, classes) = enumerate_levels(n, _free_predicate(pat))
        return _scan_report(n, pat, bound, kept, classes, t0, lambda adj: _canonical(n, adj)[0])
    held, seen = {}, set()  # profile -> its line held unlabeled ([] once labeled); labeled certificates
    for lineno, _, (order, adj) in _graph6_lines(stream, "stream", graph6_decode):
        if order != n:
            raise InvalidParameter(f"stream line {lineno}: order {order}, expected {n}")
        seen.update(canonical_key(Graph(n, adj))[1] for adj in _collide(held, adj, adj))
    if not held:
        raise InvalidParameter(f"stream has no graph line, so it enumerates no order-{n} class")
    classes = list(seen) + [adj for pending in held.values() for adj in pending]  # the held lines are alone
    free = [adj for adj in classes if _walk(adj, pat.t, pat.s_plus_1) is None]  # no parent vouches for one
    return _scan_report(n, pat, bound, free, len(classes), t0,
                        lambda a: a if a in seen else _canonical(n, a)[0])


# bounded-degree join scan

class JoinCapReport(NamedTuple):
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
    runtime_ms: int
    verdict: str


def join_cap_scan(m: int, s: int) -> JoinCapReport:
    """Exhaustively verify the hub-join cap over every H with max degree <= s:
    each H is a mask tuple from ``enumerate_levels``, scored joined to the hub
    as masks; only the equality set printed is labeled and built as ``Graph``s."""
    if m < 1:
        raise InvalidParameter(f"need m >= 1, got {m}")
    if m > BUILTIN_MAX_ORDER - 1:  # the join K_1 v H has order m + 1
        raise InvalidParameter(f"join scan enumerates H internally; capped at order {BUILTIN_MAX_ORDER - 1}")
    if s < 1:
        raise HypothesisViolated(f"need s >= 1, got {s}")
    t0 = time.perf_counter()
    bound = conjecture_bound(m + 1, s, 2)
    *_, (_, hs, _) = enumerate_levels(m, keep=degree_cap(s))
    qs = _certified_q([_join_masks((0,), h) for h in hs])
    equal = {i for i, q in enumerate(qs) if _at_cap(q, bound)}
    regular = {i for i, h in enumerate(hs) if all(a.bit_count() == s for a in h)}
    all_capped = not any(_above(q, bound) for q in qs)
    return JoinCapReport(
        m=m,
        s=s,
        classes=len(hs),
        bound=bound,
        max_q=max(qs),
        all_capped=all_capped,
        equality_graph6=sorted(graph6_encode(Graph(m, _canonical(m, hs[i])[0])) for i in equal),
        equality_all_regular=equal <= regular,
        regular_all_equality=regular <= equal,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        verdict="bound_holds" if all_capped and equal == regular else "bound_violated",
    )


# simulated annealing

def _drop_bound(gap: float, c: float) -> float:
    """Upper bound, plus slack ``EPS``, on the change in q from deleting an edge uv, from the gap
    g = lambda1 - lambda2 of Q and c = x_u + x_v for its unit Perron vector x: Q - zz^T, z = e_u + e_v,
    is below lambda2 I + g xx^T - zz^T, whose top is lambda2 plus the top root of that form on
    span{x, z} (rank-one interlacing; Horn & Johnson, Matrix Analysis, 4.3).  EPS is a thousand
    times x's certified residual ``DEFAULT_TOL`` and far above eigenvalue rounding."""
    b = gap - 2
    return (b + math.sqrt(b * b + 4 * gap * max(0.0, 2 - c * c))) / 2 - gap + EPS


def heuristic_max_q(n: int, pat: ForbiddenPattern, budget: int, seed: int) -> SearchReport:
    """Annealed edge-toggle walk through the pattern-free graphs of order n.

    Geometric cooling from ``T_START`` down to ``T_END`` over exactly
    ``budget`` proposals; an edge insertion creating the pattern costs its
    proposal but is never evaluated or accepted; every other proposal is
    scored by one ``eigvalsh`` call on the walk's Q matrix, unless
    ``_drop_bound`` rejects it as that score would.  Deterministic per seed.
    Returns a lower-bound report (``exhaustive=False``).
    """
    if n < 2:
        raise InvalidParameter(f"an edge-toggle walk needs n >= 2, got {n}")
    if n > MAX_ORDER:
        raise InvalidParameter(f"graph order {n} exceeds the ceiling of {MAX_ORDER}")
    if budget < 1:
        raise InvalidParameter(f"budget must be >= 1, got {budget}")
    alpha = (T_END / T_START) ** (1.0 / min(budget, 1 << 1023))  # 1.0 / budget overflows from 2^1024
    if alpha == 1.0:  # a walk that never cools
        raise InvalidParameter(f"budget too large ({len(str(budget))} digits): its cooling factor rounds to 1")
    t0 = time.perf_counter()
    bound = _cap(n, pat)
    rng = random.Random(seed)
    temp = T_START
    adj = [0] * n  # the walk's graph as neighbor masks, toggled in place
    m = _matrices(adj)  # its Q matrix, kept in step with adj
    q_cur = gap = 0.0  # its q and lambda1 - lambda2, from the eigvalsh call that accepted it
    best_q = -1.0
    best_adj = tuple(adj)
    evaluated = rejected = 0  # rejected: evaluated proposals turned down since the last accepted move
    perron, checked = None, {}  # the walk's graph's Perron vector, once needed; its insertion checks
    for _ in range(budget):
        temp *= alpha
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        adding = not adj[u] >> v & 1
        r = None  # the acceptance draw, once taken
        if not adding and rejected >= 2:  # a graph that rejects often: try the bound before an eigensolve
            perron = perron or _top(m)[1].tolist()
            most = _drop_bound(gap, perron[u] + perron[v])
            if most < 0:  # so the float dq is negative too, and the walk draws r where it would anyway
                r = rng.random()
                if r >= math.exp(most / temp):
                    evaluated, rejected = evaluated + 1, rejected + 1
                    continue
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if adding:
            hit = checked.get(edge := 1 << u | 1 << v)
            if hit is None:
                hit = checked[edge] = _contains_through(adj, pat, u, v)
            if hit:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                continue
        delta = 1.0 if adding else -1.0
        m[u, v] += delta
        m[v, u] += delta
        m[u, u] += delta
        m[v, v] += delta
        lam2, q_new = _jacobi(m)[-2:].tolist()
        evaluated += 1
        dq = q_new - q_cur
        if r is None and dq < 0:
            r = rng.random()
        if r is None or r < math.exp(dq / temp):
            q_cur, gap = q_new, q_new - lam2
            rejected, perron, checked = 0, None, {}
            if q_new > best_q:
                best_q = q_new
                best_adj = tuple(adj)
        else:
            rejected += 1
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            m[u, v] -= delta
            m[v, u] -= delta
            m[u, u] -= delta
            m[v, v] -= delta
    best = Graph(n, best_adj)
    return _finish_report(n, pat, bound, [best], q_index(best).value, canonical_graph6, t0,
                          graphs_seen=budget, free_graphs=evaluated, exhaustive=False,
                          seed=seed, budget=budget)
