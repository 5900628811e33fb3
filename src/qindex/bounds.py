"""Closed-form extremal bounds for K_{t,s+1}-free graphs, the recognizer of
the join K_{t-1} v (s-regular) whose Q-index is the conjectured cap, and
the ledger of numeric inequality steps behind the q(G) < n cap for graphs
without a dominating vertex.

The closed forms are double-precision arithmetic.  For large n the t = 2
cap lies within an ulp of n + 2s/(n-2s), so its bracketing window is a
test oracle, not a runtime check.  Comparisons against computed
eigenvalues follow one fixed policy, owned by ``search``; the ledger's
steps are rational and are checked exactly, with no slack.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import HypothesisViolated, InvalidParameter
from .graphs import Graph, _bits


def _double(value) -> float:
    """The closed form ``value()`` as a finite double; past that range it raises ``InvalidParameter``."""
    try:
        result = value()
    except OverflowError:  # an int too large to convert to float
        result = math.inf
    if not math.isfinite(result):
        raise InvalidParameter("n, s and t too large: a bound overflows double precision")
    return result


def adjacency_bound(n: int, s: int, t: int) -> float:
    """Upper bound on the adjacency spectral radius of a K_{s,t}-free graph.

    Requires s >= t >= 2.  The t = 2 form is 1/2 + sqrt((s-1)(n-1) + 1/4);
    for t >= 3 the fractional-power form applies.
    """
    if t < 2:
        raise HypothesisViolated(f"need t >= 2, got {t}")
    if t > s:
        raise HypothesisViolated(f"need s >= t, got s={s}, t={t}")
    if n < 1:
        raise HypothesisViolated(f"order must be >= 1, got {n}")
    if t == 2:
        return 0.5 + math.sqrt((s - 1) * (n - 1) + 0.25)
    return (s - t + 1) ** (1.0 / t) * n ** (1.0 - 1.0 / t) + (t - 1) * n ** (1.0 - 2.0 / t) + (t - 2)


def edge_bound(n: int, s: int, t: int) -> float:
    """Upper bound on the edge count of a K_{s,t}-free graph (s >= t >= 2), by 2e/n <= lambda."""
    return n * adjacency_bound(n, s, t) / 2


def q_bound_t2(n: int, s: int) -> float:
    """Sharp Q-index cap for K_{2,s+1}-free graphs of order n:
    (n+2s)/2 + sqrt((n-2s)^2 + 8s)/2.
    """
    if s < 1 or n < 1:
        raise HypothesisViolated(f"need s >= 1 and n >= 1, got s={s}, n={n}")
    return (n + 2 * s) / 2.0 + 0.5 * math.sqrt((n - 2 * s) ** 2 + 8 * s)


def q_bound_t2_applicable(n: int, s: int) -> bool:
    """Whether n clears the threshold n >= s^2 + 6s + 6 under which the
    t = 2 cap is proved for all graphs (the closed form itself is defined
    for every n >= 1)."""
    return n >= s * s + 6 * s + 6


def conjecture_bound(n: int, s: int, t: int) -> float:
    """Conjectured Q-index cap for K_{t,s+1}-free graphs, s >= t-1 >= 1.

    Equals the Q-index of the join of a (t-1)-clique with an s-regular
    graph of order n-t+1 (``is_extremal_join``): the larger root of the
    quotient [[n+t-3, n-t+1], [t-1, 2s+t-1]] of its equitable partition
    {hub, H}, which ``build_extremal`` returns as the join's q (and ``qx
    construct`` as its bound).  Reduces to ``q_bound_t2`` at t = 2.
    Under that hypothesis its discriminant is positive at every n >= 1
    (below n = t-1 it is at least (n-2)^2 + 8(t-1)).  A cap that does not
    fit a double raises ``InvalidParameter``.
    """
    if not (t >= 2 and s >= t - 1):
        raise HypothesisViolated(f"need s >= t-1 >= 1, got s={s}, t={t}")
    if n < 1:
        raise HypothesisViolated(f"order must be >= 1, got {n}")
    disc = (n - 2 * s - 2) ** 2 + 4 * (t - 1) * (n - t + 1)
    return _double(lambda: n / 2.0 + s + t - 2 + 0.5 * math.sqrt(disc))


def is_extremal_join(g: Graph, s: int, t: int) -> bool:
    """Whether g is a join of a (t-1)-clique with an s-regular graph: the
    first t-1 dominating vertices form the hub, and every other vertex
    (there must be one) has degree s + t - 1, s of it inside the rest."""
    hub = g.dominating_vertices()[: t - 1]
    return len(hub) == t - 1 and g.n >= t and all(
        d == s + t - 1 for v, d in enumerate(g.degrees()) if v not in hub)


def f_value(g: Graph, u: int) -> float:
    """d(u) + (1/d(u)) * sum of neighbor degrees; u must be nonisolated."""
    adj, d = g.adj, g.degree(u)
    if d == 0:
        raise InvalidParameter(f"vertex {u} is isolated")
    return d + sum([adj[v].bit_count() for v in _bits(adj[u])]) / d


def merris_bound(g: Graph) -> float:
    """Merris-type degree bound: q(G) never exceeds the max of f_value."""
    if g.edge_count() == 0:
        raise InvalidParameter("Merris bound needs at least one edge")
    return max(f_value(g, u) for u in range(g.n) if g.adj[u])


def q_cap_ledger(s: int, n: int) -> dict[str, bool]:
    """Named inequality checks certifying q(G) < n for K_{2,s+1}-free graphs
    of order n >= s^2 + 6s + 6 without a dominating vertex.

    The chain splits by maximum degree.  For degrees between s+2 and
    n-s-2, the convex majorant g(x) = x + 1 + (n-1)s/x is evaluated at the
    interval ends; for the near-dominating regime, the two branch values of
    x + 2s/(x - 2s) are compared and the tail terms are relaxed to the
    constants 2/5 and 24/49.  Every step is rational, so each is checked
    exactly in ``Fraction`` arithmetic; non-strict steps that attain
    equality at the threshold order (``tail_linear`` does, for every s)
    pass without any slack.
    """
    if s < 1:
        raise HypothesisViolated(f"need s >= 1, got {s}")
    threshold = s * s + 6 * s + 6
    if n < threshold:
        raise HypothesisViolated(f"ledger needs n >= s^2+6s+6 = {threshold}, got n={n}")

    from fractions import Fraction  # here, not at the top: it adds ~8 ms to every qx start

    s, n = Fraction(s), Fraction(n)

    def g_of(x: Fraction) -> Fraction:
        return x + 1 + (n - 1) * s / x

    checks: dict[str, bool] = {}
    checks["majorant_at_low_degree"] = g_of(s + 2) < n
    checks["majorant_at_high_degree"] = g_of(n - s - 2) < n
    branch_max = max(s + 3 + (n - 1) * s / (s + 2), n - s - 1 + (n - 1) * s / (n - s - 2))
    checks["degree_branch_max"] = branch_max < n
    checks["regime_comparison"] = n - s + 2 * s / (n - 3 * s) <= n - 1 + 2 * s / (n - 1 - 2 * s)
    checks["tail_linear"] = 2 * s / (n - 1 - 2 * s) <= 2 / (s + 4 + 5 / s)
    checks["tail_quadratic"] = 24 * s * s / (n * n) <= 24 / (s + 6 + 6 / s) ** 2
    checks["relax_linear"] = 2 / (s + 4 + 5 / s) <= Fraction(2, 5)
    checks["relax_quadratic"] = 24 / (s + 6 + 6 / s) ** 2 <= Fraction(24, 49)
    checks["final_chain"] = n - 1 + 2 * s / (n - 1 - 2 * s) + 24 * s * s / (n * n) < n
    return checks


class BoundReport(NamedTuple):
    """All closed-form bounds at one (n, s, t), with the hypothesis flags
    callers need before trusting each value; its ``_asdict()`` is a ``qx
    bounds`` row.  ``adjacency_bound``/``edge_bound`` are None when s < t."""

    n: int
    s: int
    t: int
    adjacency_bound: float | None
    edge_bound: float | None
    q_bound_t2: float
    conjecture_bound: float | None
    applicability: dict[str, bool]


def bound_report(n: int, s: int, t: int) -> BoundReport:
    """Evaluate every bound at (n, s, t); inapplicable ones come back None,
    and one that does not fit a double raises ``InvalidParameter``."""
    if s < 1 or t < 2 or n < 1:
        raise HypothesisViolated(f"need n >= 1, s >= 1, t >= 2; got n={n}, s={s}, t={t}")
    applicability = {
        "adjacency_edge": s >= t,
        "q_t2_proved": q_bound_t2_applicable(n, s),
        "conjecture_shape": s >= t - 1,
    }
    adjacency = _double(lambda: adjacency_bound(n, s, t)) if s >= t else None
    edge = _double(lambda: edge_bound(n, s, t)) if s >= t else None
    conjecture = conjecture_bound(n, s, t) if s >= t - 1 else None
    q_t2 = _double(lambda: q_bound_t2(n, s))
    return BoundReport(n, s, t, adjacency, edge, q_t2, conjecture, applicability)
