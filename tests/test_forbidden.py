import itertools
import random

import pytest

import qindex.forbidden as forbidden
from qindex.errors import InvariantViolated
from qindex.forbidden import ForbiddenPattern, _contains_through, contains_kst, find_kst
from qindex.constructions import circulant
from qindex.graphs import Graph, complete_graph, from_edge_list
from conftest import empty_graph, random_graph


def brute_force_contains(g, t, s_plus_1):
    """Independent oracle: enumerate both sides and test completeness."""
    if t + s_plus_1 > g.n:
        return False
    for left in itertools.combinations(range(g.n), t):
        rest = [v for v in range(g.n) if v not in left]
        for right in itertools.combinations(rest, s_plus_1):
            if all(g.has_edge(u, v) for u in left for v in right):
                return True
    return False


def neighbors(g, u):
    return {v for v in range(g.n) if g.has_edge(u, v)}


def brute_force_max_codegree(g, t):
    """Independent oracle: the most common neighbors any t-set has
    outside itself."""
    return max(
        len(set.intersection(*[neighbors(g, x) for x in sub]) - set(sub))
        for sub in itertools.combinations(range(g.n), t)
    )


def brute_force_uses_edge(g, t, s_plus_1, u, v):
    """Independent oracle: some copy of K_{t,s+1} has u on one side and v
    on the other."""
    for a, b in ((u, v), (v, u)):
        for left in itertools.combinations(range(g.n), t):
            if a not in left:
                continue
            rest = [x for x in range(g.n) if x not in left]
            for right in itertools.combinations(rest, s_plus_1):
                if b in right and all(g.has_edge(x, y) for x in left for y in right):
                    return True
    return False


class TestPattern:
    def test_fields(self):
        pat = ForbiddenPattern.from_ts(2, 3)
        assert pat.s_plus_1 == 4 and pat.s == 3
        assert str(pat) == "K_{2,4}"

    def test_validation(self):
        with pytest.raises(ValueError):
            ForbiddenPattern(1, 3)
        with pytest.raises(ValueError):
            ForbiddenPattern(2, 1)


class TestExamples:
    def test_c4_is_k22(self):
        found = find_kst(circulant(4, [1]), ForbiddenPattern(2, 2))
        assert found == ((0, 2), (1, 3))  # opposite pairs

    def test_c5_is_free(self):
        assert not contains_kst(circulant(5, [1]), ForbiddenPattern(2, 2))

    def test_petersen_is_free(self, petersen):
        assert not contains_kst(petersen, ForbiddenPattern(2, 2))
        assert brute_force_contains(petersen, 2, 2) is False

    def test_wheel5_contains_k23(self, wheel_5):
        found = find_kst(wheel_5, ForbiddenPattern(2, 3))
        assert found is not None
        left, right = found
        for u in left:
            for v in right:
                assert wheel_5.has_edge(u, v)

    def test_pattern_larger_than_graph(self):
        assert contains_kst(complete_graph(2), ForbiddenPattern(3, 2)) is False


class TestOracleEquivalence:
    def test_500_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(500):
            n = rng.randint(4, 12)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
            for t in (2, 3):
                for s in (1, 2, 3):
                    pat = ForbiddenPattern.from_ts(t, s)
                    assert contains_kst(g, pat) == brute_force_contains(g, t, s + 1)

    def test_edge_walk_at_every_edge(self):
        rng = random.Random(909)
        hits = checks = 0
        for _ in range(150):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            edges = [(u, v) for u in range(n) for v in range(n) if g.has_edge(u, v)]
            for t in (2, 3):
                for s in (1, 2):
                    pat = ForbiddenPattern.from_ts(t, s)
                    for u, v in edges:  # both orders of each edge
                        got = _contains_through(g.adj, pat, u, v)
                        assert got == brute_force_uses_edge(g, t, s + 1, u, v)
                        hits += got
                        checks += 1
        assert 500 < hits < checks - 500  # both answers are exercised

    def test_consistency_with_max_codegree(self):
        rng = random.Random(17)
        for _ in range(100):
            g = random_graph(rng, rng.randint(4, 10), 0.5)
            for t in (2, 3):
                for s in (1, 2):
                    pat = ForbiddenPattern.from_ts(t, s)
                    assert contains_kst(g, pat) == (brute_force_max_codegree(g, t) >= s + 1)


class TestMonotonicity:
    def test_adding_edge_never_clears_pattern(self):
        rng = random.Random(55)
        pat = ForbiddenPattern(2, 2)
        for _ in range(200):
            g = random_graph(rng, 8, 0.35)
            had = contains_kst(g, pat)
            non_edges = [
                (u, v) for u in range(8) for v in range(u + 1, 8) if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            adj = list(g.adj)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            g2 = Graph(8, adj)
            if had:
                assert contains_kst(g2, pat)


class TestWitness:
    def test_lexicographic_tie_break(self):
        # two disjoint K_{2,2}s; the witness must come from the earlier one
        g = from_edge_list(8, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 6), (4, 7), (5, 6), (5, 7)])
        assert find_kst(g, ForbiddenPattern(2, 2)) == ((0, 1), (2, 3))

    @pytest.mark.parametrize("found, match", [
        (((0, 1), (1, 2)), r"witness sides \(0, 1\) and \(1, 2\) overlap"),
        (((0, 1), (2, 3)), r"witness edge \(0,2\) missing"),
    ], ids=["overlapping", "non-adjacent"])
    def test_a_bad_walk_witness_is_an_invariant_violation(self, monkeypatch, found, match):
        # find_kst re-verifies what the walk returns on the Graph
        monkeypatch.setattr(forbidden, "_walk", lambda adj, t, need: found)
        with pytest.raises(InvariantViolated, match=match):
            find_kst(empty_graph(4), ForbiddenPattern(2, 2))

    def test_witness_sides_disjoint_and_complete(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(300):
            g = random_graph(rng, 9, 0.5)
            for t, s in ((2, 1), (2, 2), (3, 1)):
                found = find_kst(g, ForbiddenPattern.from_ts(t, s))
                if found is None:
                    continue
                checked += 1
                left, right = found
                assert len(left) == t and len(right) == s + 1
                assert not set(left) & set(right)
                assert all(g.has_edge(u, v) for u in left for v in right)
        assert checked > 100
