import math
import random

import numpy as np
import pytest

from qindex.constructions import circulant
from qindex.errors import InvalidParameter, InvariantViolated
from qindex.graphs import complete_graph, from_edge_list, join
from qindex.spectral import _matrices, adjacency_radius, full_spectrum, q_index
from conftest import disjoint_union, edges, empty_graph, path_graph, random_graph, relabel


def _relabeled(g, seed):
    """g under a seeded random relabeling (None: unchanged), with the
    permutation old -> new."""
    perm = list(range(g.n)) if seed is None else random.Random(seed).sample(range(g.n), g.n)
    return relabel(g, perm), perm


class TestQIndexExamples:
    def test_regular_fixtures(self):
        # connected d-regular graphs sit exactly at q = 2d
        assert q_index(complete_graph(4)).value == pytest.approx(6.0, abs=1e-10)
        assert q_index(circulant(5, [1])).value == pytest.approx(4.0, abs=1e-10)

    def test_star(self):
        assert q_index(join(empty_graph(1), empty_graph(4))).value == pytest.approx(5.0, abs=1e-10)

    def test_hub_join_of_pentagon(self):
        g = join(complete_graph(1), circulant(5, [1]))
        assert q_index(g).value == pytest.approx(5 + math.sqrt(20) / 2, abs=1e-9)

    def test_edgeless(self):
        r = q_index(empty_graph(4))
        assert r.value == 0.0
        assert np.linalg.norm(r.vector) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [None, 2], ids=["blocks", "relabeled"])
    def test_disconnected_takes_component_max(self, seed):
        g, perm = _relabeled(disjoint_union(complete_graph(3), empty_graph(1)), seed)
        r = q_index(g)
        assert r.value == pytest.approx(4.0, abs=1e-10)
        assert abs(r.vector[perm[3]]) <= 1e-12  # zero up to rounding outside the winning component

    def test_result_contract(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        r = q_index(g)
        assert r.residual <= 1e-10
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)
        assert (r.vector >= -1e-12).all()  # connected graph: Perron vector
        m = _matrices(g.adj, "Q")
        assert np.linalg.norm(m @ r.vector - r.value * r.vector) <= 1e-9

    @pytest.mark.parametrize("seed", [None, 2], ids=["blocks", "relabeled"])
    def test_tied_components_take_one(self, seed):
        # 2 K3 + K1: both triangles have q = 4; the vector lives on one of them
        g, perm = _relabeled(disjoint_union(disjoint_union(complete_graph(3), complete_graph(3)),
                                            empty_graph(1)), seed)
        r = q_index(g)
        assert r.value == pytest.approx(4.0, abs=1e-10)
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)
        assert (r.vector >= 0).all()
        support = {v for v in range(g.n) if r.vector[v] > 1e-12}
        assert support in ({perm[v] for v in (0, 1, 2)}, {perm[v] for v in (3, 4, 5)})

    @pytest.mark.parametrize("g", [
        path_graph(12),
        disjoint_union(path_graph(5), complete_graph(3)),
        path_graph(62),
    ], ids=["P12", "P5+C3", "P62"])
    def test_returns_a_perron_vector(self, g):
        r = q_index(g)
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)
        assert (r.vector >= 0).all()
        assert r.residual <= 1e-12
        assert r.value == pytest.approx(max(full_spectrum(g, "Q")), abs=1e-12)

    def test_uncertified_eigenpair_raises(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(m):
            w, v = eigh(m)
            v = v.copy()
            v[0, -1] += 1e-6
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(InvariantViolated):
            q_index(path_graph(6))


class TestAdjacencyExamples:
    def test_fixtures(self, petersen):
        assert adjacency_radius(complete_graph(4)).value == pytest.approx(3.0, abs=1e-9)
        assert adjacency_radius(circulant(6, [1])).value == pytest.approx(2.0, abs=1e-9)
        assert adjacency_radius(petersen).value == pytest.approx(3.0, abs=1e-9)

    def test_shift_does_not_leak(self):
        # bipartite graphs have symmetric adjacency spectrum: the top of A
        # is +sqrt(12), not the equally large -sqrt(12)
        g = join(empty_graph(3), empty_graph(4))
        assert adjacency_radius(g).value == pytest.approx(math.sqrt(12), abs=1e-9)


class TestFullSpectrum:
    def test_path3_q(self):
        assert full_spectrum(path_graph(3), "Q") == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)

    def test_k2_adjacency(self):
        assert full_spectrum(complete_graph(2), "A") == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_edgeless_q(self):
        assert full_spectrum(empty_graph(3), "Q") == [0.0, 0.0, 0.0]

    def test_trace_identities(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 14), 0.5)
            assert sum(full_spectrum(g, "Q")) == pytest.approx(2 * g.edge_count(), abs=1e-8)
            assert sum(full_spectrum(g, "A")) == pytest.approx(0.0, abs=1e-8)

    def test_bad_matrix_name(self):
        with pytest.raises(InvalidParameter, match="matrix must be 'Q' or 'A', got 'L'"):
            full_spectrum(complete_graph(2), "L")


class TestMatrixBuilder:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 61, 62])
    def test_matches_edge_list(self, n):
        # orders past 31 put neighbors at bit positions a 32-bit shift would
        # lose; the edge 0 ~ n-1 uses the highest one
        rng = random.Random(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        pairs += [(0, n - 1)] * (n > 1)
        g = from_edge_list(n, pairs)
        a = np.zeros((n, n))
        for u, v in pairs:
            a[u, v] = a[v, u] = 1.0
        assert np.array_equal(_matrices(g.adj, "A"), a)
        assert np.array_equal(_matrices(g.adj, "Q"), a + np.diag(a.sum(axis=1)))


class TestOracleAgreement:
    def test_iterative_vs_full_500_per_order(self):
        rng = random.Random(12345)
        worst = 0.0
        for n in range(2, 13):
            for _ in range(500):
                g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
                it = q_index(g).value
                worst = max(worst, abs(it - max(full_spectrum(g, "Q"))))
        assert worst <= 1e-8

    def test_against_lapack_sample(self):
        rng = random.Random(99)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 16), 0.5)
            q, a = _matrices(g.adj, "Q"), _matrices(g.adj, "A")
            assert q_index(g).value == pytest.approx(float(np.linalg.eigvalsh(q)[-1]), abs=1e-8)
            assert adjacency_radius(g).value == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-8)
            assert np.allclose(full_spectrum(g, "Q"), np.linalg.eigvalsh(q), atol=1e-10)
            assert np.allclose(full_spectrum(g, "A"), np.linalg.eigvalsh(a), atol=1e-10)


class TestSpectralFacts:
    def test_degree_facts_random(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.6]))
            q = q_index(g).value
            lam = adjacency_radius(g).value
            if g.edge_count() > 0:
                assert q >= g.max_degree() + 1 - 1e-9
                assert 2 * min(g.degrees()) - 1e-9 <= q <= 2 * g.max_degree() + 1e-9
            assert lam >= 2 * g.edge_count() / g.n - 1e-9

    def test_regular_equality(self, petersen):
        for g in (complete_graph(4), circulant(5, [1]), circulant(6, [1]), petersen):
            d, = set(g.degrees())
            assert q_index(g).value == pytest.approx(2 * d, abs=1e-9)


def _edge_form(g, x):
    """Edge sum of (x_u + x_v)^2: the quadratic form of Q, as an oracle."""
    return sum((x[u] + x[v]) ** 2 for u, v in edges(g))


class TestRayleighEdgeForm:
    def test_single_edge(self):
        x = np.full(2, 1 / math.sqrt(2))
        assert x @ _matrices(complete_graph(2).adj, "Q") @ x == pytest.approx(2.0, abs=1e-12)

    def test_c4_uniform(self):
        x = np.full(4, 0.5)
        assert x @ _matrices(circulant(4, [1]).adj, "Q") @ x == pytest.approx(4.0, abs=1e-12)

    def test_matches_quadratic_form(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 10), 0.5)
            x = np.array([rng.gauss(0, 1) for _ in range(g.n)])
            x /= np.linalg.norm(x)
            direct = float(x @ _matrices(g.adj, "Q") @ x)
            assert _edge_form(g, x) == pytest.approx(direct, abs=1e-10)

    def test_perron_vector_reproduces_value(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), 0.5)
            r = q_index(g)
            assert abs(r.vector @ _matrices(g.adj, "Q") @ r.vector - r.value) <= 10 * 1e-10 + 1e-12
