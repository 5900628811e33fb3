import math
import random

import numpy as np
import pytest

from qindex.errors import Unsupported
from qindex.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edge_list,
    join,
    path_graph,
)
from qindex.spectral import (
    adjacency_matrix,
    adjacency_radius,
    full_spectrum,
    q_index,
    q_matrix,
)
from conftest import random_graph


class TestQIndexExamples:
    def test_regular_fixtures(self):
        # connected d-regular graphs sit exactly at q = 2d
        assert q_index(complete_graph(4)).value == pytest.approx(6.0, abs=1e-10)
        assert q_index(cycle_graph(5)).value == pytest.approx(4.0, abs=1e-10)

    def test_star(self):
        assert q_index(complete_bipartite(1, 4)).value == pytest.approx(5.0, abs=1e-10)

    def test_hub_join_of_pentagon(self):
        g = join(complete_graph(1), cycle_graph(5))
        assert q_index(g).value == pytest.approx(5 + math.sqrt(20) / 2, abs=1e-9)

    def test_edgeless(self):
        r = q_index(empty_graph(4))
        assert r.value == 0.0
        assert np.linalg.norm(r.vector) == pytest.approx(1.0)

    def test_disconnected_takes_component_max(self):
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        r = q_index(g)
        assert r.value == pytest.approx(4.0, abs=1e-10)
        assert r.vector[3] == 0.0  # zero-padded outside the winning component

    def test_result_contract(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        r = q_index(g, tol=1e-10)
        assert r.residual <= 1e-10
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)
        assert (r.vector >= -1e-12).all()  # connected graph: Perron vector
        m = q_matrix(g)
        assert np.linalg.norm(m @ r.vector - r.value * r.vector) <= 1e-9

    def test_iteration_cap_falls_back_to_full(self):
        g = path_graph(12)
        r = q_index(g, tol=1e-12, max_iter=3)
        assert r.method == "full"
        assert r.value == pytest.approx(max(full_spectrum(g, "Q")), abs=1e-9)

    @pytest.mark.parametrize("g", [
        path_graph(12),
        disjoint_union(path_graph(5), cycle_graph(3)),
        path_graph(62),
    ], ids=["P12", "P5+C3", "P62"])
    def test_iteration_cap_returns_a_perron_vector(self, g):
        r = q_index(g, tol=1e-12, max_iter=3)
        assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)
        assert (r.vector >= 0).all()
        assert r.residual <= 1e-12
        assert r.value == pytest.approx(max(full_spectrum(g, "Q")), abs=1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            q_index(complete_graph(3), tol=0.0)


class TestAdjacencyExamples:
    def test_fixtures(self, petersen):
        assert adjacency_radius(complete_graph(4)).value == pytest.approx(3.0, abs=1e-9)
        assert adjacency_radius(cycle_graph(6)).value == pytest.approx(2.0, abs=1e-9)
        assert adjacency_radius(petersen).value == pytest.approx(3.0, abs=1e-9)

    def test_shift_does_not_leak(self):
        # bipartite graphs have symmetric adjacency spectrum; shifted power
        # iteration must still return the top of A itself
        g = complete_bipartite(3, 4)
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
        with pytest.raises(Unsupported):
            full_spectrum(complete_graph(2), "L")


class TestOracleAgreement:
    def test_iterative_vs_full_500_per_order(self):
        rng = random.Random(12345)
        worst = 0.0
        for n in range(2, 13):
            for _ in range(500):
                g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
                it = q_index(g, 1e-10).value
                worst = max(worst, abs(it - max(full_spectrum(g, "Q"))))
        assert worst <= 1e-8

    def test_against_lapack_sample(self):
        rng = random.Random(99)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 16), 0.5)
            assert q_index(g).value == pytest.approx(
                float(np.linalg.eigvalsh(q_matrix(g))[-1]), abs=1e-8
            )
            assert adjacency_radius(g).value == pytest.approx(
                float(np.linalg.eigvalsh(adjacency_matrix(g))[-1]), abs=1e-8
            )
            assert np.allclose(
                full_spectrum(g, "Q"), np.linalg.eigvalsh(q_matrix(g)), atol=1e-10
            )
            assert np.allclose(
                full_spectrum(g, "A"), np.linalg.eigvalsh(adjacency_matrix(g)), atol=1e-10
            )


class TestSpectralFacts:
    def test_degree_facts_random(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.6]))
            q = q_index(g).value
            lam = adjacency_radius(g).value
            if g.edge_count() > 0:
                assert q >= g.max_degree() + 1 - 1e-9
                assert 2 * g.min_degree() - 1e-9 <= q <= 2 * g.max_degree() + 1e-9
            assert lam >= 2 * g.edge_count() / g.n - 1e-9

    def test_regular_equality(self, petersen):
        for g in (complete_graph(4), cycle_graph(5), cycle_graph(6), petersen):
            d = g.regular_degree()
            assert q_index(g).value == pytest.approx(2 * d, abs=1e-9)


def _edge_form(g, x):
    """Edge sum of (x_u + x_v)^2: the quadratic form of Q, as an oracle."""
    return sum((x[u] + x[v]) ** 2 for u, v in g.edges())


class TestRayleighEdgeForm:
    def test_single_edge(self):
        x = np.full(2, 1 / math.sqrt(2))
        assert x @ q_matrix(complete_graph(2)) @ x == pytest.approx(2.0, abs=1e-12)

    def test_c4_uniform(self):
        x = np.full(4, 0.5)
        assert x @ q_matrix(cycle_graph(4)) @ x == pytest.approx(4.0, abs=1e-12)

    def test_matches_quadratic_form(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 10), 0.5)
            x = np.array([rng.gauss(0, 1) for _ in range(g.n)])
            x /= np.linalg.norm(x)
            direct = float(x @ q_matrix(g) @ x)
            assert _edge_form(g, x) == pytest.approx(direct, abs=1e-10)

    def test_perron_vector_reproduces_value(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), 0.5)
            r = q_index(g, tol=1e-10)
            assert abs(r.vector @ q_matrix(g) @ r.vector - r.value) <= 10 * 1e-10 + 1e-12
