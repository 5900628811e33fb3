import math
import random

import numpy as np
import pytest

from qindex.bounds import (
    adjacency_bound,
    bound_report,
    conjecture_bound,
    edge_bound,
    f_value,
    merris_bound,
    q_bound_t2,
    q_bound_t2_applicable,
    q_cap_ledger,
)
from qindex.canonical import enumerate_levels
from qindex.constructions import circulant
from qindex.errors import HypothesisViolated, InvalidParameter, QxError
from qindex.forbidden import ForbiddenPattern
from qindex.graphs import complete_graph, from_edge_list, join
from qindex.search import _free_predicate
from qindex.spectral import _matrices, adjacency_radius, q_index
from conftest import empty_graph, q_bound_window, random_graph


class TestAdjacencyBound:
    def test_frozen_values(self):
        assert adjacency_bound(10, 2, 2) == pytest.approx(0.5 + math.sqrt(9.25), abs=1e-12)
        assert adjacency_bound(1, 2, 2) == pytest.approx(1.0, abs=1e-12)
        # exact powers of 64: 64^(2/3) + 2*64^(1/3) + 1 = 16 + 8 + 1
        assert adjacency_bound(64, 3, 3) == pytest.approx(25.0, abs=1e-9)

    def test_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            adjacency_bound(10, 2, 3)  # t > s
        with pytest.raises(HypothesisViolated):
            adjacency_bound(10, 3, 1)  # t < 2
        with pytest.raises(HypothesisViolated):
            adjacency_bound(0, 2, 2)

    def test_petersen_sanity(self, petersen):
        # Petersen is K_{2,2}-free with spectral radius 3
        from qindex.spectral import adjacency_radius

        assert adjacency_radius(petersen).value <= adjacency_bound(10, 2, 2) + 1e-9


def free_class_extremes(s, t, max_n):
    """Per order n <= max_n: the largest adjacency eigenvalue and the most
    edges over the K_{s,t}-free classes, each class from the builtin
    enumerator as a mask tuple."""
    levels = enumerate_levels(max_n, _free_predicate(ForbiddenPattern(t, s)))
    return {n: (float(np.linalg.eigvalsh(_matrices(kept, "A"))[:, -1].max()),
                max(sum(m.bit_count() for m in adj) // 2 for adj in kept)) for n, kept, _ in levels}


# (s, t) of the forbidden K_{s,t}, s >= t, with the largest order each run enumerates
EXHAUSTIVE_PATTERNS = [(2, 2, 7), (3, 2, 7), (4, 2, 7), (3, 3, 7), (4, 3, 7)]
SLOW_PATTERNS = [(2, 2, 9), (3, 2, 9), (4, 2, 8), (3, 3, 8), (4, 3, 8)]


class TestBoundsOnFreeClasses:
    """``adjacency_bound`` and ``edge_bound`` hold on every K_{s,t}-free class."""

    @staticmethod
    def check(s, t, max_n):
        extremes = free_class_extremes(s, t, max_n)
        for n, (radius, edges) in extremes.items():
            assert radius <= adjacency_bound(n, s, t) + 1e-9, (s, t, n)
            assert edges <= edge_bound(n, s, t) + 1e-9, (s, t, n)
        return extremes

    @pytest.mark.parametrize("s, t, max_n", EXHAUSTIVE_PATTERNS)
    def test_through_order_7(self, s, t, max_n):
        self.check(s, t, max_n)

    def test_friendship_graph_attains_the_t2_bound_at_order_7(self):
        # C4-free at n = 7: K_1 v 3K_2 has radius 3 = 1/2 + sqrt(6 + 1/4)
        friendship = join(complete_graph(1), from_edge_list(6, [(0, 1), (2, 3), (4, 5)]))
        assert adjacency_radius(friendship).value == pytest.approx(3.0, abs=1e-12)
        assert adjacency_bound(7, 2, 2) == 3.0
        assert free_class_extremes(2, 2, 7)[7][0] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.slow
    @pytest.mark.parametrize("s, t, max_n", SLOW_PATTERNS)
    def test_through_orders_8_and_9(self, s, t, max_n):
        extremes = self.check(s, t, max_n)
        if (s, t) == (2, 2):  # K_1 v 4K_2 attains it again at n = 9
            assert extremes[9][0] == pytest.approx((1 + math.sqrt(33)) / 2, abs=1e-12)
            assert adjacency_bound(9, 2, 2) == pytest.approx((1 + math.sqrt(33)) / 2, abs=1e-12)


class TestEdgeBound:
    def test_frozen_values(self):
        assert edge_bound(10, 2, 2) == pytest.approx(5 * math.sqrt(9.25) + 2.5, abs=1e-12)
        assert edge_bound(1, 2, 2) == pytest.approx(0.5, abs=1e-12)
        # 0.5*64^(5/3) + 64^(4/3) + 32 = 512 + 256 + 32
        assert edge_bound(64, 3, 3) == pytest.approx(800.0, abs=1e-9)

    def test_is_half_n_times_adjacency_bound(self):
        for t in (2, 3, 4):
            for s in range(t, 7):
                for n in range(1, 201):
                    assert edge_bound(n, s, t) == pytest.approx(
                        (n / 2.0) * adjacency_bound(n, s, t), abs=1e-10
                    )


class TestQBoundT2:
    def test_frozen_values(self):
        assert q_bound_t2(13, 1) == pytest.approx(7.5 + math.sqrt(129) / 2, abs=1e-12)
        assert q_bound_t2(6, 2) == pytest.approx(5 + math.sqrt(20) / 2, abs=1e-12)
        for s in (1, 3, 5):
            assert q_bound_t2(2 * s, s) == pytest.approx(2 * s + math.sqrt(8 * s) / 2, abs=1e-12)

    def test_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            q_bound_t2(0, 1)
        with pytest.raises(HypothesisViolated):
            q_bound_t2(5, 0)

    def test_applicability_threshold(self):
        assert q_bound_t2_applicable(13, 1)
        assert not q_bound_t2_applicable(12, 1)
        assert q_bound_t2_applicable(22, 2)
        assert not q_bound_t2_applicable(21, 2)

    def test_matches_hub_join_value(self):
        g = join(complete_graph(1), circulant(5, [1]))
        assert q_index(g).value == pytest.approx(q_bound_t2(6, 2), abs=1e-8)


class TestConjectureBound:
    def test_reduces_to_t2_form(self):
        worst = max(
            abs(conjecture_bound(n, s, 2) - q_bound_t2(n, s))
            for s in range(1, 7)
            for n in range(3, 201)
        )
        assert worst <= 1e-10

    def test_frozen_values(self):
        assert conjecture_bound(30, 2, 3) == pytest.approx(18 + 0.5 * math.sqrt(800), abs=1e-12)
        assert conjecture_bound(22, 2, 2) == pytest.approx(13 + 0.5 * math.sqrt(340), abs=1e-12)

    def test_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            conjecture_bound(10, 1, 3)  # s < t - 1
        with pytest.raises(HypothesisViolated):
            conjecture_bound(10, 1, 1)
        with pytest.raises(HypothesisViolated):
            conjecture_bound(0, 2, 2)

    @pytest.mark.parametrize("n, s, t", [(3, 10 ** 200, 2), (10 ** 400, 1, 2), (13, 10 ** 400, 2)],
                             ids=["huge-square", "huge-n", "huge-s"])
    def test_overflow_is_the_bound_report_error(self, n, s, t):
        # the cap the scans and hunts take at entry fails as ``qx bounds`` does,
        # never with a bare OverflowError
        with pytest.raises(InvalidParameter) as info:
            conjecture_bound(n, s, t)
        assert type(info.value) is InvalidParameter
        assert str(info.value) == "n, s and t too large: a bound overflows double precision"

    def test_discriminant_stays_positive_on_grid(self):
        for t in range(2, 7):
            for s in range(t - 1, 9):
                for n in range(1, 120):
                    conjecture_bound(n, s, t)  # must not raise


class TestMerris:
    def test_complete_graphs(self):
        for n in (3, 5, 9):
            assert merris_bound(complete_graph(n)) == pytest.approx(2 * n - 2, abs=1e-12)
            assert q_index(complete_graph(n)).value == pytest.approx(2 * n - 2, abs=1e-9)

    def test_star(self):
        assert merris_bound(join(empty_graph(1), empty_graph(4))) == pytest.approx(5.0, abs=1e-12)

    def test_path3(self):
        assert merris_bound(from_edge_list(3, [(0, 1), (1, 2)])) == pytest.approx(3.0, abs=1e-12)

    def test_f_value(self):
        g = join(empty_graph(1), empty_graph(4))
        assert f_value(g, 0) == pytest.approx(4 + 4 / 4, abs=1e-12)
        assert f_value(g, 1) == pytest.approx(1 + 4 / 1, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidParameter, match="Merris bound needs at least one edge"):
            merris_bound(empty_graph(3))
        with pytest.raises(InvalidParameter, match="vertex 2 is isolated"):
            f_value(from_edge_list(3, [(0, 1)]), 2)

    def test_dominates_q_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 14), rng.choice([0.3, 0.6, 0.9]))
            if g.edge_count() == 0:
                continue
            assert q_index(g).value <= merris_bound(g) + 1e-7


class TestWindow:
    def test_frozen_values(self):
        lo, hi = q_bound_window(13, 1)
        assert (lo, hi) == (13.0, pytest.approx(13 + 2 / 11))
        assert lo < q_bound_t2(13, 1) < hi
        lo, hi = q_bound_window(22, 2)
        assert hi == pytest.approx(22 + 4 / 18)
        assert lo < q_bound_t2(22, 2) < hi
        lo, hi = q_bound_window(3, 1)
        assert (lo, hi) == (3.0, 5.0)
        assert q_bound_t2(3, 1) == pytest.approx(4.0)

    def test_sandwich_strict_on_grid(self):
        for s in range(1, 7):
            for n in range(3, 201):
                if n <= 2 * s:
                    continue
                lo, hi = q_bound_window(n, s)
                v = q_bound_t2(n, s)
                assert lo < v < hi


class TestCapLedger:
    def test_smallest_admissible_orders(self):
        assert all(q_cap_ledger(1, 13).values())
        assert all(q_cap_ledger(2, 22).values())

    def test_below_threshold_rejected(self):
        with pytest.raises(HypothesisViolated):
            q_cap_ledger(1, 4)

    def test_full_grid(self):
        # exact arithmetic: every check holds with no slack, also where the
        # chain is tight (tail_linear at the threshold order)
        for s in range(1, 40):
            threshold = s * s + 6 * s + 6
            for n in range(threshold, max(201, threshold + 60)):
                checks = q_cap_ledger(s, n)
                assert all(checks.values()), (s, n, checks)

    def test_check_names_are_stable(self):
        assert list(q_cap_ledger(1, 13)) == [
            "majorant_at_low_degree",
            "majorant_at_high_degree",
            "degree_branch_max",
            "regime_comparison",
            "tail_linear",
            "tail_quadratic",
            "relax_linear",
            "relax_quadratic",
            "final_chain",
        ]


class TestBoundReport:
    def test_flags(self):
        rep = bound_report(13, 1, 2)
        assert rep.applicability["adjacency_edge"] is False  # s < t
        assert rep.applicability["q_t2_proved"] is True
        assert rep.adjacency_bound is None
        assert rep.conjecture_bound == pytest.approx(rep.q_bound_t2, abs=1e-10)

    def test_with_graph(self):
        # the per-graph Merris value is reported by ``qx qindex``, not here
        rep = bound_report(4, 2, 2)
        assert rep.adjacency_bound is not None

    def test_bad_parameters(self):
        with pytest.raises(HypothesisViolated):
            bound_report(5, 0, 2)

    @pytest.mark.parametrize("n, s, t", [
        (10 ** 400, 1, 2),  # n does not fit a double
        (13, 10 ** 400, 2),  # s does not fit a double
        (10 ** 200, 1, 2),  # n fits, (n - 2s)^2 under the square root does not
        (10 ** 150, 5 * 10 ** 149, 5 * 10 ** 149),  # every term fits, the edge bound is infinite
    ], ids=["huge-n", "huge-s", "huge-square", "infinite-edge-bound"])
    def test_overflow_is_a_qx_error(self, n, s, t):
        with pytest.raises(QxError, match="overflows double precision"):
            bound_report(n, s, t)
