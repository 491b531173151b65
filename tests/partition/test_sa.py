"""Unit tests for simulated annealing bisection (paper Fig. 1)."""

from __future__ import annotations

import random

import pytest

from repro.graphs.generators import gbreg, gnp, ladder_graph
from repro.graphs.graph import Graph
from repro.partition.annealing import AnnealingSchedule, BalanceCost, simulated_annealing
from repro.partition.bisection import Bisection, cut_weight
from repro.partition.exact import exact_bisection_width
from repro.rng import LaggedFibonacciRandom

FAST = AnnealingSchedule(size_factor=2, cooling_ratio=0.9, max_temperatures=60)


class TestSABasics:
    def test_two_cliques_finds_bridge(self, two_cliques):
        result = simulated_annealing(two_cliques, rng=1, schedule=FAST)
        assert result.cut == 1
        assert result.bisection.is_balanced()

    def test_result_is_balanced_and_consistent(self, gbreg_sample):
        result = simulated_annealing(gbreg_sample.graph, rng=2, schedule=FAST)
        b = result.bisection
        assert b.is_balanced()
        assert b.cut == cut_weight(gbreg_sample.graph, b.assignment())

    def test_counters(self, two_cliques):
        result = simulated_annealing(two_cliques, rng=3, schedule=FAST)
        assert result.temperatures >= 1
        assert result.moves_attempted == result.temperatures * FAST.moves_per_temperature(
            two_cliques.num_vertices
        )
        assert 0 <= result.moves_accepted <= result.moves_attempted
        assert 0.0 <= result.acceptance_ratio <= 1.0
        assert len(result.temperature_trace) == result.temperatures

    def test_temperature_decreases(self, two_cliques):
        result = simulated_annealing(two_cliques, rng=4, schedule=FAST)
        temps = [t for t, _, _ in result.temperature_trace]
        assert all(t1 > t2 for t1, t2 in zip(temps, temps[1:]))
        assert result.final_temperature < result.initial_temperature

    def test_deterministic_given_seed(self, two_cliques):
        a = simulated_annealing(two_cliques, rng=5, schedule=FAST)
        b = simulated_annealing(two_cliques, rng=5, schedule=FAST)
        assert a.cut == b.cut
        assert a.temperatures == b.temperatures

    def test_respects_init(self, two_cliques):
        init = Bisection.from_sides(two_cliques, [0, 1, 2, 3])
        result = simulated_annealing(two_cliques, init=init, rng=6, schedule=FAST)
        assert result.initial_cut == 1
        assert result.cut <= 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            simulated_annealing(Graph())

    def test_foreign_init_rejected(self, two_cliques, triangle):
        with pytest.raises(ValueError):
            simulated_annealing(
                two_cliques, init=Bisection.from_sides(triangle, [0]), rng=1
            )

    def test_max_temperatures_cap(self, gbreg_sample):
        capped = AnnealingSchedule(size_factor=1, max_temperatures=3, cooling_ratio=0.99)
        result = simulated_annealing(gbreg_sample.graph, rng=7, schedule=capped)
        assert result.temperatures <= 3


class TestSAQuality:
    def test_matches_exact_on_small_graphs(self):
        for seed in range(2):
            g = gnp(12, 0.3, rng=seed + 200)
            optimum = exact_bisection_width(g)
            best = min(
                simulated_annealing(g, rng=s, schedule=FAST).cut for s in range(3)
            )
            assert best <= optimum + 1

    def test_ladder_strength(self):
        # Observation 4: SA outperforms plain KL on ladders; at minimum it
        # should land near the optimal cut of 2 on a small ladder.
        best = min(
            simulated_annealing(ladder_graph(8), rng=s, schedule=FAST).cut
            for s in range(3)
        )
        assert best <= 4

    def test_gbreg_degree4_near_planted(self):
        sample = gbreg(80, b=4, d=4, rng=20)
        best = min(
            simulated_annealing(sample.graph, rng=s, schedule=FAST).cut
            for s in range(2)
        )
        assert best <= 10


class TestSABestSeen:
    def test_best_seen_not_worse_than_final_state(self, gbreg_sample):
        # Section VII: SA can migrate away from good solutions; the result
        # must be the best balanced configuration seen, which is never
        # worse than the last trace entry's *balanced* cut.
        result = simulated_annealing(gbreg_sample.graph, rng=8, schedule=FAST)
        final_cuts = [cut for _, _, cut in result.temperature_trace]
        assert result.cut <= max(final_cuts)

    def test_small_alpha_still_returns_balanced(self, two_cliques):
        loose = BalanceCost(alpha=0.001)
        result = simulated_annealing(
            two_cliques, rng=9, schedule=FAST, cost=loose
        )
        assert result.bisection.is_balanced()

    def test_large_alpha_confines_walk(self, gbreg_sample):
        tight = BalanceCost(alpha=10.0)
        result = simulated_annealing(gbreg_sample.graph, rng=10, schedule=FAST, cost=tight)
        assert result.bisection.is_balanced()


class TestSACutoff:
    def test_cutoff_reduces_attempted_moves(self, gbreg_sample):
        full = simulated_annealing(gbreg_sample.graph, rng=13, schedule=FAST)
        with_cutoff = simulated_annealing(
            gbreg_sample.graph,
            rng=13,
            schedule=AnnealingSchedule(
                size_factor=2, cooling_ratio=0.9, max_temperatures=60, cutoff_factor=0.2
            ),
        )
        assert with_cutoff.moves_attempted < full.moves_attempted

    def test_cutoff_still_balanced(self, gbreg_sample):
        schedule = AnnealingSchedule(size_factor=2, cutoff_factor=0.25, max_temperatures=60)
        result = simulated_annealing(gbreg_sample.graph, rng=14, schedule=schedule)
        assert result.bisection.is_balanced()

    def test_cutoff_value(self):
        schedule = AnnealingSchedule(size_factor=4, cutoff_factor=0.25)
        assert schedule.acceptance_cutoff(100) == 100
        assert AnnealingSchedule().acceptance_cutoff(100) is None

    def test_invalid_cutoff_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            AnnealingSchedule(cutoff_factor=0.0)
        with _pytest.raises(ValueError):
            AnnealingSchedule(cutoff_factor=1.5)


class TestSwapNeighborhood:
    def test_balance_never_drifts(self, gbreg_sample):
        result = simulated_annealing(
            gbreg_sample.graph, rng=20, schedule=FAST, neighborhood="swap"
        )
        b = result.bisection
        assert b.imbalance == 0
        assert b.cut == cut_weight(gbreg_sample.graph, b.assignment())

    def test_finds_bridge(self, two_cliques):
        best = min(
            simulated_annealing(
                two_cliques, rng=s, schedule=FAST, neighborhood="swap"
            ).cut
            for s in range(3)
        )
        assert best == 1

    def test_weighted_edges_accounted(self):
        g = Graph.from_edges([(0, 1, 7), (1, 2, 3), (2, 3, 7), (3, 0, 3)])
        result = simulated_annealing(g, rng=21, schedule=FAST, neighborhood="swap")
        assert result.cut == cut_weight(g, result.bisection.assignment())

    def test_walk_tracks_the_weighted_cut(self, gbreg_sample):
        # Edge weights 1-4 and adjacent swaps: the walk's running cut
        # must equal a recount of the sides it ends on.
        from repro.graphs.csr import csr_cut_weight, csr_side_weights, csr_view
        from repro.kernels.sa import swap_walk

        graph = Graph.from_edges(
            (u, v, 1 + (u + v) % 4) for u, v, _ in gbreg_sample.graph.edges()
        )
        csr = csr_view(graph)
        sides = [i % 2 for i in range(csr.num_vertices)]
        w0, w1 = csr_side_weights(csr, sides)
        walk = swap_walk(
            csr, sides, csr_cut_weight(csr, sides), w0 - w1, 3.0,
            LaggedFibonacciRandom(25), FAST, 0.05, 0, False,
        )
        assert walk.accepted > 0
        assert walk.cut == csr_cut_weight(csr, walk.sides)

    def test_deterministic(self, two_cliques):
        a = simulated_annealing(two_cliques, rng=22, schedule=FAST, neighborhood="swap")
        b = simulated_annealing(two_cliques, rng=22, schedule=FAST, neighborhood="swap")
        assert a.cut == b.cut

    def test_invalid_neighborhood_rejected(self, two_cliques):
        with pytest.raises(ValueError, match="neighborhood"):
            simulated_annealing(two_cliques, neighborhood="teleport")

    def test_one_sided_start_rejected(self, two_cliques):
        init = Bisection(two_cliques, {v: 0 for v in two_cliques.vertices()})
        with pytest.raises(ValueError, match="both sides"):
            simulated_annealing(
                two_cliques, init=init, rng=24, schedule=FAST, neighborhood="swap"
            )

    def test_quality_comparable_to_flip(self):
        sample = gbreg(200, 6, 3, rng=23)
        flip = min(
            simulated_annealing(sample.graph, rng=s, schedule=FAST).cut
            for s in range(2)
        )
        swap = min(
            simulated_annealing(
                sample.graph, rng=s, schedule=FAST, neighborhood="swap"
            ).cut
            for s in range(2)
        )
        # Swap mixes more slowly but should stay within a few multiples.
        assert swap <= 6 * max(flip, sample.planted_width) + 10


class TestSAWeighted:
    def test_contracted_graph(self, gbreg_sample):
        from repro.core.compaction import compact
        from repro.core.matching import random_maximal_matching

        g = gbreg_sample.graph
        coarse = compact(g, random_maximal_matching(g, rng=1)).coarse
        result = simulated_annealing(coarse, rng=11, schedule=FAST)
        assert result.bisection.is_balanced()

    def test_explicit_tolerance(self, weighted_graph):
        result = simulated_annealing(
            weighted_graph, rng=12, schedule=FAST, balance_tolerance=2
        )
        assert result.bisection.imbalance <= 2

    def test_negative_tolerance_rejected(self, two_cliques):
        with pytest.raises(ValueError, match="balance_tolerance"):
            simulated_annealing(two_cliques, rng=12, schedule=FAST, balance_tolerance=-1)


STREAM = AnnealingSchedule(size_factor=2, max_temperatures=20)


class _PlainLaggedFibonacci(LaggedFibonacciRandom):
    """Same stream, but not exactly the class: SA draws one value at a time."""


@pytest.fixture(scope="module")
def stream_graphs():
    from repro.core.compaction import compact
    from repro.core.matching import random_maximal_matching

    g = gbreg(400, b=8, d=3, rng=5).graph
    # 401 vertices, every degree 4: the imbalance is always odd, and a flip
    # at |diff| = 1 that leaves the cut alone has a cost delta of exactly 0.
    odd = Graph.from_edges(
        [(i, (i + 1) % 401) for i in range(401)] + [(i, (i + 37) % 401) for i in range(401)]
    )
    weights = random.Random(7)
    heavy = Graph.from_edges([(u, v, weights.randint(1, 50)) for u, v, _ in g.edges()])
    huge = Graph.from_edges([(u, v, weights.randint(1, 10**6)) for u, v, _ in g.edges()])
    return {
        "gbreg": g,
        "contracted": compact(g, random_maximal_matching(g, rng=6)).coarse,
        "odd": odd,
        "heavy": heavy,
        "huge": huge,
    }


class TestSAStreamOracle:
    """The block-buffered flip walk against the one-draw-at-a-time walk.

    Each walk crosses several 4096-value refills, so this pins the block
    recurrence, the refill bookkeeping and the generator state written
    back after the walk.
    """

    @staticmethod
    def _assert_same_walk(graph, seed, schedule=STREAM, cost=None):
        runs = []
        for rng in (LaggedFibonacciRandom(seed), _PlainLaggedFibonacci(seed)):
            result = simulated_annealing(graph, rng=rng, schedule=schedule, cost=cost)
            runs.append((result, rng))
        (fast, fast_rng), (slow, slow_rng) = runs
        assert fast.bisection.assignment() == slow.bisection.assignment()
        assert fast.moves_attempted == slow.moves_attempted
        assert fast.moves_accepted == slow.moves_accepted
        assert fast.temperature_trace == slow.temperature_trace
        assert fast.final_temperature == slow.final_temperature
        assert fast_rng.getstate() == slow_rng.getstate()
        assert [fast_rng.getrandbits(64) for _ in range(10)] == [
            slow_rng.getrandbits(64) for _ in range(10)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["gbreg", "contracted"])
    def test_buffered_walk_matches_scalar_draws(self, stream_graphs, kind, seed):
        self._assert_same_walk(stream_graphs[kind], seed)

    @pytest.mark.parametrize("seed", [44, 302])
    def test_walk_ending_early_in_a_block(self, stream_graphs, seed):
        # These seeds stop within the first 55 values of a later block, so
        # the restored ring mixes the previous block's tail with this one.
        self._assert_same_walk(stream_graphs["gbreg"], seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cutoff_breaks_early(self, stream_graphs, seed):
        # High temperatures accept nearly every move, so most of them stop
        # at the acceptance cutoff instead of running all their moves.
        schedule = AnnealingSchedule(size_factor=2, max_temperatures=20, cutoff_factor=0.05)
        self._assert_same_walk(stream_graphs["gbreg"], seed, schedule=schedule)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("alpha", [None, 0.0])
    def test_zero_delta_accepts_without_a_draw(self, stream_graphs, alpha, seed):
        cost = None if alpha is None else BalanceCost(alpha=alpha)
        self._assert_same_walk(stream_graphs["odd"], seed, cost=cost)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weighted_edges(self, stream_graphs, seed):
        self._assert_same_walk(stream_graphs["heavy"], seed)

    def test_edges_past_the_table_bound(self, stream_graphs):
        # Weighted degrees in the millions: the walk keeps the float-keyed
        # memo instead of allocating threshold tables that large.
        self._assert_same_walk(stream_graphs["huge"], 0)
