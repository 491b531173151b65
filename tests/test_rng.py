"""Unit tests for the lagged Fibonacci RNG substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import BLOCK, LaggedFibonacciRandom, resolve_rng, spawn


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = LaggedFibonacciRandom(42)
        b = LaggedFibonacciRandom(42)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = LaggedFibonacciRandom(1)
        b = LaggedFibonacciRandom(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_reseed_restarts(self):
        rng = LaggedFibonacciRandom(7)
        first = [rng.random() for _ in range(5)]
        rng.seed(7)
        assert [rng.random() for _ in range(5)] == first

    def test_none_seed_is_zero(self):
        assert LaggedFibonacciRandom().random() == LaggedFibonacciRandom(0).random()

    def test_string_seed_accepted(self):
        rng = LaggedFibonacciRandom()
        rng.seed("hello")
        assert 0.0 <= rng.random() < 1.0


class TestDistribution:
    def test_range(self):
        rng = LaggedFibonacciRandom(3)
        values = [rng.random() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_mean_near_half(self):
        rng = LaggedFibonacciRandom(4)
        values = [rng.random() for _ in range(5000)]
        assert abs(sum(values) / len(values) - 0.5) < 0.02

    def test_getrandbits(self):
        rng = LaggedFibonacciRandom(5)
        for k in (1, 8, 64, 100, 200):
            value = rng.getrandbits(k)
            assert 0 <= value < 2**k

    def test_getrandbits_invalid(self):
        with pytest.raises(ValueError):
            LaggedFibonacciRandom(1).getrandbits(0)

    def test_randrange_uniformish(self):
        rng = LaggedFibonacciRandom(6)
        counts = [0] * 10
        for _ in range(10000):
            counts[rng.randrange(10)] += 1
        assert all(800 < c < 1200 for c in counts)

    def test_shuffle_and_sample_work(self):
        rng = LaggedFibonacciRandom(7)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert len(rng.sample(items, 5)) == 5

    def test_no_short_period(self):
        # Lag-55 additive generators have astronomically long periods; at
        # minimum the first few thousand outputs must not repeat a window.
        rng = LaggedFibonacciRandom(8)
        values = [rng.random() for _ in range(3000)]
        assert len(set(values)) > 2990


class TestShuffleStream:
    """``shuffle`` draws exactly what ``random.Random.shuffle`` draws.

    The base method, called explicitly, is the oracle: it runs the
    textbook Fisher-Yates loop over this generator's ``_randbelow``.
    """

    @pytest.mark.parametrize("length", (0, 1, 2, 3, 100, 7500))
    def test_same_permutation_and_state_as_base_method(self, length):
        for seed in range(30):
            ours = LaggedFibonacciRandom(seed)
            base = LaggedFibonacciRandom(seed)
            items = list(range(length))
            expected = list(range(length))
            ours.shuffle(items)
            random.Random.shuffle(base, expected)
            assert items == expected
            assert ours.getstate() == base.getstate()
            assert ours.random() == base.random()

    def test_repeated_shuffles_stay_in_step(self):
        ours = LaggedFibonacciRandom(3)
        base = LaggedFibonacciRandom(3)
        items = list(range(57))
        expected = list(range(57))
        for _ in range(20):
            ours.shuffle(items)
            random.Random.shuffle(base, expected)
        assert items == expected
        assert ours.getstate() == base.getstate()

    @pytest.mark.parametrize("offset", (-1, 0, 1, BLOCK + 1))
    def test_lengths_around_the_block_size(self, offset):
        # The shuffle draws from blocks of at most BLOCK values, about 1.4
        # per element: these lengths span two, three or four blocks.
        length = BLOCK + offset
        for seed in range(6):
            ours = LaggedFibonacciRandom(seed)
            base = LaggedFibonacciRandom(seed)
            items = list(range(length))
            expected = list(range(length))
            ours.shuffle(items)
            random.Random.shuffle(base, expected)
            assert items == expected
            assert ours.getstate() == base.getstate()
            for draw in (lambda r: r.random(), lambda r: r.randrange(1000)):
                assert [draw(ours) for _ in range(100)] == [draw(base) for _ in range(100)]

    def test_a_failing_swap_leaves_the_base_methods_state(self):
        ours = LaggedFibonacciRandom(8)
        base = LaggedFibonacciRandom(8)
        with pytest.raises(TypeError):
            ours.shuffle((1, 2, 3))
        with pytest.raises(TypeError):
            random.Random.shuffle(base, (1, 2, 3))
        assert ours.getstate() == base.getstate()


class TestStatePersistence:
    def test_getstate_setstate_roundtrip(self):
        rng = LaggedFibonacciRandom(9)
        [rng.random() for _ in range(37)]
        state = rng.getstate()
        expected = [rng.random() for _ in range(10)]
        rng.setstate(state)
        assert [rng.random() for _ in range(10)] == expected

    def test_setstate_rejects_garbage(self):
        rng = LaggedFibonacciRandom(1)
        with pytest.raises(ValueError):
            rng.setstate(("wrong", (), 0))


class TestResolveRng:
    def test_none_gives_default(self):
        assert resolve_rng(None).random() == LaggedFibonacciRandom(0).random()

    def test_int_gives_seeded(self):
        assert resolve_rng(5).random() == LaggedFibonacciRandom(5).random()

    def test_instance_passes_through(self):
        rng = LaggedFibonacciRandom(1)
        assert resolve_rng(rng) is rng

    def test_stdlib_random_accepted(self):
        import random

        rng = random.Random(1)
        assert resolve_rng(rng) is rng

    def test_invalid_rejected(self):
        with pytest.raises(TypeError):
            resolve_rng("x")


class TestSpawn:
    def test_children_independent_of_parent_consumption(self):
        parent1 = LaggedFibonacciRandom(1)
        child_a = spawn(parent1, 0)
        parent2 = LaggedFibonacciRandom(1)
        child_b = spawn(parent2, 0)
        assert child_a.random() == child_b.random()

    def test_salts_differ(self):
        parent = LaggedFibonacciRandom(1)
        a = spawn(parent, 0)
        parent2 = LaggedFibonacciRandom(1)
        b = spawn(parent2, 1)
        assert a.random() != b.random()

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_spawn_always_valid(self, seed, salt):
        child = spawn(LaggedFibonacciRandom(seed), salt)
        assert 0.0 <= child.random() < 1.0
