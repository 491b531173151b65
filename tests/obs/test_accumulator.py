"""Property/metamorphic suite for the streaming stats accumulator.

The study subsystem leans on three guarantees, each pinned here: the
table's moments match an exact two-pass computation, its quantiles match
sorted interpolation, and the final summary is invariant under
permutation of the input stream.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs import (
    StreamingStats,
    TailFit,
    best_of_k_extrapolation,
    fit_lower_tail,
)
from repro.rng import LaggedFibonacciRandom


def _integer_corpus(seed: int, count: int = 500) -> list[int]:
    """A seeded cut-size-like corpus: small non-negative integers."""
    rng = LaggedFibonacciRandom(seed)
    return [rng.randrange(120) for _ in range(count)]


def _two_pass_moments(values) -> tuple[float, float]:
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, variance


# -- table moments vs exact two-pass moments ---------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_moments_match_two_pass_on_integers(seed):
    values = _integer_corpus(seed)
    stats = StreamingStats()
    stats.add_many(values)
    mean, variance = _two_pass_moments(values)
    assert stats.mean == pytest.approx(mean, rel=1e-12)
    assert stats.variance == pytest.approx(variance, rel=1e-9)
    assert stats.std == pytest.approx(math.sqrt(variance), rel=1e-9)


def test_wide_support_stays_exact():
    # One entry per distinct value, however wide the support.
    values = list(range(5000))
    stats = StreamingStats()
    stats.add_many(values)
    assert stats.value_counts() == {v: 1 for v in values}
    mean, variance = _two_pass_moments(values)
    assert stats.mean == pytest.approx(mean)
    assert stats.variance == pytest.approx(variance)
    assert stats.quantile(0.5) == 2499.5
    assert stats.min == 0 and stats.max == 4999


def test_rejects_non_integer_values():
    stats = StreamingStats()
    for bad in (2.5, True, "3"):
        with pytest.raises(TypeError):
            stats.add(bad)
    assert stats.count == 0


# -- permutation invariance --------------------------------------------------------


def test_summary_is_permutation_invariant_on_exact_path():
    values = _integer_corpus(13, count=400)
    forward = StreamingStats()
    forward.add_many(values)
    shuffled = list(values)
    random.Random(99).shuffle(shuffled)
    other = StreamingStats()
    other.add_many(shuffled)
    assert other.summary() == forward.summary()
    assert other.quantile(0.5) == forward.quantile(0.5)


# -- quantile accuracy -------------------------------------------------------------


def test_exact_quantiles_match_sorted_interpolation():
    values = _integer_corpus(17, count=301)
    stats = StreamingStats()
    stats.add_many(values)
    ordered = sorted(values)
    for q in (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
        rank = q * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        expected = ordered[low] + (rank - low) * (ordered[high] - ordered[low])
        assert stats.quantile(q) == pytest.approx(expected)


# -- boundaries and validation -----------------------------------------------------


def test_empty_summary_and_quantile():
    stats = StreamingStats()
    assert stats.summary() == {"count": 0}
    assert stats.quantile(0.5) is None
    assert stats.mean is None
    assert stats.variance is None


def test_quantile_argument_validation():
    stats = StreamingStats()
    stats.add(1)
    with pytest.raises(ValueError):
        stats.quantile(1.5)
    with pytest.raises(ValueError):
        stats.quantile(-0.1)


# -- tail fit and best-of-k --------------------------------------------------------


def test_tail_fit_recovers_weibull_shape():
    # Draw from an exact Weibull(shape=2, scale=30, location=9) rounded to
    # integers; the probability-plot regression should land near shape 2.
    rng = LaggedFibonacciRandom(31)
    stats = StreamingStats()
    for _ in range(4000):
        stats.add(10 + int(30.0 * (-math.log1p(-rng.random())) ** 0.5))
    fit = fit_lower_tail(stats)
    assert fit is not None
    assert fit.location == stats.min - 1.0
    assert 1.3 <= fit.shape <= 2.7
    assert fit.r_squared > 0.9
    best = best_of_k_extrapolation(fit)
    # Deeper ensembles predict better (lower) best cuts, bounded below by
    # the location anchor.
    assert best["k=1000"] <= best["k=100"] <= best["k=10"]
    assert best["k=1000"] >= fit.location


def test_best_of_k_rejects_k_below_two():
    fit = TailFit(location=9.0, scale=30.0, shape=2.0, points=5, r_squared=0.99)
    for bad in (0, 1, -3):
        with pytest.raises(ValueError):
            best_of_k_extrapolation(fit, ks=(bad,))


def test_tail_fit_declines_degenerate_inputs():
    single = StreamingStats()
    single.add(4)
    assert fit_lower_tail(single) is None

    narrow = StreamingStats()
    narrow.add_many([5, 5, 5, 5])
    assert fit_lower_tail(narrow) is None
