"""Unit tests for the imbalance-penalized annealing cost."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.annealing.cost import BalanceCost


class TestTotal:
    def test_balanced_state_is_pure_cut(self):
        cost = BalanceCost(alpha=0.05)
        assert cost.total(cut=10, weight_diff=0) == 10

    def test_imbalance_penalty_quadratic(self):
        cost = BalanceCost(alpha=0.5)
        assert cost.total(cut=0, weight_diff=4) == pytest.approx(8.0)
        assert cost.total(cut=0, weight_diff=-4) == pytest.approx(8.0)

    def test_alpha_scales_penalty(self):
        low = BalanceCost(alpha=0.01).total(0, 10)
        high = BalanceCost(alpha=1.0).total(0, 10)
        assert high == pytest.approx(100 * low)


class TestMoveDelta:
    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=-4, max_value=4).filter(lambda w: w != 0),
        st.floats(min_value=0.001, max_value=2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_delta_consistent_with_totals(self, cut_delta, diff, move_weight, alpha):
        cost = BalanceCost(alpha=alpha)
        cut = 50
        before = cost.total(cut, diff)
        after = cost.total(cut + cut_delta, diff - 2 * move_weight)
        assert cost.move_delta(cut_delta, diff, move_weight) == pytest.approx(
            after - before
        )

    def test_balancing_move_is_downhill(self):
        cost = BalanceCost(alpha=1.0)
        # Moving weight 1 off the heavy side (diff 4 -> 2) with no cut change.
        assert cost.move_delta(0, 4, 1) < 0

    def test_unbalancing_move_is_uphill(self):
        cost = BalanceCost(alpha=1.0)
        assert cost.move_delta(0, 0, 1) > 0


class TestValidation:
    def test_zero_alpha_allowed(self):
        assert BalanceCost(alpha=0.0).total(3, 10) == 3

    @pytest.mark.parametrize("alpha", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            BalanceCost(alpha=alpha)
