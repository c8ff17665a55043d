"""Unit tests for activation schedules, hop messages and the analysis helpers."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.activation import AdaptiveActivation, ConstantActivation
from repro.core.analysis import (
    async_ring_message_lower_bound,
    combined_idle_probability,
    expected_ticks_until_first_activation,
    itai_rodeh_expected_messages,
    linear_reference,
    nlogn_reference,
    recommended_a0,
    ring_pressure_per_tick,
    wakeup_pressure,
)
from repro.core.messages import HopMessage


class TestAdaptiveActivation:
    def test_matches_paper_formula(self):
        schedule = AdaptiveActivation(0.3)
        for d in (1, 2, 5, 10):
            assert schedule.probability(d) == pytest.approx(1.0 - 0.7**d)

    def test_monotone_in_d(self):
        schedule = AdaptiveActivation(0.1)
        probabilities = [schedule.probability(d) for d in range(1, 20)]
        assert all(b > a for a, b in zip(probabilities, probabilities[1:]))

    def test_d_equals_one_gives_a0(self):
        schedule = AdaptiveActivation(0.42)
        assert schedule.probability(1) == pytest.approx(0.42)

    def test_probability_stays_in_unit_interval(self):
        schedule = AdaptiveActivation(0.9)
        for d in (1, 10, 1000):
            # Mathematically < 1; floating point may round up to exactly 1.0
            # for huge d, which is still a valid probability.
            assert 0.0 < schedule.probability(d) <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            AdaptiveActivation(0.0)
        with pytest.raises(ValueError):
            AdaptiveActivation(1.0)
        with pytest.raises(ValueError):
            AdaptiveActivation(0.5).probability(0)


class TestConstantActivation:
    def test_ignores_d(self):
        schedule = ConstantActivation(0.2)
        assert schedule.probability(1) == schedule.probability(100) == 0.2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ConstantActivation(-0.1)
        with pytest.raises(ValueError):
            ConstantActivation(0.5).probability(0)


class TestHopMessage:
    def test_hop_must_be_positive(self):
        with pytest.raises(ValueError):
            HopMessage(hop=0)

    def test_forwarding_preserves_token_identity(self):
        original = HopMessage(hop=1)
        forwarded = original.forwarded(new_hop=2, knocked_out_idle=False)
        assert forwarded.token_id == original.token_id
        assert forwarded.hop == 2

    def test_knockout_flag_is_sticky(self):
        original = HopMessage(hop=1)
        knocked = original.forwarded(2, knocked_out_idle=True)
        later = knocked.forwarded(3, knocked_out_idle=False)
        assert knocked.knockout
        assert later.knockout

    def test_distinct_messages_get_distinct_tokens(self):
        assert HopMessage(hop=1).token_id != HopMessage(hop=1).token_id

    def test_messages_are_immutable(self):
        # A tracer, test or retransmission wrapper may hold a delivered
        # message indefinitely; nothing may change it under them.
        message = HopMessage(hop=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.hop = 3
        assert hash(message) == hash(HopMessage(hop=2, token_id=message.token_id))

    def test_repr_shows_hop_and_knockout(self):
        message = HopMessage(hop=3).forwarded(4, knocked_out_idle=True)
        assert "hop=4" in repr(message)
        assert "*" in repr(message)


class TestWakeupPressure:
    def test_combined_idle_probability_formula(self):
        # (1 - a0)^(sum of d)
        assert combined_idle_probability(0.5, [1, 1]) == pytest.approx(0.25)
        assert combined_idle_probability(0.5, [2]) == pytest.approx(0.25)

    def test_pressure_constant_when_d_sum_constant(self):
        # The paper's constant-pressure argument: knocking out an idle node
        # (removing d=1) while the next survivor's d grows by 1 leaves the
        # ring-wide pressure unchanged.
        before = wakeup_pressure(0.1, [1, 1, 1, 1])
        after = wakeup_pressure(0.1, [2, 1, 1])
        assert before == pytest.approx(after)

    def test_expected_ticks_until_first_activation(self):
        # With n=1 and a0=0.5 the waiting time is geometric with mean 2.
        assert expected_ticks_until_first_activation(0.5, 1) == pytest.approx(2.0)
        # Larger rings activate sooner.
        assert expected_ticks_until_first_activation(
            0.01, 100
        ) < expected_ticks_until_first_activation(0.01, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            combined_idle_probability(1.5, [1])
        with pytest.raises(ValueError):
            combined_idle_probability(0.5, [0])
        with pytest.raises(ValueError):
            wakeup_pressure(0.5, [0])
        with pytest.raises(ValueError):
            expected_ticks_until_first_activation(0.5, 0)


class TestRecommendedA0:
    def test_scales_roughly_like_inverse_n_squared(self):
        a0_small = recommended_a0(8)
        a0_large = recommended_a0(64)
        ratio = a0_small / a0_large
        assert 40 < ratio < 90  # (64/8)^2 = 64, allow slack for the exact formula

    def test_ring_pressure_matches_target(self):
        for n in (8, 32, 128):
            a0 = recommended_a0(n, activations_per_traversal=1.0)
            pressure = ring_pressure_per_tick(a0, n)
            assert pressure == pytest.approx(1.0 / n, rel=1e-6)

    def test_higher_target_gives_higher_a0(self):
        assert recommended_a0(32, 2.0) > recommended_a0(32, 1.0)

    def test_result_in_unit_interval(self):
        for n in (2, 10, 1000):
            assert 0.0 < recommended_a0(n) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            recommended_a0(1)
        with pytest.raises(ValueError):
            recommended_a0(10, activations_per_traversal=0.0)
        with pytest.raises(ValueError):
            ring_pressure_per_tick(0.5, 0)
        with pytest.raises(ValueError):
            ring_pressure_per_tick(1.5, 4)


class TestReferenceCurves:
    def test_nlogn_lower_bound_curve(self):
        assert async_ring_message_lower_bound(8) == pytest.approx(24.0)
        assert itai_rodeh_expected_messages(8) == pytest.approx(24.0)
        with pytest.raises(ValueError):
            async_ring_message_lower_bound(1)

    def test_linear_reference_through_anchor(self):
        curve = linear_reference([2, 4, 8], anchor_n=4, anchor_value=10.0)
        assert curve == pytest.approx([5.0, 10.0, 20.0])

    def test_nlogn_reference_through_anchor(self):
        curve = nlogn_reference([4, 8], anchor_n=4, anchor_value=8.0)
        assert curve[0] == pytest.approx(8.0)
        assert curve[1] == pytest.approx(8.0 * (8 * 3) / (4 * 2))

    def test_reference_validation(self):
        with pytest.raises(ValueError):
            linear_reference([2], anchor_n=0, anchor_value=1.0)
        with pytest.raises(ValueError):
            nlogn_reference([2], anchor_n=1, anchor_value=1.0)
