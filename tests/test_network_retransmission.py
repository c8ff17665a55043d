"""Unit tests for the lossy-channel retransmission model (Section 1, case iii)."""

from __future__ import annotations

import random

import pytest

from repro.network.retransmission import (
    GeometricRetransmissionDelay,
    LossyChannelModel,
    expected_delay,
    expected_transmissions,
    tail_probability,
)


class TestClosedForms:
    def test_expected_transmissions_is_one_over_p(self):
        assert expected_transmissions(0.5) == pytest.approx(2.0)
        assert expected_transmissions(0.1) == pytest.approx(10.0)
        assert expected_transmissions(1.0) == pytest.approx(1.0)

    def test_expected_delay_scales_with_transmission_time(self):
        assert expected_delay(0.5, transmission_time=2.0) == pytest.approx(4.0)

    def test_tail_probability_formula(self):
        assert tail_probability(0.5, 0) == pytest.approx(1.0)
        assert tail_probability(0.5, 3) == pytest.approx(0.125)
        # The paper's unboundedness argument: the tail never reaches zero.
        assert all(tail_probability(0.3, k) > 0 for k in range(0, 50, 5))

    def test_probability_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                expected_transmissions(bad)
        with pytest.raises(ValueError):
            expected_delay(0.5, transmission_time=0.0)
        with pytest.raises(ValueError):
            tail_probability(0.5, -1)


class TestGeometricRetransmissionDelay:
    def test_mean_matches_one_over_p(self):
        dist = GeometricRetransmissionDelay(0.25, transmission_time=1.0)
        assert dist.mean() == pytest.approx(4.0)

    def test_unbounded_but_finite_mean(self):
        dist = GeometricRetransmissionDelay(0.5)
        assert dist.bound() is None
        assert dist.has_finite_mean()

    def test_samples_are_positive_multiples_of_transmission_time(self, rng):
        dist = GeometricRetransmissionDelay(0.4, transmission_time=0.5)
        for value in dist.sample_many(rng, 2000):
            assert value >= 0.5
            assert (value / 0.5) == pytest.approx(round(value / 0.5))

    def test_empirical_mean_matches_theory(self, rng):
        for p in (0.2, 0.5, 0.8):
            dist = GeometricRetransmissionDelay(p)
            empirical = sum(dist.sample_many(rng, 20_000)) / 20_000
            assert empirical == pytest.approx(1.0 / p, rel=0.05)

    def test_certain_success_always_one_transmission(self, rng):
        dist = GeometricRetransmissionDelay(1.0)
        assert all(dist.sample_transmissions(rng) == 1 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricRetransmissionDelay(0.0)
        with pytest.raises(ValueError):
            GeometricRetransmissionDelay(0.5, transmission_time=0.0)


class TestLossyChannelModel:
    def test_attempts_end_with_success(self, rng):
        channel = LossyChannelModel(0.3)
        attempts = channel.transmit(rng)
        assert attempts[-1].success
        assert all(not a.success for a in attempts[:-1])

    def test_attempt_timing_is_contiguous(self, rng):
        channel = LossyChannelModel(0.5, transmission_time=2.0)
        attempts = channel.transmit(rng, start_time=10.0)
        assert attempts[0].start_time == 10.0
        for previous, current in zip(attempts, attempts[1:]):
            assert current.start_time == pytest.approx(previous.end_time)
        assert all(a.end_time - a.start_time == pytest.approx(2.0) for a in attempts)

    def test_observed_mean_matches_one_over_p(self, rng):
        channel = LossyChannelModel(0.25)
        for _ in range(20_000):
            channel.transmit(rng)
        assert channel.observed_mean_attempts() == pytest.approx(4.0, rel=0.05)
        assert channel.theoretical_mean_attempts() == pytest.approx(4.0)

    def test_mechanistic_model_agrees_with_closed_form_distribution(self):
        channel = LossyChannelModel(0.5, transmission_time=1.0)
        dist = channel.as_delay_distribution()
        rng_a, rng_b = random.Random(3), random.Random(3)
        mech = [channel.delivery_delay(rng_a) for _ in range(5000)]
        closed = dist.sample_many(rng_b, 5000)
        mech_mean = sum(mech) / len(mech)
        closed_mean = sum(closed) / len(closed)
        assert mech_mean == pytest.approx(closed_mean, rel=0.1)

    def test_max_attempts_cap(self, rng):
        channel = LossyChannelModel(0.001, max_attempts=5)
        attempts = channel.transmit(rng)
        assert len(attempts) <= 5

    def test_observed_mean_before_any_message_is_zero(self):
        channel = LossyChannelModel(0.5)
        assert channel.observed_mean_attempts() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossyChannelModel(1.5)
        with pytest.raises(ValueError):
            LossyChannelModel(0.5, transmission_time=-1.0)
        with pytest.raises(ValueError):
            LossyChannelModel(0.5, max_attempts=0)


class TestRetransmissionDuplication:
    """A retransmission layer that duplicates an envelope (the same logical
    message delivered more than once, e.g. after a lost ACK) holds the
    envelope and its payload beyond the first delivery.  Nothing in the run
    may change them under it."""

    def test_duplicated_envelopes_keep_their_payload(self):
        from repro.core.messages import HopMessage
        from repro.core.runner import build_election_network, run_election_on_network

        network, status = build_election_network(
            8,
            a0=0.3,
            seed=3,
            delay=GeometricRetransmissionDelay(0.5, transmission_time=1.0),
        )
        duplicates = []

        # Remember every envelope sent on one channel, exactly like a sender
        # that may have to resend; the copy outlives the delivery.
        channel = network.channels[0]
        original_transmit = channel.transmit

        def duplicating_transmit(payload):
            envelope = original_transmit(payload)
            duplicates.append(
                (envelope, envelope.payload, envelope.payload.hop,
                 envelope.payload.token_id, envelope.payload.knockout)
            )
            return envelope

        channel.transmit = duplicating_transmit
        result = run_election_on_network(network, status)
        assert result.elected

        assert duplicates, "the wrapped channel never transmitted"
        for envelope, payload, hop, token_id, knockout in duplicates:
            assert isinstance(payload, HopMessage)
            assert envelope.payload is payload
            assert (payload.hop, payload.token_id, payload.knockout) == (
                hop, token_id, knockout
            )
