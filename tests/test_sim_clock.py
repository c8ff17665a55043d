"""Unit tests for local clocks and drift models (Definition 1(2))."""

from __future__ import annotations

import random

import pytest

from repro.sim.clock import (
    ClockBoundsViolation,
    ConstantRateDrift,
    LocalClock,
    RandomWalkDrift,
    SinusoidalDrift,
)


class TestPerfectClock:
    def test_identity_when_rate_is_one(self):
        clock = LocalClock()
        assert clock.local_time(0.0) == pytest.approx(0.0)
        assert clock.local_time(12.5) == pytest.approx(12.5)

    def test_elapsed_local_matches_real_elapsed(self):
        clock = LocalClock()
        assert clock.elapsed_local(3.0, 8.0) == pytest.approx(5.0)

    def test_inverse_map_round_trips(self):
        clock = LocalClock()
        for real in (0.0, 1.7, 42.25):
            assert clock.real_time_for_local(clock.local_time(real)) == pytest.approx(real)


class TestConstantRate:
    def test_fast_clock_advances_faster(self):
        clock = LocalClock(s_low=2.0, s_high=2.0, drift_model=ConstantRateDrift(2.0))
        assert clock.local_time(10.0) == pytest.approx(20.0)

    def test_slow_clock_advances_slower(self):
        clock = LocalClock(s_low=0.5, s_high=0.5, drift_model=ConstantRateDrift(0.5))
        assert clock.local_time(10.0) == pytest.approx(5.0)

    def test_real_duration_for_local_inverts_rate(self):
        clock = LocalClock(s_low=2.0, s_high=2.0, drift_model=ConstantRateDrift(2.0))
        assert clock.real_duration_for_local(0.0, 4.0) == pytest.approx(2.0)

    def test_default_rate_is_midpoint_when_one_not_admissible(self):
        clock = LocalClock(s_low=2.0, s_high=4.0)
        # Rate must lie within the bounds even without an explicit drift model.
        elapsed = clock.elapsed_local(0.0, 1.0)
        assert 2.0 <= elapsed <= 4.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantRateDrift(0.0)


class TestBounds:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LocalClock(s_low=0.0, s_high=1.0)
        with pytest.raises(ValueError):
            LocalClock(s_low=2.0, s_high=1.0)

    def test_rates_are_clamped_into_bounds(self):
        # The drift model tries to escape the bounds; the clock must clamp.
        clock = LocalClock(
            s_low=0.8,
            s_high=1.2,
            drift_model=RandomWalkDrift(initial_rate=1.0, step=5.0),
            rng=random.Random(3),
        )
        clock.verify_bounds(0.0, 200.0)
        for start in range(0, 200, 7):
            clock.verify_bounds(float(start), float(start + 7))

    def test_verify_bounds_raises_outside(self):
        clock = LocalClock(s_low=1.0, s_high=2.0, drift_model=ConstantRateDrift(2.0))
        # Materialise the rate-2 segments first, then tighten the declared
        # bounds: the already-generated behaviour now violates them.
        clock.local_time(10.0)
        clock.s_high = 1.5
        with pytest.raises(ClockBoundsViolation):
            clock.verify_bounds(0.0, 10.0)

    def test_rate_bounds_accessor(self):
        clock = LocalClock(s_low=0.5, s_high=1.5)
        assert clock.rate_bounds() == (0.5, 1.5)

    def test_reading_before_start_rejected(self):
        clock = LocalClock(start_real=5.0)
        with pytest.raises(ValueError):
            clock.local_time(4.0)


class TestDriftingClocks:
    def test_random_walk_stays_within_bounds_over_long_horizon(self):
        clock = LocalClock(
            s_low=0.5,
            s_high=2.0,
            drift_model=RandomWalkDrift(initial_rate=1.0, step=0.2),
            rng=random.Random(11),
        )
        clock.verify_bounds(0.0, 500.0)

    def test_sinusoidal_drift_oscillates(self):
        model = SinusoidalDrift(mean_rate=1.0, amplitude=0.5, period=10.0)
        rng = random.Random(0)
        rates = [model.next_rate(i, rng) for i in range(10)]
        assert max(rates) > 1.2
        assert min(rates) < 0.8

    def test_monotonicity_of_local_time(self):
        clock = LocalClock(
            s_low=0.25,
            s_high=2.0,
            drift_model=RandomWalkDrift(initial_rate=1.0, step=0.3),
            rng=random.Random(5),
        )
        readings = [clock.local_time(t / 4.0) for t in range(0, 400)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

    def test_inverse_map_on_drifting_clock(self):
        clock = LocalClock(
            s_low=0.5,
            s_high=2.0,
            drift_model=RandomWalkDrift(initial_rate=1.2, step=0.1),
            rng=random.Random(9),
        )
        for real in (0.3, 7.9, 55.2, 123.0):
            local = clock.local_time(real)
            assert clock.real_time_for_local(local) == pytest.approx(real, abs=1e-6)

    def test_real_duration_for_local_is_positive(self):
        clock = LocalClock(
            s_low=0.5,
            s_high=2.0,
            drift_model=RandomWalkDrift(initial_rate=1.0, step=0.2),
            rng=random.Random(2),
        )
        for start in (0.0, 3.7, 19.2):
            assert clock.real_duration_for_local(start, 1.0) > 0.0

    def test_clock_without_a_stream_draws_from_random_zero(self):
        def walk(rng):
            clock = LocalClock(
                s_low=0.5,
                s_high=2.0,
                drift_model=RandomWalkDrift(initial_rate=1.0, step=0.2),
                rng=rng,
            )
            return [clock.local_time(t / 2.0) for t in range(60)]

        assert walk(None) == walk(random.Random(0))

    def test_drift_model_validation(self):
        with pytest.raises(ValueError):
            RandomWalkDrift(initial_rate=-1.0)
        with pytest.raises(ValueError):
            RandomWalkDrift(initial_rate=1.0, step=-0.1)
        with pytest.raises(ValueError):
            SinusoidalDrift(mean_rate=0.0)
        with pytest.raises(ValueError):
            SinusoidalDrift(mean_rate=1.0, amplitude=-1.0)
        with pytest.raises(ValueError):
            SinusoidalDrift(mean_rate=1.0, period=0.0)


class TestLazyReach:
    """``LocalClock.reach``: exact once mapped, a wake-up instant before."""

    def _drifting(self):
        return LocalClock(
            s_low=0.5,
            s_high=2.0,
            drift_model=RandomWalkDrift(initial_rate=1.25, step=0.15),
            rng=random.Random(5),
        )

    def test_identity_clock_answers_exactly_at_once(self):
        clock = LocalClock()
        assert clock.reach(3.5, 1000.0) == (1000.0, True)
        assert clock._segments == []  # the identity map never builds segments

    def test_far_target_wakes_without_mapping_ahead(self):
        clock = self._drifting()
        instant, exact = clock.reach(0.0, 500.0)
        assert not exact
        # The earliest the reading can be reached, and no further map than
        # one segment past now.
        assert instant == pytest.approx(500.0 / 2.0)
        assert len(clock._segments) == 1

    def test_wake_up_is_strictly_later_and_converges_to_the_exact_instant(self):
        clock = self._drifting()
        reference = self._drifting()
        target = 40.0
        now, wakes = 0.0, 0
        while True:
            instant, exact = clock.reach(now, target)
            if exact:
                break
            assert instant > now
            assert clock._segments[-1].real_end <= now + 1.0 + 1e-9
            now, wakes = instant, wakes + 1
        assert instant == pytest.approx(reference.real_time_for_local(target))
        assert 0 < wakes < 40

    def test_mapped_target_is_exact(self):
        clock = self._drifting()
        clock.local_time(10.0)  # the map now covers [0, 10]
        target = clock.local_time(7.25)
        instant, exact = clock.reach(2.0, target)
        assert exact and instant == pytest.approx(7.25)
