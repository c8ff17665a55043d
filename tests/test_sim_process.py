"""Unit tests for clock-tick processes."""

from __future__ import annotations

import random

import pytest

from repro.sim.clock import ConstantRateDrift, LocalClock, RandomWalkDrift
from repro.sim.engine import Simulator
from repro.sim.process import TickProcess


class TestTickProcess:
    def test_unit_rate_clock_ticks_every_unit(self):
        sim = Simulator()
        clock = LocalClock()
        times = []
        TickProcess(sim, clock, lambda i: times.append(sim.now))
        sim.run(until=5.5)
        assert times == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_fast_clock_ticks_more_often(self):
        sim = Simulator()
        clock = LocalClock(s_low=2.0, s_high=2.0, drift_model=ConstantRateDrift(2.0))
        times = []
        TickProcess(sim, clock, lambda i: times.append(sim.now))
        sim.run(until=3.25)
        # Rate 2 => a local tick every 0.5 real time units.
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    def test_tick_count_respects_clock_rate_bounds(self):
        sim = Simulator()
        clock = LocalClock(
            s_low=0.5,
            s_high=2.0,
            drift_model=RandomWalkDrift(initial_rate=1.0, step=0.3),
            rng=random.Random(7),
        )
        process = TickProcess(sim, clock, lambda i: None)
        horizon = 100.0
        sim.run(until=horizon)
        # Between s_low * t and s_high * t local ticks can fit into real time t.
        assert 0.5 * horizon - 2 <= process.ticks <= 2.0 * horizon + 2

    def test_callback_false_stops_ticking(self):
        sim = Simulator()
        clock = LocalClock()
        seen = []

        def callback(count: int):
            seen.append(count)
            return False

        process = TickProcess(sim, clock, callback)
        sim.run(until=10.0)
        assert seen == [0]
        assert process.stopped

    def test_stop_cancels_pending_tick(self):
        sim = Simulator()
        clock = LocalClock()
        seen = []
        process = TickProcess(sim, clock, lambda i: seen.append(i))
        sim.run(until=2.5)
        process.stop()
        sim.run(until=10.0)
        assert seen == [0, 1]

    def test_ticks_counts_delivered_ticks(self):
        sim = Simulator()
        process = TickProcess(sim, LocalClock(), lambda i: None)
        sim.run(until=4.5)
        assert process.ticks == 4
        process.stop()
        sim.run(until=10.0)
        assert process.ticks == 4

    def test_stop_inside_the_callback_arms_no_further_tick(self):
        sim = Simulator()
        seen = []

        def callback(count: int):
            seen.append(count)
            if count == 2:
                process.stop()

        process = TickProcess(sim, LocalClock(), callback)
        sim.run()  # terminates: the stopped process leaves nothing queued
        assert seen == [0, 1, 2]
        assert process.stopped and process.ticks == 3
        assert sim.pending == 0

    def test_ticking_resumes_across_run_horizons(self):
        sim = Simulator()
        times = []
        TickProcess(sim, LocalClock(), lambda i: times.append(sim.now))
        for horizon in (1.5, 2.5, 4.5):
            sim.run(until=horizon)
        assert times == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_custom_local_period(self):
        sim = Simulator()
        clock = LocalClock()
        times = []
        TickProcess(sim, clock, lambda i: times.append(sim.now), local_period=2.5)
        sim.run(until=8.0)
        assert times == pytest.approx([2.5, 5.0, 7.5])

    def test_invalid_period_rejected(self):
        sim = Simulator()
        clock = LocalClock()
        with pytest.raises(ValueError):
            TickProcess(sim, clock, lambda i: None, local_period=0.0)
