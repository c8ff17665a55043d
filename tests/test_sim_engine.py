"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventKind


class TestScheduling:
    def test_events_fire_in_time_order(self, simulator):
        fired = []
        simulator.schedule(3.0, lambda: fired.append("c"))
        simulator.schedule(1.0, lambda: fired.append("a"))
        simulator.schedule(2.0, lambda: fired.append("b"))
        simulator.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, simulator):
        fired = []
        for label in "abcde":
            simulator.schedule(1.0, lambda l=label: fired.append(l))
        simulator.run()
        assert fired == list("abcde")

    def test_priority_breaks_ties_before_sequence(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append("low"), priority=1)
        simulator.schedule(1.0, lambda: fired.append("high"), priority=0)
        simulator.run()
        assert fired == ["high", "low"]

    def test_clock_advances_to_event_times(self, simulator):
        times = []
        simulator.schedule(2.5, lambda: times.append(simulator.now))
        simulator.schedule(7.25, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [2.5, 7.25]
        assert simulator.now == 7.25

    def test_schedule_at_absolute_time(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        handle = simulator.schedule_at(5.0, lambda: None)
        assert handle.time == 5.0

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-0.1, lambda: None)

    def test_nan_and_inf_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule(float("-inf"), lambda: None)

    def test_nan_absolute_time_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_at(float("nan"), lambda: None)

    def test_scheduling_into_the_past_rejected(self, simulator):
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(1.0, lambda: None)

    def test_rejected_schedule_leaves_simulator_untouched(self, simulator):
        fired = []
        with pytest.raises(SimulationError):
            simulator.schedule(float("nan"), lambda: fired.append("x"))
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: fired.append("x"))
        assert simulator.pending == 0
        assert simulator.events_scheduled == 0
        # The sequence counter was not burned: later ties keep call order.
        a = simulator.schedule(1.0, lambda: fired.append("a"))
        b = simulator.schedule(1.0, lambda: fired.append("b"))
        simulator.run()
        assert fired == ["a", "b"]
        assert a.time == b.time

    def test_schedule_and_schedule_at_share_one_order(self, simulator):
        """Relative and absolute scheduling draw from one sequence counter,
        so equal-time entries fire in call order whichever spelling made
        them, and both count as scheduled."""
        fired = []
        simulator.schedule(1.0, lambda: fired.append("relative-1"))
        simulator.schedule_at(1.0, lambda: fired.append("absolute-1"))
        simulator.schedule(1.0, lambda: fired.append("relative-2"))
        simulator.schedule_at(0.5, lambda: fired.append("early"))
        assert simulator.events_scheduled == 4
        simulator.run()
        assert fired == ["early", "relative-1", "absolute-1", "relative-2"]

    def test_events_scheduled_during_run_are_executed(self, simulator):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                simulator.schedule(1.0, lambda: chain(depth + 1))

        simulator.schedule(0.0, lambda: chain(0))
        simulator.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert simulator.now == 5.0


class TestRunControl:
    def test_run_until_horizon_stops_early(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(10))
        stop_time = simulator.run(until=5.0)
        assert fired == [1]
        assert stop_time == 5.0
        assert simulator.pending == 1

    def test_run_until_can_be_resumed(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(10))
        simulator.run(until=5.0)
        simulator.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_queue_empties(self, simulator):
        simulator.schedule(1.0, lambda: None)
        end = simulator.run(until=100.0)
        assert end == 100.0
        assert simulator.now == 100.0

    def test_max_events_cap(self, simulator):
        fired = []
        for index in range(10):
            simulator.schedule(float(index), lambda i=index: fired.append(i))
        simulator.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_stop_requested_from_callback(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(2.0, lambda: (fired.append(2), simulator.stop()))
        simulator.schedule(3.0, lambda: fired.append(3))
        simulator.run()
        assert fired == [1, 2]

    def test_step_returns_false_on_empty_queue(self, simulator):
        assert simulator.step() is False

    def test_clear_drops_pending_events(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.clear()
        assert simulator.pending == 0
        simulator.run()
        assert simulator.events_processed == 0


class TestCancellationAndListeners:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("x"))
        assert handle.cancel() is True
        simulator.run()
        assert fired == []
        assert handle.cancelled

    def test_double_cancel_reports_false(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_cancelled_events_do_not_count_as_processed(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        handle.cancel()
        simulator.run()
        assert simulator.events_processed == 1

    def test_listener_sees_every_fired_event(self, simulator):
        seen = []
        simulator.add_listener(lambda event: seen.append(event.kind))
        simulator.schedule(1.0, lambda: None, kind=EventKind.TIMER)
        simulator.schedule(2.0, lambda: None, kind=EventKind.MESSAGE_DELIVERY)
        simulator.run()
        assert seen == [EventKind.TIMER, EventKind.MESSAGE_DELIVERY]

    def test_listener_can_be_removed(self, simulator):
        seen = []
        listener = lambda event: seen.append(event)  # noqa: E731 - test brevity
        simulator.add_listener(listener)
        simulator.remove_listener(listener)
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert seen == []

    def test_counters_track_scheduled_and_processed(self, simulator):
        for index in range(5):
            simulator.schedule(float(index), lambda: None)
        simulator.run()
        assert simulator.events_scheduled == 5
        assert simulator.events_processed == 5

    def test_cancel_after_firing_reports_false(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert handle.fired
        assert handle.cancel() is False
        assert not handle.cancelled

    def test_cancelled_head_run_is_drained_under_horizon(self, simulator):
        fired = []
        handles = [simulator.schedule(1.0, lambda: fired.append("x")) for _ in range(3)]
        simulator.schedule(2.0, lambda: fired.append("live"))
        for handle in handles:
            handle.cancel()
        simulator.run(until=5.0)
        assert fired == ["live"]
        assert simulator.now == 5.0

    def test_run_with_only_cancelled_events_advances_to_horizon(self, simulator):
        handle = simulator.schedule(1.0, lambda: None)
        handle.cancel()
        assert simulator.run(until=3.0) == 3.0
        assert simulator.events_processed == 0

    def test_event_cap_does_not_jump_clock_to_horizon(self, simulator):
        # Stopping at max_events must leave the clock at the last fired event,
        # not at `until`, or a later run() would move time backwards.
        times = []
        for t in (1.0, 2.0, 3.0):
            simulator.schedule(t, lambda t=t: times.append(t))
        stop_time = simulator.run(until=100.0, max_events=1)
        assert times == [1.0]
        assert stop_time == 1.0
        simulator.run()
        assert times == [1.0, 2.0, 3.0]
        assert simulator.now == 3.0

    def test_listener_cancelling_current_event_still_counts_as_step(self, simulator):
        # run() and step() must agree: a live-popped event that a listener
        # cancels mid-flight is a processed step whose callback is suppressed.
        def cancel_in_flight(event):
            event.cancelled = True

        fired = []
        simulator.add_listener(cancel_in_flight)
        simulator.schedule(1.0, lambda: fired.append("a"))
        simulator.schedule(2.0, lambda: fired.append("b"))
        simulator.run()
        assert fired == []

        stepper = Simulator()
        stepper.add_listener(cancel_in_flight)
        stepper.schedule(1.0, lambda: fired.append("a"))
        stepper.schedule(2.0, lambda: fired.append("b"))
        while stepper.step():
            pass
        assert stepper.events_processed == simulator.events_processed == 2
        assert fired == []
