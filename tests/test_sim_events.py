"""Unit tests for event objects and handles."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventHandle


class TestEventOrdering:
    """The simulator fires events by ``(time, priority, sequence)``."""

    def test_time_dominates_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("late"), priority=-1)
        sim.schedule_at(1.0, lambda: fired.append("early"), priority=5)
        sim.run()
        assert fired == ["early", "late"]

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("low"), priority=5)
        sim.schedule_at(1.0, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_sequence_breaks_remaining_ties(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("first"))
        second = sim.schedule_at(1.0, lambda: fired.append("second"))
        assert first._event.sequence < second._event.sequence
        sim.run()
        assert fired == ["first", "second"]

    def test_sequence_counter_is_monotone_per_simulator(self):
        sim, other = Simulator(), Simulator()
        handles, fired = [], []
        for index in range(10):
            other.schedule(0.0, lambda: None)  # must not perturb ``sim``
            handles.append(
                sim.schedule(float(index % 3), lambda index=index: fired.append(index))
            )
        sim.run()
        seen = [handles[index]._event.sequence for index in fired]
        assert sorted(seen) == list(range(10))
        # Within one timestamp, events fire in sequence order.
        assert fired == [0, 3, 6, 9, 1, 4, 7, 2, 5, 8]


class TestEventFiring:
    def test_fire_invokes_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]
        assert handle.fired

    def test_cancelled_event_does_not_invoke_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.0, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []


class TestEventHandle:
    def test_handle_exposes_metadata(self):
        sim = Simulator()
        handle = sim.schedule_at(3.5, lambda: None)
        assert handle.time == 3.5
        assert not handle.cancelled
        assert not handle.fired

    def test_cancel_marks_event(self):
        event = Event(1.0, 0, 0, lambda: None)
        handle = EventHandle(event)
        assert handle.cancel()
        assert event.cancelled

    def test_fire_marks_fired_and_cancel_then_fails(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert not handle.fired
        sim.run()
        assert handle.fired
        assert handle.cancel() is False
        assert not handle.cancelled

    def test_cancelled_event_never_reports_fired(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert not handle.fired


class TestEventValidation:
    def test_events_define_no_ordering(self):
        # The queue orders (time, priority, sequence, ...) tuples; an Event
        # is never compared, so it carries no comparison operators.
        early = Event(1.0, 0, 0, lambda: None)
        late = Event(2.0, 0, 1, lambda: None)
        with pytest.raises(TypeError):
            early < late
