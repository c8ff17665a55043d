"""Discrete-event simulation substrate.

The :mod:`repro.sim` package provides the execution substrate that every other
part of the library is built on:

* :class:`~repro.sim.engine.Simulator` -- a deterministic, seedable
  discrete-event scheduler over one heap, with two ways onto it:
  ``schedule``/``schedule_at`` (a cancellable
  :class:`~repro.sim.events.EventHandle`) and ``schedule_call_at`` (the
  handle-free message-delivery path).
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventHandle` --
  scheduled callbacks with stable, reproducible ordering.
* :class:`~repro.sim.clock.LocalClock` -- per-node local clocks whose rates are
  bounded between ``s_low`` and ``s_high`` as required by Definition 1(2) of
  the ABE model.
* :class:`~repro.sim.rng.RandomSource` -- named, reproducible random streams so
  that message delays, clock drift and algorithmic coin flips are independent
  yet fully determined by a single master seed.
* :class:`~repro.sim.monitor.MetricsCollector` and
  :class:`~repro.sim.trace.Tracer` -- observation hooks used by the experiment
  harness.

The engine is callback based (not coroutine based): every scheduled event is a
plain callable, events with equal timestamps are executed in scheduling order,
and the whole execution is a pure function of the master seed.  That property
is what makes the Monte-Carlo estimates in the experiment harness reproducible.
"""

from repro.sim.engine import SimulationDiverged, SimulationError, Simulator
from repro.sim.events import Event, EventHandle, EventKind
from repro.sim.clock import (
    ClockDriftModel,
    ConstantRateDrift,
    LocalClock,
    RandomWalkDrift,
    SinusoidalDrift,
)
from repro.sim.rng import RandomSource, derive_seed
from repro.sim.monitor import Counter, MetricsCollector, TimeSeries
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Simulator",
    "SimulationDiverged",
    "SimulationError",
    "Event",
    "EventHandle",
    "EventKind",
    "LocalClock",
    "ClockDriftModel",
    "ConstantRateDrift",
    "RandomWalkDrift",
    "SinusoidalDrift",
    "RandomSource",
    "derive_seed",
    "Counter",
    "MetricsCollector",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
]
