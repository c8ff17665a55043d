"""Vectorized columnar election engine (``core="vector"``).

The object engine simulates one Python object per node, channel and clock;
this module simulates the same Section 3 election on flat per-node state:
status codes and hop knowledge ``d`` are plain lists, ring adjacency is index
arithmetic (``successor = (i + 1) % n``) and every pending event is one
``(time, seq, hop, dst)`` tuple on a single :mod:`heapq` list.

Activation: one draw per idle spell
-----------------------------------
Both cores apply one activation rule (see :mod:`repro.core.election`): an
idle node waits K ~ Geometric(p) ticks, ``p = 1 - (1 - A0)^d``, drawn once
per idle spell by :func:`~repro.core.activation.geometric_wait`, instead of
flipping a coin at every tick.

* Start-up draws the ``n`` first spells at once, with the same inverse CDF
  applied to one numpy uniform vector, and keeps them in a sorted numpy
  array.  The array feeds the heap one entry at a time, so the heap holds
  O(messages) entries, not ``n``.
* A knock-back draws the next uniform of the same stream and queues the
  spell's activation ``K`` grid ticks after the current instant.
* Activations are heap entries ``(time, -1, tag, node)``: message sequence
  numbers count up from 0, so an activation pops ahead of every delivery
  at the same instant.  ``tag <= 0`` marks the entry kind (a message's
  ``hop`` is at least 1).
* An activation whose node was knocked out, crowned or crashed since it was
  queued is dropped when popped.  It counts neither as an event nor as
  pending work.
* Ticks lie on the ring-wide grid ``k * tick_period``.  ``ticks`` is
  counted in closed form from each node's ticking interval (start-up to
  knock-out, crowning, crash or the end of the run), as
  ``ElectionStatus.ticks`` counts it in the object core.

An election therefore costs O(messages) events.  The vector core's
``events_processed`` counts activations plus deliveries; the object core
also counts one start-up event per node (and a crash fault's event), so
compare that figure within one core.

Semantics contract (vs the object core)
---------------------------------------
The state machine is the object core's, rule for rule: an idle node
activates after its Geometric wait and sends ``<1>``; a received ``<hop>``
raises ``d``, knocks idle nodes passive (forwarding ``<d + 1>``), is
forwarded by passive nodes, crowns an active node iff ``hop == n`` and
otherwise knocks it back to idle (purging unless ``purge_at_active=False``),
and leaders purge residuals.  Messages are counted at send, knockouts per
knocked-out node, and hop counters above ``n`` are tallied as
``hop_overflows`` -- so every :class:`~repro.core.runner.ElectionResult`
field keeps its object-core meaning.

**Stream migration.**  Like the stream migrations documented in
``tests/harness/differential.py``, the vector core draws its randomness
from its *own* seed-deterministic numpy streams (``vector/waits``,
``vector/delays``, ``vector/processing``, ``vector/loss`` via
:meth:`~repro.sim.rng.RandomSource.numpy_stream`) instead of the object
core's per-node/per-channel ``random.Random`` streams.  A vector run is
therefore bit-reproducible per seed but follows a *different sample path*
than the object run of the same seed: the two cores are compared
distributionally (two-sample KS tests against each other and a per-tick
reference, ``tests/oracles/test_activation_parity.py``) and on invariants
(unique leader, agreement, conservation laws -- see
``tests/test_property_vector_core.py``), never event-for-event.  The golden
``vector_core_sample_paths`` pins the vector core's own sample paths.

Two object-core knobs are out of scope and rejected loudly rather than
silently approximated: per-node clock drift (``clock_drift_factory`` /
``clock_bounds != (1, 1)``) would break the ring-wide tick grid, and event
tracing has no per-event stream here.

A run ends on a decision, on the event or time budget, or when no live
entry is left.  Left with no live entry but a node still ticking (a lone
active node whose crowning message was dropped by a loss fault), it is
stuck for good: it returns ``elected=False`` and, under
``on_budget="raise"``, raises :class:`~repro.sim.engine.SimulationDiverged`
-- as the object core does when its queue drains.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.activation import (
    ActivationSchedule,
    AdaptiveActivation,
    geometric_wait,
    grid_ticks,
)
from repro.core.analysis import recommended_a0
from repro.core.runner import ElectionResult, _default_max_events
from repro.models.abe import ABEModel
from repro.network.delays import DelayDistribution
from repro.sim.engine import SimulationDiverged
from repro.sim.rng import RandomSource

__all__ = ["VectorRingElection", "run_vector_election"]

# Node status codes: the object core's NodeState plus a crashed sentinel.
_IDLE = 0
_ACTIVE = 1
_PASSIVE = 2
_LEADER = 3
_CRASHED = 4

# Heap entries that are not messages carry sequence number -1 (ahead of every
# delivery at the same instant) and one of these tags in the ``hop`` slot.
_START_UP = 0  # a start-up spell's activation; popping it feeds the next
_KNOCK_BACK = -1  # the activation of a spell begun by a knock-back
_CRASH = -2  # the node crash-stops (before anything else at that instant)


def _draws(distribution: DelayDistribution, gen, scalar_rng, block: int = 2048) -> Iterator[float]:
    """Endless draws from ``distribution``: numpy blocks when it vectorizes.

    Anything else falls back to per-draw scalar sampling through a
    ``random.Random`` stream derived from the same master seed (still
    deterministic, never silently wrong -- just slower).
    """
    if not distribution.supports_vectorized():
        sample = distribution.sample
        while True:
            yield sample(scalar_rng)
    while True:
        values = np.asarray(distribution.sample_array(gen, block), dtype=np.float64)
        if values.min() < 0:
            raise ValueError(f"delay model {distribution!r} produced a negative delay")
        yield from values.tolist()


def _uniforms(gen, block: int = 1024) -> Iterator[float]:
    """Endless uniforms in ``[0, 1)`` from ``gen``, drawn in blocks."""
    while True:
        yield from gen.random(block).tolist()


class VectorRingElection:
    """One election on an anonymous unidirectional ABE ring, columnar state.

    Parameters mirror :func:`repro.core.runner.run_election` where supported;
    fault injection is first-class instead of a network wrapper:

    ``message_loss``
        Per-message drop probability applied at delivery time, after the
        send has been counted (the sender cannot tell) -- the vector
        counterpart of :class:`~repro.network.faults.MessageLossFault` on
        every ring channel.
    ``crashes``
        ``(node_uid, crash_time)`` pairs: from ``crash_time`` on the node
        neither ticks nor processes deliveries (deliveries are swallowed and
        counted), the vector counterpart of
        :class:`~repro.network.faults.CrashStopFault`.
    """

    def __init__(
        self,
        n: int,
        *,
        a0: Optional[float] = None,
        delay: Optional[DelayDistribution] = None,
        seed: int = 0,
        schedule: Optional[ActivationSchedule] = None,
        fifo: bool = False,
        purge_at_active: bool = True,
        tick_period: float = 1.0,
        processing_delay: Optional[DelayDistribution] = None,
        message_loss: float = 0.0,
        crashes: Sequence[Tuple[int, float]] = (),
        validate_model: bool = True,
        expected_delay_bound: Optional[float] = None,
    ) -> None:
        if n < 2:
            raise ValueError(
                f"the election algorithm needs a ring of size n >= 2, got {n}"
            )
        if tick_period <= 0:
            raise ValueError("tick_period must be positive")
        if not (0.0 <= message_loss < 1.0):
            raise ValueError("message_loss must be in [0, 1)")
        from repro.network.delays import ExponentialDelay  # match runner default

        delay_model = delay if delay is not None else ExponentialDelay(mean=1.0)
        if not isinstance(delay_model, DelayDistribution):
            raise ValueError(
                "core='vector' needs an iid DelayDistribution; adversarial or "
                "per-channel delay models need the object core"
            )
        self.n = int(n)
        self.a0 = float(recommended_a0(n) if a0 is None else a0)
        self.seed = int(seed)
        self.delay_model = delay_model
        self.schedule = schedule if schedule is not None else AdaptiveActivation(self.a0)
        self.fifo = bool(fifo)
        self.purge_at_active = bool(purge_at_active)
        self.tick_period = float(tick_period)
        self.processing_model = processing_delay
        self.message_loss = float(message_loss)
        crash_entries = [(float(when), -1, _CRASH, int(uid)) for uid, when in crashes]
        for _when, _seq, _tag, uid in crash_entries:
            if not (0 <= uid < n):
                raise ValueError(f"node {uid} does not exist")

        if validate_model:
            delta = expected_delay_bound
            mean = delay_model.mean()
            if delta is None:
                delta = mean if mean > 0 else 1.0
            gamma = processing_delay.mean() if processing_delay is not None else 0.0
            model = ABEModel(
                expected_delay_bound=delta,
                s_low=1.0,
                s_high=1.0,
                expected_processing_bound=gamma,
            )
            model.validate_delay(delay_model)
            if processing_delay is not None:
                model.validate_processing(processing_delay)

        self._status = [_IDLE] * n
        self._d = [1] * n

        source = RandomSource(seed)
        wait_stream = source.numpy_stream("vector/waits")
        self._wait_random = wait_stream.random
        self._delays = _draws(
            delay_model, source.numpy_stream("vector/delays"), source.stream("vector/delays")
        )
        self._processing = (
            _draws(
                processing_delay,
                source.numpy_stream("vector/processing"),
                source.stream("vector/processing"),
            )
            if processing_delay is not None
            else None
        )
        self._loss = (
            _uniforms(source.numpy_stream("vector/loss")) if message_loss > 0.0 else None
        )

        # Start-up spells, sorted by (activation time, node): geometric_wait
        # applied to one uniform vector (every node starts with d = 1).
        probability = self.schedule.probability(1)
        uniforms = wait_stream.random(n)
        if probability <= 0.0:
            waits = np.empty(0)
        elif probability >= 1.0:
            waits = np.ones(n)
        else:
            waits = 1.0 + np.floor(np.log(1.0 - uniforms) / math.log1p(-probability))
        times = waits * self.tick_period
        self._start_nodes = np.argsort(times, kind="stable")
        self._start_times = times[self._start_nodes]
        self._start_index = 0

        # Pending events as (time, seq, hop, dst): messages carry seq 0, 1, ...
        # (unique, so tuple comparison never reaches the payload); crashes and
        # activations carry seq -1 and a tag in the hop slot.
        self._heap: List[Tuple[float, int, int, int]] = crash_entries
        heapq.heapify(self._heap)
        self._feed_start_up()
        self._seq = 0
        # Per-channel FIFO floors: channel i is the link i -> (i + 1) % n.
        self._fifo_floor = [0.0] * n if fifo else None

        # ------------------------------------------------------- counters
        self.now = 0.0
        self.ticks = 0
        self._live = n
        self._stopped_ticks = 0
        self.activations = 0
        self.knockouts = 0
        self.hop_overflows = 0
        self.messages_total = 0
        self.deliveries = 0
        self.messages_dropped = 0
        self.deliveries_to_crashed = 0
        self.nodes_crashed: List[int] = []
        self.leader_uid: Optional[int] = None
        self.election_time: Optional[float] = None
        self.leaders_elected = 0

    @property
    def decided(self) -> bool:
        return self.leader_uid is not None

    def _feed_start_up(self) -> None:
        """Queue the next start-up spell on the heap, if any is left.

        The conversions matter: a numpy scalar in the heap would reach the
        result (the crowned uid, the election time), and the result codec
        refuses ``numpy.int64``.
        """
        index = self._start_index
        if index < self._start_nodes.size:
            self._start_index = index + 1
            heapq.heappush(
                self._heap,
                (float(self._start_times[index]), -1, _START_UP, int(self._start_nodes[index])),
            )

    # -------------------------------------------------------------------- run

    def run(
        self,
        *,
        max_events: Optional[int] = None,
        max_time: Optional[float] = None,
        on_budget: str = "stop",
    ) -> ElectionResult:
        """Run to a decision, quiescence, or the event/time budget.

        The loop body is deliberately inlined: the receive rules and the
        send path run on hoisted locals (the status and ``d`` lists, the
        heap and its sequence counter, the draw iterators).
        """
        if on_budget not in ("stop", "raise"):
            raise ValueError(
                f"on_budget must be 'stop' or 'raise', got {on_budget!r}"
            )
        if max_events is None:
            max_events = _default_max_events(self.n)
        limit_time = math.inf if max_time is None else float(max_time)
        n = self.n
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq = self._seq
        status = self._status
        d = self._d
        probability = self.schedule.probability
        wait_random = self._wait_random
        purge = self.purge_at_active
        loss = self.message_loss
        loss_draws = self._loss
        fifo_floor = self._fifo_floor
        processing = self._processing
        delays = self._delays
        period = self.tick_period
        # Nodes still ticking (idle or active), and the ticks of the nodes
        # that stopped: ticks = stopped_ticks + live * grid_ticks(now).
        live = self._live
        stopped_ticks = self._stopped_ticks
        activations = self.activations
        deliveries = self.deliveries
        messages_total = self.messages_total
        knockouts = self.knockouts
        hop_overflows = self.hop_overflows
        messages_dropped = self.messages_dropped
        deliveries_to_crashed = self.deliveries_to_crashed
        events = 0
        truncated = False
        now = self.now
        while heap:
            entry = heappop(heap)
            when, _, hop, dst = entry
            if hop <= 0 and hop != _CRASH and status[dst] != _IDLE:
                # The spell ended (knock-out, crowning, crash) before it
                # fired: dropped, neither an event nor pending work.
                if hop == _START_UP:
                    self._feed_start_up()
                continue
            if when > limit_time or events >= max_events:
                heappush(heap, entry)
                if when > limit_time:
                    now = limit_time
                truncated = True
                break
            now = when
            if hop > 0:
                deliveries += 1
                events += 1
                if loss and next(loss_draws) < loss:
                    # Delivery-time loss coin, drawn before the crashed check
                    # (the object core's MessageLossFault wraps the channel,
                    # outside the node).
                    messages_dropped += 1
                    continue
                state = status[dst]
                if state == _PASSIVE:
                    # Rule (ii): forward <d + 1>.
                    dv = d[dst]
                    if hop > dv:
                        d[dst] = hop
                        dv = hop
                    new_hop = dv + 1
                elif state == _IDLE:
                    # Rule (i): knocked out -- passive, forward <d + 1>.
                    dv = d[dst]
                    if hop > dv:
                        d[dst] = hop
                        dv = hop
                    status[dst] = _PASSIVE
                    live -= 1
                    stopped_ticks += grid_ticks(0.0, when, period)
                    knockouts += 1
                    new_hop = dv + 1
                elif state == _ACTIVE:
                    # Rule (iii): crowned on a full traversal, else back to
                    # idle.  The leader's ticks stop at `now`, where the
                    # closed-form count stops anyway.
                    if hop == n:
                        status[dst] = _LEADER
                        self.leader_uid = dst
                        self.election_time = when
                        self.leaders_elected += 1
                        break
                    dv = d[dst]
                    if hop > dv:
                        d[dst] = hop
                        dv = hop
                    status[dst] = _IDLE
                    wait = geometric_wait(probability(dv), wait_random())
                    if wait is not None:
                        due = (grid_ticks(0.0, when, period) + wait) * period
                        heappush(heap, (due, -1, _KNOCK_BACK, dst))
                    if purge:
                        continue
                    # Ablation A2: forward instead of purging.
                    new_hop = dv + 1
                elif state == _CRASHED:
                    deliveries_to_crashed += 1
                    continue
                else:
                    # Leaders purge residuals: nothing to do.
                    continue
                if new_hop > n:
                    hop_overflows += 1
            elif hop == _CRASH:
                state = status[dst]
                if state == _IDLE or state == _ACTIVE:
                    live -= 1
                    stopped_ticks += grid_ticks(0.0, when, period)
                if state != _CRASHED:
                    status[dst] = _CRASHED
                    self.nodes_crashed.append(dst)
                continue
            else:
                # An idle spell's activation: idle -> active, send <1>.
                if hop == _START_UP:
                    self._feed_start_up()
                events += 1
                activations += 1
                status[dst] = _ACTIVE
                new_hop = 1
            # ------------------------------------ send <new_hop> to successor
            messages_total += 1
            arrival = when + next(delays)
            succ = dst + 1
            if succ == n:
                succ = 0
            if fifo_floor is not None:
                floor_value = fifo_floor[dst]
                if arrival < floor_value:
                    arrival = floor_value
                fifo_floor[dst] = arrival
            if processing is not None:
                arrival += next(processing)
            heappush(heap, (arrival, seq, new_hop, succ))
            seq += 1
        else:
            # No live entry left.  As the object engine does when its queue
            # drains before the horizon, the clock advances to it.
            if max_time is not None:
                now = max(now, limit_time)
        # ------------------------------------------------------ write-back
        self.now = now
        self._live = live
        self._stopped_ticks = stopped_ticks
        self.ticks = stopped_ticks + live * grid_ticks(0.0, now, period)
        self.activations = activations
        self.deliveries = deliveries
        self.messages_total = messages_total
        self.knockouts = knockouts
        self.hop_overflows = hop_overflows
        self.messages_dropped = messages_dropped
        self.deliveries_to_crashed = deliveries_to_crashed
        self._seq = seq
        if not self.decided:
            if not truncated and live:
                # A node still ticks, yet no live entry can ever change the
                # state (a lone active node waiting for a lost message): stuck
                # for good, as the object core classifies a drained queue.
                truncated = True
            if truncated and on_budget == "raise":
                raise SimulationDiverged(
                    f"election on n={self.n} exhausted its budget undecided "
                    f"(events={events}, now={self.now})",
                    events_processed=events,
                    now=self.now,
                    max_events=max_events,
                    max_time=max_time,
                )
        return ElectionResult(
            n=self.n,
            elected=self.decided,
            leader_uid=self.leader_uid,
            election_time=self.election_time,
            messages_total=self.messages_total,
            knockout_messages=self.knockouts,
            activations=self.activations,
            ticks=self.ticks,
            hop_overflows=self.hop_overflows,
            events_processed=events,
            seed=self.seed,
            a0=self.a0,
            leaders_elected=self.leaders_elected,
        )


def run_vector_election(
    n: int,
    *,
    a0: Optional[float] = None,
    delay: Optional[DelayDistribution] = None,
    seed: int = 0,
    schedule: Optional[ActivationSchedule] = None,
    fifo: bool = False,
    purge_at_active: bool = True,
    tick_period: float = 1.0,
    processing_delay: Optional[DelayDistribution] = None,
    message_loss: float = 0.0,
    crashes: Sequence[Tuple[int, float]] = (),
    validate_model: bool = True,
    expected_delay_bound: Optional[float] = None,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    on_budget: str = "stop",
) -> ElectionResult:
    """One-call vector-core election, mirroring :func:`~repro.core.runner.run_election`.

    ``a0=None`` means ``recommended_a0(n)``.
    """
    election = VectorRingElection(
        n,
        a0=a0,
        delay=delay,
        seed=seed,
        schedule=schedule,
        fifo=fifo,
        purge_at_active=purge_at_active,
        tick_period=tick_period,
        processing_delay=processing_delay,
        message_loss=message_loss,
        crashes=crashes,
        validate_model=validate_model,
        expected_delay_bound=expected_delay_bound,
    )
    return election.run(max_events=max_events, max_time=max_time, on_budget=on_budget)
