"""Vectorized columnar election engine (``core="vector"``).

The object engine simulates one Python object per node and one event per
clock tick; this module simulates the same Section 3 election with *columnar*
state: node status codes, hop knowledge ``d``, cached activation
probabilities and the compacted set of still-ticking nodes are flat numpy
arrays, ring adjacency is index arithmetic (``successor = (i + 1) % n``) and
every pending message arrival is one ``(time, seq, hop, dst)`` tuple on a
single :mod:`heapq` list.  Ties in ``time`` break by push order (the strictly
increasing ``seq``), exactly like the object engine's shared sequence
counter, so a run stays deterministic when a discrete delay model lands two
arrivals on one instant.  Each activation round is one vectorized step -- a
slice of a block-prefetched uniform vector compared against the per-node
activation probabilities in one shot -- instead of ``n`` per-node callback
events, and a round's outgoing ``<1>`` messages sample their channel delays
in one :meth:`~repro.network.delays.DelayDistribution.sample_array` call.

Semantics contract (vs the object core)
---------------------------------------
The state machine is the object core's, rule for rule: idle nodes flip the
``1 - (1 - A0)^d`` coin every local tick and send ``<1>`` on activation;
a received ``<hop>`` raises ``d``, knocks idle nodes passive (forwarding
``<d + 1>``), is forwarded by passive nodes, crowns an active node iff
``hop == n`` and otherwise knocks it back to idle (purging unless
``purge_at_active=False``), and leaders purge residuals.  Messages are
counted at send, knockouts per knocked-out node, ticks once per idle or
active node per round, and hop counters above ``n`` are tallied as
``hop_overflows`` -- so every :class:`~repro.core.runner.ElectionResult`
field keeps its object-core meaning.

**Stream migration.** Like the stream migrations documented in
``tests/harness/differential.py``, the vector core draws its randomness
from its *own* seed-deterministic numpy streams
(``vector/coins``, ``vector/delays``, ``vector/processing``,
``vector/loss`` via :meth:`~repro.sim.rng.RandomSource.numpy_stream`)
instead of the object core's per-node/per-channel ``random.Random``
streams.  A vector run is therefore bit-reproducible per seed but follows a
*different sample path* than the object run of the same seed: the two cores
are compared distributionally (two-sample KS tests against each other and a
per-tick reference, ``tests/oracles/test_activation_parity.py``) and on
invariants (unique leader, agreement, conservation laws -- see
``tests/test_property_vector_core.py``), never event-for-event.  The
golden fingerprints pin the object core only.

Engine-level accounting (``events_processed``) counts activation rounds plus
message deliveries, while the object engine counts start-ups, activations
and deliveries: compare that figure within one core.

Two object-core knobs are out of scope and rejected loudly rather than
silently approximated: per-node clock drift (``clock_drift_factory`` /
``clock_bounds != (1, 1)``) would break the shared-round structure the
vectorization relies on, and event tracing has no per-event stream here.

Deadlock is detected eagerly: with no pending arrivals and no idle node left
(for example a lone active node whose crowning message was dropped by a loss
fault), no future coin flip or delivery can change the state, so the run
returns ``elected=False`` immediately, as the object core does when its
queue drains; ``on_budget="raise"`` raises
:class:`~repro.sim.engine.SimulationDiverged` in both cores.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.activation import ActivationSchedule, AdaptiveActivation
from repro.core.analysis import recommended_a0
from repro.core.runner import ElectionResult, _default_max_events
from repro.models.abe import ABEModel
from repro.network.delays import DelayDistribution
from repro.sim.engine import SimulationDiverged
from repro.sim.rng import RandomSource

__all__ = ["VectorRingElection", "run_vector_election"]

# Status codes (int8 column): the object core's NodeState plus a crashed
# sentinel.  The still-ticking set is exactly ``status <= _ACTIVE``.
_IDLE = 0
_ACTIVE = 1
_PASSIVE = 2
_LEADER = 3
_CRASHED = 4


class _DelayTape(object):
    """Block-prefetched draws from one distribution on one numpy stream.

    ``sample_array`` distributions refill in vectorized blocks; anything else
    falls back to per-draw scalar sampling through a ``random.Random`` stream
    derived from the same master seed (still deterministic, never silently
    wrong -- just slower).
    """

    __slots__ = ("_distribution", "_gen", "_scalar_rng", "_block", "_index", "_block_size")

    def __init__(self, distribution, gen, scalar_rng, block_size: int = 4096) -> None:
        self._distribution = distribution
        self._gen = gen
        self._scalar_rng = scalar_rng
        self._block_size = block_size
        self._block = None
        self._index = 0
        if distribution.supports_vectorized():
            self._block = np.empty(0, dtype=np.float64)

    def _refill(self, at_least: int) -> None:
        count = max(self._block_size, at_least)
        block = np.asarray(
            self._distribution.sample_array(self._gen, count), dtype=np.float64
        )
        if block.min() < 0:
            raise ValueError(
                f"delay model {self._distribution!r} produced a negative delay"
            )
        leftover = self._block[self._index :]
        self._block = np.concatenate([leftover, block]) if leftover.size else block
        self._index = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` draws as a float array."""
        if self._block is None:
            sample = self._distribution.sample
            rng = self._scalar_rng
            return np.asarray([sample(rng) for _ in range(count)], dtype=np.float64)
        if self._index + count > self._block.size:
            self._refill(count)
        start = self._index
        self._index = start + count
        return self._block[start : self._index]

    def one(self) -> float:
        if self._block is None:
            return self._distribution.sample(self._scalar_rng)
        index = self._index
        if index >= self._block.size:
            self._refill(1)
            index = 0
        self._index = index + 1
        return float(self._block[index])


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
        self.crashes = sorted(
            ((float(when), int(uid)) for uid, when in crashes)
        )
        for _when, uid in self.crashes:
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

        # -------------------------------------------------- columnar state
        self._status = np.zeros(n, dtype=np.int8)
        self._d = np.ones(n, dtype=np.int64)
        p1 = self.schedule.probability(1)
        # Zero-gated probability column: a node's activation probability
        # while idle, 0.0 otherwise.  The round can then compare one uniform
        # vector against this column directly -- no status indexing on the
        # per-round hot path; non-idle members simply never win the flip.
        self._prob = np.full(n, p1, dtype=np.float64)
        self._prob_cache = {1: p1}
        # Compacted tick set (idle + active); shrink-only between compactions
        # (idle->passive, active->leader and crashes are permanent exits,
        # active->idle stays in the set), so stale entries are filtered
        # lazily each round.  The scalar counts are maintained at every
        # transition so the run loop's liveness checks are O(1).
        self._tick_ids = np.arange(n, dtype=np.intp)
        self._idle_count = n
        self._active_count = 0

        source = RandomSource(seed)
        self._coins = source.numpy_stream("vector/coins")
        self._delays = _DelayTape(
            delay_model, source.numpy_stream("vector/delays"), source.stream("vector/delays")
        )
        self._processing = (
            _DelayTape(
                processing_delay,
                source.numpy_stream("vector/processing"),
                source.stream("vector/processing"),
            )
            if processing_delay is not None
            else None
        )
        self._loss_gen = (
            source.numpy_stream("vector/loss") if message_loss > 0.0 else None
        )
        self._loss_block: Optional[np.ndarray] = None
        self._loss_index = 0

        # Pending arrivals as (time, seq, hop, dst); seq is unique, so tuple
        # comparison never reaches the payload.
        self._heap: List[Tuple[float, int, int, int]] = []
        self._seq = 0
        # Per-channel FIFO floors: channel i is the link i -> (i + 1) % n.
        self._fifo_floor = np.zeros(n, dtype=np.float64) if fifo else None

        # ------------------------------------------------------- counters
        self.now = 0.0
        self.ticks = 0
        self.activations = 0
        self.knockouts = 0
        self.hop_overflows = 0
        self.messages_total = 0
        self.rounds = 0
        self.deliveries = 0
        self.messages_dropped = 0
        self.deliveries_to_crashed = 0
        self.nodes_crashed: List[int] = []
        self.leader_uid: Optional[int] = None
        self.election_time: Optional[float] = None
        self.leaders_elected = 0

    # ---------------------------------------------------------------- helpers

    @property
    def decided(self) -> bool:
        return self.leader_uid is not None

    def _probability_for(self, d: int) -> float:
        cache = self._prob_cache
        probability = cache.get(d)
        if probability is None:
            probability = self.schedule.probability(d)
            cache[d] = probability
        return probability

    def _apply_crashes(self, up_to: float) -> None:
        crashes = self.crashes
        while crashes and crashes[0][0] <= up_to:
            _when, uid = crashes.pop(0)
            state = self._status[uid]
            if state != _CRASHED:
                if state == _IDLE:
                    self._idle_count -= 1
                elif state == _ACTIVE:
                    self._active_count -= 1
                self._status[uid] = _CRASHED
                self._prob[uid] = 0.0
                self.nodes_crashed.append(uid)

    # ------------------------------------------------------------------ round

    def _activate_batch(self, activated: np.ndarray, now: float) -> None:
        """Idle -> active for a whole round's worth of nodes: send ``<1>``s."""
        count = int(activated.size)
        self._status[activated] = _ACTIVE
        self._prob[activated] = 0.0  # active nodes do not flip coins
        self._idle_count -= count
        self._active_count += count
        self.activations += count
        self.messages_total += count
        arrivals = now + self._delays.take(count)
        if self._fifo_floor is not None:
            floor = self._fifo_floor
            np.maximum(arrivals, floor[activated], out=arrivals)
            floor[activated] = arrivals
        if self._processing is not None:
            arrivals = arrivals + self._processing.take(count)
        dst = activated + 1
        dst[dst == self.n] = 0
        heap = self._heap
        seq = self._seq
        for arrival, succ in zip(arrivals.tolist(), dst.tolist()):
            heapq.heappush(heap, (arrival, seq, 1, succ))
            seq += 1
        self._seq = seq

    # -------------------------------------------------------------------- run

    def run(
        self,
        *,
        max_events: Optional[int] = None,
        max_time: Optional[float] = None,
        on_budget: str = "stop",
    ) -> ElectionResult:
        """Run to a decision, quiescence, or the event/time budget.

        The loop body is deliberately inlined: the receive rules, the scalar
        forward path and the per-round coin comparison all run on hoisted
        locals (plain-list mirrors of the scalar-accessed columns, prefetched
        uniform/delay blocks, the heap list and its sequence counter).
        The vectorized batch paths -- :meth:`_activate_batch` and lazy tick-set
        compaction -- still operate on the numpy columns; shared counters are
        synced around those calls.
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
        status_col = self._status
        prob = self._prob
        prob_for = self._probability_for
        # Plain-list mirrors for the scalar-accessed columns: delivery-time
        # reads/writes are element-wise, where list indexing beats numpy
        # scalar indexing severalfold.  ``status_col`` is kept in sync on
        # every transition (the vectorized batch paths read it); ``_d`` has
        # no vectorized reader mid-run and is written back at exit.
        status = status_col.tolist()
        d = self._d.tolist()
        purge = self.purge_at_active
        loss = self.message_loss
        fifo_floor = self._fifo_floor
        processing = self._processing
        crashes = self.crashes
        period = self.tick_period
        delays = self._delays
        delays_one = delays.one
        # Block-prefetched scalar delay draws (vectorized distributions only):
        # `take(...).tolist()` keeps the tape position shared with the batch
        # path while the hot loop reads plain floats.
        fast_delay = delays._block is not None
        delay_list: List[float] = []
        delay_index = 0
        delay_len = 0
        coin_random = self._coins.random
        coin_block = coin_random(4096)
        coin_size = 4096
        coin_index = 0
        loss_random = self._loss_gen.random if self._loss_gen is not None else None
        loss_list: List[float] = []
        loss_index = 0
        loss_len = 0
        idle_count = self._idle_count
        active_count = self._active_count
        ticks = self.ticks
        rounds = self.rounds
        deliveries = self.deliveries
        messages_total = self.messages_total
        knockouts = self.knockouts
        hop_overflows = self.hop_overflows
        messages_dropped = self.messages_dropped
        deliveries_to_crashed = self.deliveries_to_crashed
        round_index = 1
        next_round: float = period
        events = 0
        truncated = False
        now = self.now
        while True:
            if heap:
                arrival = heap[0][0]
                if idle_count + active_count == 0 or arrival < next_round:
                    # Shrink-only tick set: with no idle or active node left
                    # no future round can change anything, so arrivals drain
                    # unconditionally; otherwise arrivals strictly before the
                    # next round go first (rounds win ties).
                    when = arrival
                    is_round = False
                else:
                    when = next_round
                    is_round = True
            elif idle_count + active_count == 0:
                # Quiescent: no pending arrivals and nobody left to tick.
                break
            else:
                when = next_round
                is_round = True
            if when > limit_time:
                now = limit_time
                truncated = True
                break
            if events >= max_events:
                truncated = True
                break
            if crashes and crashes[0][0] <= when:
                self._idle_count = idle_count
                self._active_count = active_count
                already = len(self.nodes_crashed)
                self._apply_crashes(when)
                for uid in self.nodes_crashed[already:]:
                    status[uid] = _CRASHED
                idle_count = self._idle_count
                active_count = self._active_count
            now = when
            events += 1
            if is_round:
                # One shared activation round: every live idle/active node
                # ticks; one prefetched-uniform slice for the whole bucket is
                # compared against the zero-gated probability column.
                rounds += 1
                ids = self._tick_ids
                live = idle_count + active_count
                if ids.size > 2 * live:
                    # Lazy compaction: members that left the set permanently
                    # (knocked out, crowned, crashed) are dropped once they
                    # are the majority.  Stale entries are harmless meanwhile
                    # -- their gated probability is 0, so they can never win
                    # the flip -- and ticks are counted from the exact live
                    # tally, not the array size.
                    ids = ids[status_col[ids] <= _ACTIVE]
                    self._tick_ids = ids
                ticks += live
                size = ids.size
                if coin_index + size > coin_size:
                    coin_block = coin_random(size if size > 4096 else 4096)
                    coin_size = coin_block.size
                    coin_index = 0
                draws = coin_block[coin_index : coin_index + size]
                coin_index += size
                hits = draws < prob[ids]
                if np.count_nonzero(hits):
                    self._idle_count = idle_count
                    self._active_count = active_count
                    self.messages_total = messages_total
                    self._seq = seq
                    activated = ids[hits]
                    self._activate_batch(activated, when)
                    for uid in activated.tolist():
                        status[uid] = _ACTIVE
                    idle_count = self._idle_count
                    active_count = self._active_count
                    messages_total = self.messages_total
                    seq = self._seq
                round_index += 1
                next_round = round_index * period
                if not heap and idle_count == 0:
                    # Without idle nodes or in-flight messages the
                    # configuration is frozen (any active survivors would
                    # tick forever without ever electing).  Classify below
                    # instead of burning the budget.
                    break
                continue
            # ------------------------------------------------- delivery
            deliveries += 1
            _, _, hop, dst = heappop(heap)
            if loss:
                # Delivery-time loss coin from the dedicated loss stream,
                # drawn before the crashed check (the object core's
                # MessageLossFault wraps the channel, outside the node).
                if loss_index >= loss_len:
                    loss_list = loss_random(1024).tolist()
                    loss_len = 1024
                    loss_index = 0
                drawn = loss_list[loss_index]
                loss_index += 1
                if drawn < loss:
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
                status_col[dst] = _PASSIVE
                prob[dst] = 0.0
                idle_count -= 1
                knockouts += 1
                new_hop = dv + 1
            elif state == _ACTIVE:
                # Rule (iii): crowned on a full traversal, else back to idle.
                if hop == n:
                    status[dst] = _LEADER
                    status_col[dst] = _LEADER
                    active_count -= 1
                    self.leader_uid = int(dst)
                    self.election_time = when
                    self.leaders_elected += 1
                    break
                dv = d[dst]
                if hop > dv:
                    d[dst] = hop
                    dv = hop
                status[dst] = _IDLE
                status_col[dst] = _IDLE
                # Back in the coin-flipping set: restore the gated
                # probability from the (possibly just-raised) hop knowledge.
                prob[dst] = prob_for(dv)
                active_count -= 1
                idle_count += 1
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
            # --------------------------------------------- scalar forward
            if new_hop > n:
                hop_overflows += 1
            messages_total += 1
            if fast_delay:
                if delay_index >= delay_len:
                    delay_list = delays.take(2048).tolist()
                    delay_len = 2048
                    delay_index = 0
                arrival2 = when + delay_list[delay_index]
                delay_index += 1
            else:
                arrival2 = when + delays_one()
            succ = dst + 1
            if succ == n:
                succ = 0
            if fifo_floor is not None:
                floor_value = fifo_floor[dst]
                if arrival2 < floor_value:
                    arrival2 = floor_value
                fifo_floor[dst] = arrival2
            if processing is not None:
                arrival2 += processing.one()
            heappush(heap, (arrival2, seq, new_hop, succ))
            seq += 1
        # ------------------------------------------------------ write-back
        self.now = now
        self._idle_count = idle_count
        self._active_count = active_count
        self.ticks = ticks
        self.rounds = rounds
        self.deliveries = deliveries
        self.messages_total = messages_total
        self.knockouts = knockouts
        self.hop_overflows = hop_overflows
        self.messages_dropped = messages_dropped
        self.deliveries_to_crashed = deliveries_to_crashed
        self._d[:] = d
        self._seq = seq
        if not self.decided:
            if not truncated and self._stuck_live():
                # A lone active node waiting for a message that will never
                # come: the object core would spin ticks to budget exhaustion.
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

    def _stuck_live(self) -> bool:
        """Live-but-frozen: ticking nodes exist, yet no progress is possible."""
        return (
            not self._heap
            and self._idle_count == 0
            and self._active_count > 0
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
