"""Differential and golden lock-down of the election-core refactor.

Three layers of evidence that the fast election core (plain-counter
bookkeeping, cached activation probability, allocation-free / batched tick
scheduling, identity clock fast path) changed no observable behaviour:

1. **Goldens** -- every scenario of the differential harness
   (``tests/harness/differential.py``) is asserted bit-identical to the
   fingerprint recorded on the pre-refactor code (commit 19a8dd0, re-recorded
   by the migrations listed in the harness): all four baseline leader
   elections, all three synchronizers, the ABE election in per-node /
   batched-tick / FIFO / traced / constant-schedule / no-purge / fault
   configurations, and reduced E2/E3 experiment runs.
2. **Live vs legacy differential** -- full election runs on the live core and
   on the faithful pre-refactor replica
   (``benchmarks/legacy_election_core.py``) produce identical fingerprints,
   metric counters included.
3. **Unit regressions** for the new machinery: ``Simulator.reschedule``,
   ``SharedTickProcess``/``batch_ticks``, and summed external counters.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from harness.differential import (
    SCENARIOS,
    assert_equivalent,
    assert_matches_golden,
    fingerprint_network,
)

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from legacy_election_core import (  # noqa: E402
    legacy_build_election_network,
    legacy_run_election,
)

from repro.core.runner import (  # noqa: E402
    build_election_network,
    run_election,
    run_election_on_network,
)
from repro.network.delays import HyperExponentialDelay, UniformDelay  # noqa: E402
from repro.sim.engine import SimulationError, Simulator  # noqa: E402
from repro.sim.monitor import MetricsCollector  # noqa: E402
from repro.sim.process import SharedTickProcess  # noqa: E402


class TestGoldens:
    """Every harness scenario must match its pre-refactor golden, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_pre_refactor_golden(self, name):
        assert_matches_golden(name)


class TestLiveVsLegacyDifferential:
    """The live core vs the faithful pre-refactor replica, full fingerprints.

    The legacy replica predates batched ticks, so the live side pins
    ``batch_ticks=False`` -- this suite proves the *historical* per-node
    event stream is preserved; the goldens cover the batched-tick default.
    """

    CONFIGS = [
        ("scalar", dict(n=16, seed=7)),
        ("fifo", dict(n=12, seed=5, fifo=True)),
        ("no_purge", dict(n=8, seed=2, purge_at_active=False)),
        ("low_a0", dict(n=10, seed=4, a0=0.1)),
        ("traced", dict(n=6, seed=8, enable_trace=True)),
        # Non-default delay models: the one-``sample``-call-per-message
        # stream matches the replica for models other than the exponential.
        ("uniform_delay", dict(n=10, seed=3, delay=UniformDelay(0.5, 1.5))),
        ("hyperexponential_delay", dict(
            n=9, seed=6, delay=HyperExponentialDelay([0.7, 0.3], [0.5, 2.0])
        )),
    ]

    @pytest.mark.parametrize("label,config", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_live_and_legacy_fingerprints_identical(self, label, config):
        config = dict(config)
        n = config.pop("n")
        seed = config.pop("seed")
        include_trace = config.get("enable_trace", False)

        live_network, live_status = build_election_network(
            n, seed=seed, batch_ticks=False, **config
        )
        live_result = run_election_on_network(
            live_network, live_status, a0=config.get("a0", 0.3)
        )
        live = fingerprint_network(live_network, include_trace=include_trace)
        live["result"] = asdict(live_result)

        config.pop("validate_model", None)
        legacy_network, legacy_status = legacy_build_election_network(
            n, seed=seed, **config
        )
        legacy_network.stop_when(lambda: legacy_status.decided)
        legacy_network.run(max_events=500_000 + 50_000 * n)
        legacy = fingerprint_network(legacy_network, include_trace=include_trace)
        legacy["result"] = asdict(
            _legacy_result(legacy_network, legacy_status, seed, config.get("a0", 0.3))
        )

        assert_equivalent(legacy, live, context=f"live vs legacy ({label})")

    def test_run_election_equals_legacy_run_election_across_seeds(self):
        for seed in range(10):
            live = run_election(12, a0=0.3, seed=seed, batch_ticks=False)
            assert live == legacy_run_election(12, a0=0.3, seed=seed)


def _legacy_result(network, status, seed, a0):
    from repro.core.runner import ElectionResult

    return ElectionResult(
        n=network.n,
        elected=status.decided,
        leader_uid=status.leader_uid,
        election_time=status.election_time,
        messages_total=network.messages_sent(),
        knockout_messages=status.knockouts,
        activations=status.activations,
        ticks=status.ticks,
        hop_overflows=status.hop_overflows,
        events_processed=network.simulator.events_processed,
        seed=seed,
        a0=a0,
        leaders_elected=status.leaders_elected,
    )


class TestReschedule:
    """The engine's zero-allocation re-arm primitive."""

    def test_reschedule_reuses_the_event_record(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(sim.now))
        event = handle._event
        sim.run()
        sim.reschedule(handle, 2.0)
        assert handle._event is event  # same record, re-armed
        assert not handle.fired and not handle.cancelled
        sim.run()
        assert fired == [1.0, 3.0]

    def test_reschedule_orders_like_a_fresh_schedule(self):
        sim = Simulator()
        fired = []
        recurring = sim.schedule(1.0, lambda: fired.append("recurring"))
        sim.run()
        # Re-arm, then schedule a fresh event for the same instant: the
        # re-armed entry consumed the earlier sequence number and fires first.
        sim.reschedule(recurring, 1.0)
        sim.schedule(1.0, lambda: fired.append("fresh"))
        sim.run()
        assert fired == ["recurring", "recurring", "fresh"]

    def test_reschedule_requires_a_fired_event(self):
        sim = Simulator()
        pending = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(pending, 1.0)
        cancelled = sim.schedule(1.0, lambda: None)
        cancelled.cancel()
        with pytest.raises(SimulationError):
            sim.reschedule(cancelled, 1.0)

    def test_reschedule_validates_delay_and_counts(self):
        sim = Simulator()
        handle = sim.schedule(0.0, lambda: None)
        sim.run()
        scheduled_before = sim.events_scheduled
        with pytest.raises(SimulationError):
            sim.reschedule(handle, -1.0)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, float("nan"))
        sim.reschedule(handle, 1.0)
        assert sim.events_scheduled == scheduled_before + 1

    def test_rescheduled_event_can_be_cancelled(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.0, lambda: fired.append(1))
        sim.run()
        sim.reschedule(handle, 1.0)
        assert handle.cancel() is True
        sim.run()
        assert fired == [1]


class TestSharedTickProcess:
    def test_members_tick_in_join_order_every_round(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        order = []
        driver.join(lambda count: order.append(("a", count)))
        driver.join(lambda count: order.append(("b", count)))
        sim.run(until=2.5)
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        assert driver.rounds == 2

    def test_false_return_and_stop_deregister(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        counts = {"a": 0, "b": 0}

        def once(count):
            counts["a"] += 1
            return False

        driver.join(once)
        member_b = driver.join(lambda count: counts.__setitem__("b", counts["b"] + 1))
        sim.run(until=3.5)
        assert counts["a"] == 1
        assert counts["b"] == 3
        member_b.stop()
        assert driver.live_members == 0
        # The pending round event is cancelled: nothing else fires.
        processed = sim.events_processed
        sim.run()
        assert sim.events_processed == processed

    def test_one_event_per_round_regardless_of_member_count(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        for _ in range(50):
            driver.join(lambda count: None)
        sim.run(until=4.5)
        assert driver.rounds == 4
        assert sim.events_processed == 4  # one heap entry per round

    def test_member_joining_between_rounds_keeps_its_own_grid(self):
        """Per-member grid semantics (matches TickProcess): a member joining
        at t=1.5 first ticks a full period later, at t=2.5 -- not at the
        other members' 2.0 round.  Its instants occupy separate buckets."""
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        driver.join(lambda count: None)  # ticks at t=1, 2, 3, ...
        ticks = []
        sim.schedule(1.5, lambda: driver.join(lambda count: ticks.append(sim.now)))
        sim.run(until=3.5)
        assert ticks == [2.5, 3.5]  # its own offset grid, like a TickProcess

    def test_member_joining_mid_round_first_ticks_next_round(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        order = []

        def joiner(count):
            order.append(("first", count))
            if count == 0:
                driver.join(lambda c: order.append(("late", c)))

        driver.join(joiner)
        sim.run(until=2.5)
        # The late member joined *during* the t=1 tick, so its bucket slot at
        # t=2 was claimed before "first" re-armed -- exactly the order a
        # fresh TickProcess created inside the callback would produce.
        assert order == [("first", 0), ("late", 0), ("first", 1)]

    def test_rejoin_after_everyone_left_rearms(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        first = driver.join(lambda count: None)
        sim.run(until=1.5)
        first.stop()
        sim.run()
        ticks = []
        driver.join(ticks.append)
        sim.run(until=sim.now + 2.5)
        assert len(ticks) == 2

    def test_stopped_members_leave_their_bucket(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        ticks = []
        members = [driver.join(lambda count, i=i: ticks.append(i)) for i in range(10)]
        for member in members[:9]:
            member.stop()
        sim.run(until=1.5)
        assert driver.live_members == 1
        assert ticks == [9]  # only the survivor ticked
        assert driver.pending_instants == 1  # its next bucket, nothing stale

    def test_drifting_members_occupy_distinct_instants(self):
        from repro.sim.clock import ConstantRateDrift, LocalClock

        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        times = {"fast": [], "slow": []}
        fast_clock = LocalClock(0.5, 2.0, drift_model=ConstantRateDrift(2.0))
        slow_clock = LocalClock(0.5, 2.0, drift_model=ConstantRateDrift(0.5))
        driver.join(lambda count: times["fast"].append(sim.now), clock=fast_clock)
        driver.join(lambda count: times["slow"].append(sim.now), clock=slow_clock)
        sim.run(until=4.0)
        # Rate 2 ticks every 0.5 real units; rate 0.5 every 2 real units --
        # exactly what a private TickProcess on each clock would do.
        assert times["fast"] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert times["slow"] == [2.0, 4.0]
        # The shared instants (2.0, 4.0) rode one bucket each.
        assert driver.rounds == len(set(times["fast"]) | set(times["slow"]))

    def test_membership_duck_types_tick_process(self):
        sim = Simulator()
        driver = SharedTickProcess(sim, period=1.0)
        member = driver.join(lambda count: None)
        assert member.ticks == 0 and member.stopped is False
        sim.run(until=1.5)
        assert member.ticks == 1
        member.stop()
        assert member.stopped is True


class TestBatchTicksMode:
    """The opt-in shared-round driver: identical elections, fewer events."""

    def test_outcomes_identical_to_per_node_ticks(self):
        for n in (8, 16):
            for seed in range(8):
                per_node = asdict(run_election(n, a0=0.3, seed=seed, batch_ticks=False))
                batched = asdict(run_election(n, a0=0.3, seed=seed, batch_ticks=True))
                per_node_events = per_node.pop("events_processed")
                batched_events = batched.pop("events_processed")
                assert per_node == batched, f"n={n} seed={seed}"
                # The whole point: one event per activation round, not per node.
                assert batched_events < per_node_events

    def test_batch_ticks_composes_with_fifo(self):
        kwargs = dict(a0=0.3, seed=5, fifo=True)
        plain = asdict(run_election(12, batch_ticks=False, **kwargs))
        batched = asdict(run_election(12, batch_ticks=True, **kwargs))
        plain.pop("events_processed")
        batched.pop("events_processed")
        assert plain == batched

    def test_batch_ticks_is_deterministic(self):
        first = run_election(10, a0=0.3, seed=9, batch_ticks=True)
        second = run_election(10, a0=0.3, seed=9, batch_ticks=True)
        assert first == second

    def test_batch_ticks_tolerates_drifting_clocks(self):
        """The e8 workload: random-walk drift within loose bounds.  The
        drift-tolerant driver buckets ticks per instant, so outcomes match
        per-node ticking bit for bit (only event granularity differs)."""
        from repro.sim.clock import RandomWalkDrift

        for seed in range(4):
            kwargs = dict(
                a0=0.3,
                seed=seed,
                clock_bounds=(0.5, 2.0),
                clock_drift_factory=lambda uid: RandomWalkDrift(
                    initial_rate=1.25, step=0.15
                ),
            )
            per_node = asdict(run_election(8, batch_ticks=False, **kwargs))
            batched = asdict(run_election(8, batch_ticks=True, **kwargs))
            per_node.pop("events_processed")
            batched.pop("events_processed")
            assert per_node == batched, f"seed={seed}"


class TestSummedExternalCounters:
    def test_same_source_binds_once(self):
        metrics = MetricsCollector()
        box = {"value": 0}
        source = object()
        for _ in range(5):  # every node program of a run binds the shared status
            metrics.bind_external_sum("hits", source, lambda: box["value"])
        box["value"] = 3
        assert metrics.count("hits") == 3.0

    def test_distinct_sources_sum(self):
        metrics = MetricsCollector()
        a, b = {"value": 2}, {"value": 5}
        metrics.bind_external_sum("hits", a, lambda: a["value"])
        metrics.bind_external_sum("hits", b, lambda: b["value"])
        assert metrics.count("hits") == 7.0
        assert metrics.counters()["hits"] == 7.0

    def test_zero_valued_sum_is_hidden_like_an_untouched_counter(self):
        metrics = MetricsCollector()
        box = {"value": 0}
        metrics.bind_external_sum("hits", box, lambda: box["value"])
        assert "hits" not in metrics.counters()
        assert "hits" not in metrics.summary()
        assert metrics.count("hits") == 0.0
        box["value"] = 1
        assert metrics.counters()["hits"] == 1.0

    def test_summed_names_are_read_only_through_the_collector(self):
        metrics = MetricsCollector()
        metrics.bind_external_sum("hits", self, lambda: 1)
        with pytest.raises(ValueError):
            metrics.increment("hits")

    def test_binding_styles_cannot_mix(self):
        metrics = MetricsCollector()
        metrics.bind_external("plain", lambda: 1)
        with pytest.raises(ValueError):
            metrics.bind_external_sum("plain", self, lambda: 1)
        other = MetricsCollector()
        other.bind_external_sum("summed", self, lambda: 1)
        with pytest.raises(ValueError):
            other.bind_external("summed", lambda: 1)

    def test_collector_owned_names_cannot_be_rebound(self):
        metrics = MetricsCollector()
        metrics.increment("hits")
        with pytest.raises(ValueError):
            metrics.bind_external_sum("hits", self, lambda: 1)
