"""Regression tests for the zero-overhead message path.

Covers the handle-free engine delivery path (``schedule_call_at``),
truthful event handles, fresh per-message envelopes, the null tracer, the
before-event stop-predicate hook, FIFO ordering, and -- most importantly --
bit-identity of full election runs with the values recorded on the
pre-refactor code.
"""

from __future__ import annotations

import pytest

from repro.core.runner import build_election_network, run_election, run_election_on_network
from repro.network.delays import ConstantDelay, UniformDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import Topology, unidirectional_ring
from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import NULL_TRACER, NullTracer, Tracer


class TestScheduleCallFastPath:
    def test_interleaves_with_schedule_in_scheduling_order(self, simulator):
        """Equal timestamps fire strictly in scheduling order across both APIs."""
        fired = []
        simulator.schedule(1.0, lambda: fired.append("ev-a"))
        simulator.schedule_call_at(1.0, fired.append, "fast-b")
        simulator.schedule_at(1.0, lambda: fired.append("ev-c"))
        simulator.schedule_call_at(1.0, fired.append, "fast-d")
        simulator.run()
        assert fired == ["ev-a", "fast-b", "ev-c", "fast-d"]

    def test_schedule_call_at_orders_by_time_and_priority(self, simulator):
        fired = []
        simulator.schedule_call_at(2.0, fired.append, "late")
        simulator.schedule_call_at(1.0, fired.append, "early-low", priority=1)
        simulator.schedule_call_at(1.0, fired.append, "early-high", priority=0)
        simulator.run()
        assert fired == ["early-high", "early-low", "late"]

    def test_counts_as_scheduled_and_processed(self, simulator):
        simulator.schedule_call_at(0.5, lambda arg: None)
        simulator.schedule_call_at(1.0, lambda arg: None)
        assert simulator.events_scheduled == 2
        assert simulator.pending == 2
        simulator.run()
        assert simulator.events_processed == 2
        assert simulator.now == 1.0

    def test_validation_matches_schedule_at(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule_call_at(-0.1, lambda arg: None)
        with pytest.raises(SimulationError):
            simulator.schedule_call_at(float("nan"), lambda arg: None)
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        for schedule in (simulator.schedule_call_at, simulator.schedule_at):
            with pytest.raises(SimulationError, match="before current time"):
                schedule(1.0, lambda *arg: None)
        assert simulator.events_scheduled == 1

    def test_respects_horizon_and_event_cap(self, simulator):
        fired = []
        for t in (1.0, 2.0, 8.0):
            simulator.schedule_call_at(t, fired.append, t)
        assert simulator.run(until=5.0) == 5.0
        assert fired == [1.0, 2.0]
        simulator.schedule_call_at(15.0, fired.append, "capped-out")
        simulator.run(max_events=1)
        assert fired == [1.0, 2.0, 8.0]

    def test_single_event_run_fires_fast_entries(self, simulator):
        fired = []
        simulator.schedule_call_at(1.0, fired.append, "x")
        simulator.schedule_call_at(2.0, fired.append, "y")
        assert simulator.run(max_events=1) == 1.0
        assert fired == ["x"]
        assert simulator.events_processed == 1
        assert simulator.pending == 1

    def test_listeners_do_not_see_fast_entries(self, simulator):
        seen = []
        simulator.add_listener(seen.append)
        simulator.schedule_call_at(1.0, lambda arg: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert len(seen) == 1  # only the regular event

    def test_before_event_hook_sees_every_entry(self, simulator):
        ticks = []
        simulator.add_before_event(lambda: ticks.append(simulator.now))
        simulator.schedule_call_at(1.0, lambda arg: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert ticks == [1.0, 2.0]

    def test_hook_installed_mid_run_takes_effect(self, simulator):
        """A hook installed by a callback during run() governs later events."""
        fired = []
        simulator.schedule(1.0, lambda: simulator.add_before_event(simulator.stop))
        simulator.schedule(2.0, lambda: fired.append("a"))
        simulator.schedule(3.0, lambda: fired.append("b"))
        simulator.run()
        # The hook stops the run before 3.0; 2.0's event still fires because
        # stop() takes effect after the current event, like stop_when.
        assert fired == ["a"]

    def test_stop_when_registered_mid_run_takes_effect(self):
        """A program may install its stop predicate during the run."""
        received = []

        class LateStopper(NodeProgram):
            def on_start(self):
                if self.node.uid == 0:
                    self.send(0, 0)

            def on_receive(self, payload, port):
                received.append(payload)
                if payload == 3:
                    self.node.network.stop_when(lambda: True)
                self.send(0, payload + 1)

        config = NetworkConfig(
            topology=unidirectional_ring(2),
            delay_model=ConstantDelay(1.0),
            seed=0,
            enable_trace=False,
        )
        network = Network(config, lambda uid: LateStopper())
        network.run(max_events=1000)
        # The predicate is evaluated before the event after its registration:
        # that one delivery still fires, then the run stops.
        assert received == [0, 1, 2, 3, 4]


class TestEventHandles:
    def test_retained_handles_stay_truthful(self):
        sim = Simulator()
        handle = sim.schedule(0.0, lambda: None)
        sim.run()
        assert handle.fired
        assert handle.cancel() is False

    def test_later_events_leak_no_state(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append("first"), payload={"secret": 1})
        sim.run()
        handle = sim.schedule(1.0, lambda: fired.append("second"), payload=None)
        assert handle.payload is None
        assert not handle.fired and not handle.cancelled
        sim.run()
        assert fired == ["first", "second"]


class RelayOnce(NodeProgram):
    """Send one message per received message, up to a budget."""

    def __init__(self, budget):
        super().__init__()
        self.budget = budget

    def on_start(self):
        if self.node.uid == 0:
            self.send(0, {"hops": 0})

    def on_receive(self, payload, port):
        if self.budget["remaining"] > 0:
            self.budget["remaining"] -= 1
            self.send(0, {"hops": payload["hops"] + 1})


class TestEnvelopes:
    def _relay_network(self, enable_trace: bool, messages: int = 40) -> Network:
        budget = {"remaining": messages - 1}
        config = NetworkConfig(
            topology=unidirectional_ring(3),
            delay_model=ConstantDelay(1.0),
            seed=0,
            enable_trace=enable_trace,
        )
        return Network(config, lambda uid: RelayOnce(budget))

    def test_no_state_leaks_across_messages(self):
        """Every delivered payload is exactly the one sent for that hop."""
        received = []

        class Checker(NodeProgram):
            def on_start(self):
                if self.node.uid == 0:
                    self.send(0, {"hops": 0})

            def on_receive(self, payload, port):
                received.append(payload["hops"])
                if payload["hops"] < 30:
                    self.send(0, {"hops": payload["hops"] + 1})

        config = NetworkConfig(
            topology=unidirectional_ring(3),
            delay_model=ConstantDelay(1.0),
            seed=0,
            enable_trace=False,
        )
        network = Network(config, lambda uid: Checker())
        network.run()
        assert received == list(range(31))

    def test_retained_envelope_is_never_reused(self):
        # Budget 0: receivers never forward, so the injected payload is inert.
        network = self._relay_network(enable_trace=False, messages=1)
        channel = network.channels[0]
        kept = channel.transmit({"hops": "kept"})
        network.run()
        # The retained envelope kept its identity and fields after delivery.
        assert kept.payload == {"hops": "kept"}
        assert channel.transmit("again") is not kept


class TestNullTracer:
    def test_disabled_network_uses_shared_null_tracer(self):
        config = NetworkConfig(
            topology=unidirectional_ring(2),
            delay_model=ConstantDelay(1.0),
            seed=0,
            enable_trace=False,
        )
        network = Network(config, lambda uid: RelayOnce({"remaining": 0}))
        assert network.tracer is NULL_TRACER
        assert isinstance(network.tracer, Tracer)
        network.run()
        assert len(network.tracer) == 0
        # Incidental trace calls stay valid no-ops.
        network.nodes[0].program.trace("anything", detail=1)
        assert len(NULL_TRACER) == 0

    def test_null_tracer_cannot_be_enabled(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        with pytest.raises(ValueError):
            tracer.enabled = True

    def test_channels_skip_tracer_only_when_disabled(self):
        for enable_trace, expected in ((True, True), (False, False)):
            config = NetworkConfig(
                topology=unidirectional_ring(2),
                delay_model=ConstantDelay(1.0),
                seed=0,
                enable_trace=enable_trace,
            )
            network = Network(config, lambda uid: RelayOnce({"remaining": 0}))
            assert all(
                (channel._tracer is not None) == expected
                for channel in network.channels
            )

    def test_metrics_read_back_externally_counted_messages(self):
        budget = {"remaining": 9}
        config = NetworkConfig(
            topology=unidirectional_ring(2),
            delay_model=ConstantDelay(1.0),
            seed=0,
            enable_trace=False,
        )
        network = Network(config, lambda uid: RelayOnce(budget))
        network.run()
        assert network.messages_sent() == 10
        assert network.metrics.count("messages_sent") == 10
        assert network.metrics.count("messages_delivered") == 10
        assert network.metrics.count("deliveries") == 10
        assert network.metrics.counters()["messages_sent"] == 10
        assert network.metrics.summary()["messages_sent"] == 10
        with pytest.raises(ValueError):
            network.metrics.increment("messages_sent")


class TestFifoClamp:
    """FIFO ordering and determinism hold for bursts of widely spread delays
    (the sampled delays must never bypass the FIFO clamp)."""

    def _burst_network(self, seed: int):
        topology = Topology(n=2, edges=[(0, 1)], name="pair")
        received = []

        class Burst(NodeProgram):
            def on_start(self):
                if self.node.uid == 0:
                    for index in range(6):
                        self.send(0, f"msg-{index}")

            def on_receive(self, payload, port):
                received.append(payload)

        config = NetworkConfig(
            topology=topology,
            delay_model=UniformDelay(0.0, 10.0),
            seed=seed,
            fifo=True,
            enable_trace=False,
        )
        return Network(config, lambda uid: Burst()), received

    def test_fifo_order_preserved_for_every_seed(self):
        for seed in range(20):
            network, received = self._burst_network(seed)
            network.run()
            assert received == [f"msg-{i}" for i in range(6)], f"seed {seed}"

    def test_fifo_is_deterministic_per_seed(self):
        first_network, first = self._burst_network(3)
        first_network.run()
        first_times = [c.total_delay for c in first_network.channels]
        second_network, second = self._burst_network(3)
        second_network.run()
        assert first == second
        assert first_times == [c.total_delay for c in second_network.channels]

    def test_fifo_election_deterministic(self):
        a = run_election(8, a0=0.3, seed=11, fifo=True)
        b = run_election(8, a0=0.3, seed=11, fifo=True)
        assert a == b
        assert a.elected


class TestElectionBitIdentity:
    """Readable pins on exact election results: the one delay stream (one
    ``sample`` call per message) and the one activation rule (one Geometric
    draw per idle spell) must not drift.

    First recorded on the pre-refactor code (commit aa4bb66) and
    re-recorded once when activation switched from one coin per tick to one
    draw per idle spell (see the golden provenance in
    ``tests/harness/differential.py``).
    """

    def test_scalar_election_golden(self):
        result = run_election(8, a0=0.3, seed=7)
        assert result.messages_total == 104
        assert result.election_time == 68.91162243103383
        assert result.leader_uid == 6
        assert result.events_processed == 139

    def test_election_trials_golden(self):
        from repro.experiments.workloads import election_trials

        trials = election_trials(8, trials=5, base_seed=13)
        observed = [
            [t.messages_total, t.election_time, t.leader_uid, t.events_processed]
            for t in trials
        ]
        assert observed == [
            [8, 20.57261442637278, 5, 17],
            [16, 28.307247857097764, 0, 27],
            [8, 9.68304487582973, 7, 17],
            [8, 11.335346032118204, 7, 17],
            [16, 21.61571961600581, 3, 27],
        ]

    def test_e1_run_golden(self):
        """A full (reduced-size) E1 run is bit-reproducible: same means,
        same confidence intervals, same findings.  (Four trials per size are
        far too few for the growth-order finding to mean anything; it is
        pinned as a value, not as a claim.)"""
        from repro.experiments import e1_message_complexity

        result = e1_message_complexity.run(sizes=(8, 16), trials=4, base_seed=11)
        rows = [dict(row) for row in result.table()]
        assert [row["messages_mean"] for row in rows] == [10.0, 32.0]
        assert rows[0]["messages_ci95"] == 6.364892610567416
        assert rows[1]["messages_ci95"] == 0.0
        assert result.findings["best_growth_order"] == "n log n"
        assert result.findings["max_messages_per_node"] == 2.0
        assert result.findings["all_runs_elected"] is True

    def test_stop_predicate_timing_unchanged(self):
        """The before-event hook must stop the run at exactly the event that
        crowns the leader (messages_total depends on it)."""
        network, status = build_election_network(8, a0=0.3, seed=7)
        result = run_election_on_network(network, status, a0=0.3)
        assert result.messages_total == network.messages_sent() == 104
