"""Unit tests for channels, nodes, node programs and message envelopes."""

from __future__ import annotations

import math
from typing import Any, List

import pytest

from repro.network.channel import Channel, FifoChannel
from repro.network.delays import ConstantDelay, DelayDistribution, ExponentialDelay, UniformDelay
from repro.network.messages import Envelope
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import Topology, line_topology, unidirectional_ring
from repro.sim.engine import SimulationError


class RecordingProgram(NodeProgram):
    """Test program that records everything it receives."""

    def __init__(self) -> None:
        super().__init__()
        self.received: List[tuple] = []

    def on_receive(self, payload: Any, port: int) -> None:
        self.received.append((self.now, payload, port))


class SenderProgram(RecordingProgram):
    """Sends a burst of messages on port 0 at start-up."""

    def __init__(self, burst: int = 3) -> None:
        super().__init__()
        self.burst = burst

    def on_start(self) -> None:
        for index in range(self.burst):
            self.send(0, f"msg-{index}")


def two_node_network(delay, fifo=False, seed=0):
    topology = Topology(n=2, edges=[(0, 1)], name="pair")
    config = NetworkConfig(topology=topology, delay_model=delay, seed=seed, fifo=fifo)
    programs = {}

    def factory(uid):
        program = SenderProgram() if uid == 0 else RecordingProgram()
        programs[uid] = program
        return program

    return Network(config, factory), programs


class FixedDelay(DelayDistribution):
    """Always ``value``, including values no real delay model produces."""

    def __init__(self, value: float) -> None:
        self.value = value

    def sample(self, rng) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


def one_message_network(delay, processing):
    """Node 0 sends one message to node 1, which processes it for ``processing``."""
    topology = Topology(n=2, edges=[(0, 1)])
    config = NetworkConfig(
        topology=topology, delay_model=delay, processing_delay=processing, seed=0
    )
    programs = {}

    def factory(uid):
        program = SenderProgram(burst=1) if uid == 0 else RecordingProgram()
        programs[uid] = program
        return program

    return Network(config, factory), programs


class TestChannelDelivery:
    def test_messages_arrive_after_sampled_delay(self):
        network, programs = two_node_network(ConstantDelay(2.0))
        network.run()
        times = [t for (t, _, _) in programs[1].received]
        assert times == [2.0, 2.0, 2.0]
        assert network.messages_sent() == 3
        assert network.messages_delivered() == 3

    def test_payloads_arrive_intact(self):
        network, programs = two_node_network(ConstantDelay(1.0))
        network.run()
        assert [p for (_, p, _) in programs[1].received] == ["msg-0", "msg-1", "msg-2"]

    def test_non_fifo_channel_may_reorder(self):
        # With a widely spread delay, 3 simultaneous sends frequently reorder.
        reordered = False
        for seed in range(20):
            network, programs = two_node_network(UniformDelay(0.0, 10.0), seed=seed)
            network.run()
            payloads = [p for (_, p, _) in programs[1].received]
            if payloads != ["msg-0", "msg-1", "msg-2"]:
                reordered = True
                break
        assert reordered, "expected at least one seed to reorder on a non-FIFO channel"

    def test_fifo_channel_preserves_order_for_every_seed(self):
        for seed in range(20):
            network, programs = two_node_network(
                UniformDelay(0.0, 10.0), fifo=True, seed=seed
            )
            network.run()
            payloads = [p for (_, p, _) in programs[1].received]
            assert payloads == ["msg-0", "msg-1", "msg-2"]

    def test_channel_statistics(self):
        network, _ = two_node_network(ConstantDelay(1.5))
        network.run()
        channel = network.channels[0]
        assert channel.messages_sent == 3
        assert channel.messages_delivered == 3
        assert channel.mean_observed_delay() == pytest.approx(1.5)
        assert channel.max_observed_delay == pytest.approx(1.5)

    def test_processing_delay_postpones_handler(self):
        topology = Topology(n=2, edges=[(0, 1)])
        config = NetworkConfig(
            topology=topology,
            delay_model=ConstantDelay(1.0),
            processing_delay=ConstantDelay(0.5),
            seed=0,
        )
        programs = {}

        def factory(uid):
            program = SenderProgram(burst=1) if uid == 0 else RecordingProgram()
            programs[uid] = program
            return program

        network = Network(config, factory)
        network.run()
        assert programs[1].received[0][0] == pytest.approx(1.5)

    @pytest.mark.parametrize("processing", [-0.5, math.nan], ids=["negative", "nan"])
    def test_invalid_processing_delay_raises(self, processing):
        network, programs = one_message_network(ConstantDelay(1.0), FixedDelay(processing))
        with pytest.raises(SimulationError, match="cannot schedule"):
            network.run()
        assert network.channels[0].messages_delivered == 1
        assert programs[1].received == []

    def test_infinite_processing_delay_waits_like_an_infinite_message_delay(self):
        for delay, processing in ((FixedDelay(math.inf), None),
                                  (ConstantDelay(1.0), FixedDelay(math.inf))):
            network, programs = one_message_network(delay, processing)
            network.run(until=100.0)
            assert programs[1].received == []
            assert network.simulator.pending == 1
            network.run()
            assert programs[1].received == [(math.inf, "msg-0", 0)]

    def test_invalid_delay_model_type_rejected_on_send(self):
        topology = Topology(n=2, edges=[(0, 1)])
        config = NetworkConfig(topology=topology, delay_model=ConstantDelay(1.0), seed=0)
        network = Network(config, lambda uid: SenderProgram(burst=1) if uid == 0 else RecordingProgram())
        network.channels[0].delay_model = object()  # sabotage
        with pytest.raises(TypeError):
            network.run()


class TestNodeAndProgramApi:
    def test_send_on_invalid_port_raises(self):
        network, programs = two_node_network(ConstantDelay(1.0))
        with pytest.raises(ValueError):
            programs[0].send(5, "x")

    def test_unbound_program_raises_clear_error(self):
        program = RecordingProgram()
        with pytest.raises(RuntimeError):
            _ = program.rng

    def test_neighbor_helpers(self):
        config = NetworkConfig(
            topology=line_topology(3), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: RecordingProgram())
        middle = network.nodes[1].program
        assert set(middle.out_neighbors()) == {0, 2}
        assert middle.port_to(0) != middle.port_to(2)
        assert middle.out_neighbor(middle.port_to(2)) == 2
        with pytest.raises(ValueError):
            middle.port_to(99)
        with pytest.raises(ValueError):
            middle.out_neighbor(99)
        with pytest.raises(ValueError):
            middle.in_neighbor(99)

    def test_knowledge_items_and_size(self):
        config = NetworkConfig(
            topology=unidirectional_ring(4),
            delay_model=ConstantDelay(1.0),
            seed=0,
            size_known=True,
            knowledge_factory=lambda uid: {"id": uid * 10},
        )
        network = Network(config, lambda uid: RecordingProgram())
        program = network.nodes[2].program
        assert program.n == 4
        assert program.knowledge_item("id") == 20
        assert program.knowledge_item("missing", "default") == "default"

    def test_size_unknown_when_configured(self):
        config = NetworkConfig(
            topology=unidirectional_ring(4),
            delay_model=ConstantDelay(1.0),
            seed=0,
            size_known=False,
        )
        network = Network(config, lambda uid: RecordingProgram())
        assert network.nodes[0].program.n is None

    def test_set_timer_uses_local_time(self):
        fired = []

        class TimerProgram(NodeProgram):
            def on_start(self) -> None:
                self.set_timer(3.0, lambda: fired.append(self.now))

        config = NetworkConfig(
            topology=unidirectional_ring(2), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: TimerProgram())
        network.run()
        assert fired == [3.0, 3.0]

    def test_trace_records_subject_uid(self):
        class TracingProgram(NodeProgram):
            def on_start(self) -> None:
                self.trace("hello", value=1)

        config = NetworkConfig(
            topology=unidirectional_ring(2), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: TracingProgram())
        network.run()
        assert {e.subject for e in network.tracer.filter(category="hello")} == {0, 1}


class TestEnvelope:
    def test_in_flight_time(self):
        envelope = Envelope(
            payload="x", source=0, destination=1, channel_id=0, send_time=1.0, delay=2.0,
            deliver_time=3.5,
        )
        assert envelope.in_flight_time == pytest.approx(2.5)

    def test_in_flight_time_none_before_delivery(self):
        envelope = Envelope(
            payload="x", source=0, destination=1, channel_id=0, send_time=1.0, delay=2.0
        )
        assert envelope.in_flight_time is None

    def test_envelope_ids_are_unique(self):
        a = Envelope(payload=1, source=0, destination=1, channel_id=0, send_time=0, delay=0)
        b = Envelope(payload=2, source=0, destination=1, channel_id=0, send_time=0, delay=0)
        assert a.envelope_id != b.envelope_id
