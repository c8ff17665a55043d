"""Regression tests: swapping a channel's delay model mid-run is stale-free.

Audit of ``Channel.set_delay_model``.  The dangerous failure mode of a
mid-run delay-model swap is *serving a delay drawn from the previous
distribution*; on a FIFO channel that bug would be doubly invisible, because
the FIFO clamp already reorders delivery times.  These tests pin the
contract:

* after a swap, every delay comes from the new distribution;
* the FIFO no-overtaking clamp survives the swap (delivery order is
  per-channel history, not per-model state);
* the whole procedure is deterministic per seed.
"""

from __future__ import annotations

from typing import Any, List

from repro.network.delays import ConstantDelay, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import Topology


class _Sink(NodeProgram):
    def __init__(self, received: List[Any]) -> None:
        super().__init__()
        self._received = received

    def on_receive(self, payload: Any, port: int) -> None:
        self._received.append((self.now, payload))


def _pair_network(seed: int = 3, fifo: bool = True):
    received: List[Any] = []
    config = NetworkConfig(
        topology=Topology(n=2, edges=[(0, 1)], name="pair"),
        delay_model=ExponentialDelay(mean=1.0),
        seed=seed,
        fifo=fifo,
        enable_trace=False,
    )
    network = Network(config, lambda uid: _Sink(received))
    return network, network.channels[0], received


class TestMidRunDelayModelSwap:
    def test_no_stale_draws_after_swap_on_fifo_channel(self):
        network, channel, received = _pair_network()
        pre_swap = [channel.transmit(f"pre-{i}").delay for i in range(4)]
        assert any(delay != 2.5 for delay in pre_swap)

        def swap() -> None:
            channel.set_delay_model(ConstantDelay(2.5))

        network.simulator.schedule(1.0, swap)

        post_swap_delays: List[float] = []

        def send_after_swap() -> None:
            for i in range(8):
                post_swap_delays.append(channel.transmit(f"post-{i}").delay)

        network.simulator.schedule(2.0, send_after_swap)
        network.run()
        # Every single delay drawn after the swap is the new constant.
        assert post_swap_delays == [2.5] * 8
        assert len(received) == 12

    def test_fifo_clamp_survives_the_swap(self):
        """Messages sent after a swap to a much faster model must still not
        overtake slower pre-swap messages on a FIFO channel."""
        network, channel, received = _pair_network(seed=11)

        def swap_and_burst() -> None:
            channel.set_delay_model(ConstantDelay(0.001))
            for i in range(5):
                channel.transmit(f"fast-{i}")

        for i in range(5):
            channel.transmit(f"slow-{i}")
        network.simulator.schedule(0.5, swap_and_burst)
        network.run()
        payloads = [payload for _, payload in received]
        assert payloads == [f"slow-{i}" for i in range(5)] + [
            f"fast-{i}" for i in range(5)
        ]
        times = [time for time, _ in received]
        assert times == sorted(times)

    def test_swap_procedure_is_deterministic_per_seed(self):
        def run_once():
            network, channel, received = _pair_network(seed=7)
            for i in range(3):
                channel.transmit(f"pre-{i}")
            network.simulator.schedule(
                1.0, lambda: channel.set_delay_model(ExponentialDelay(mean=0.25))
            )
            network.simulator.schedule(
                2.0, lambda: [channel.transmit(f"post-{i}") for i in range(6)]
            )
            network.run()
            return received

        assert run_once() == run_once()

    def test_swap_on_a_non_fifo_channel_applies_to_the_next_send(self):
        network, channel, received = _pair_network(fifo=False)
        channel.transmit("before")
        channel.set_delay_model(ConstantDelay(1.5))
        envelope = channel.transmit("after")
        assert envelope.delay == 1.5
        assert envelope.deliver_time == envelope.send_time + 1.5
        network.run()
        assert [payload for _, payload in received].count("after") == 1

    def test_swap_keeps_the_channel_stream_position(self):
        """The channel keeps its rng across a swap: re-assigning the same
        distribution object leaves the delays exactly as if no swap happened,
        and the draws already made are not replayed."""
        _, swapped, _ = _pair_network(seed=5)
        _, untouched, _ = _pair_network(seed=5)
        before = [swapped.transmit(i).delay for i in range(4)]
        swapped.set_delay_model(swapped.delay_model)
        after = [swapped.transmit(i).delay for i in range(4, 10)]
        assert before + after == [untouched.transmit(i).delay for i in range(10)]
        assert after[:4] != before
