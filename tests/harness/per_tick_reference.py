"""Per-tick reference implementation of the election's activation rule.

The paper's rule, verbatim: an idle node flips a ``1 - (1 - A0)^d`` coin at
every tick of its local clock.  This program flips every one of those coins:
one engine event per node and tick, each scheduled ahead of same-instant
message deliveries (priority ``-1``), as both election cores order them.
It is deliberately small and slow -- the statistical reference that
``tests/oracles/test_activation_parity.py`` checks both election cores
against, never a production path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.core.messages import HopMessage
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import unidirectional_ring

#: Ticks sort before deliveries (priority 0) at the same instant.
TICK_PRIORITY = -1


class PerTickProgram(NodeProgram):
    """Section 3's state machine with one coin flip per local clock tick."""

    def __init__(self, shared: Dict[str, Any], a0: float) -> None:
        super().__init__()
        self.shared = shared
        self.decay = 1.0 - a0
        self.state = "idle"
        self.d = 1

    def on_start(self) -> None:
        node = self.node
        self._coin = node.rng.random
        self._clock = node.clock
        self._simulator = node.network.simulator
        self._arm_tick()

    def _arm_tick(self) -> None:
        now = self._simulator.now
        due = now + self._clock.real_duration_for_local(now, 1.0)
        self._simulator.schedule_call_at(due, self._tick, None, TICK_PRIORITY)

    def _tick(self, _: None) -> None:
        state = self.state
        if state == "passive" or state == "leader":
            return
        self.shared["ticks"] += 1
        if state == "idle" and self._coin() < 1.0 - self.decay ** self.d:
            self.state = "active"
            self.shared["activations"] += 1
            self.send(0, HopMessage(hop=1))
        self._arm_tick()

    def on_receive(self, payload: HopMessage, port: int) -> None:
        hop = payload.hop
        self.d = max(self.d, hop)
        if self.state == "idle":
            self.state = "passive"
            self.send(0, HopMessage(hop=self.d + 1))
        elif self.state == "passive":
            self.send(0, HopMessage(hop=self.d + 1))
        elif self.state == "active":
            if hop == self.n:
                self.state = "leader"
                self.shared["election_time"] = self.now
                self.node.network.request_stop()
            else:
                self.state = "idle"


def run_per_tick_election(
    n: int,
    *,
    a0: float,
    delay: Any,
    seed: int,
    clock_bounds: tuple = (1.0, 1.0),
    clock_drift_factory: Optional[Callable[[int], Any]] = None,
    max_events: int = 2_000_000,
) -> Dict[str, Any]:
    """One reference election; the four metrics the oracle compares."""
    shared: Dict[str, Any] = {"ticks": 0, "activations": 0, "election_time": None}
    config = NetworkConfig(
        topology=unidirectional_ring(n),
        delay_model=delay,
        seed=seed,
        clock_bounds=clock_bounds,
        clock_drift_factory=clock_drift_factory,
        enable_trace=False,
    )
    network = Network(config, lambda uid: PerTickProgram(shared, a0))
    network.run(max_events=max_events)
    return {
        "elected": shared["election_time"] is not None,
        "messages_total": network.messages_sent(),
        "election_time": shared["election_time"],
        "activations": shared["activations"],
        "ticks": shared["ticks"],
    }
