"""Engine and message-path gate: this checkout against its parent commit.

Two kernels run on two ``src`` trees, this checkout's and the parent's:

``chain``
    A self-scheduling callback chain on :class:`~repro.sim.engine.Simulator`
    (100,000 events, fan-out 64): every fired event schedules its successor,
    the schedule/heap/fire cycle every election spends its time in.
``relay``
    A token relayed 40,000 times around a 4-node ring with
    ``ConstantDelay(1.0)`` on the real network stack: every delivery
    triggers exactly one ``transmit``, the path every election message takes.

Each reading runs in a fresh interpreter whose ``PYTHONPATH`` is one tree
and keeps the best of ``RUNS`` runs; the child refuses to measure a
``repro`` imported from anywhere else.  Each kernel gets ``PAIRS``
alternating pairs of readings, the parent first in even pairs.  The script
prints every reading and exits 1 when, on either kernel, the change's best
reading is below ``BOUND`` times the parent's.  The reference is the parent
on the same machine, so there is one bound for every host.

    git worktree add --detach ../parent HEAD^
    python benchmarks/bench_vs_parent.py ../parent/src
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Alternating (parent, change) pairs of readings per kernel.
PAIRS = 5

#: Runs inside one interpreter; a reading is the best of them.
RUNS = 3

#: The change fails when its best reading is below this share of the parent's.
BOUND = 0.8

#: Events per chain run; large enough to dwarf setup cost.
CHAIN_EVENTS = 100_000
FANOUT = 64

#: Forwarded messages per relay run.
MESSAGES = 40_000
RING_SIZE = 4


def _drive_chain(sim, n_events: int) -> None:
    """A self-scheduling workload: every fired event schedules its successor.

    Mirrors the engine usage of the election algorithm (a message delivery
    schedules the next delivery) and therefore measures push+pop+fire together.
    """
    rng = random.Random(12345)
    state = {"count": 0}

    def callback() -> None:
        state["count"] += 1
        if state["count"] < n_events:
            sim.schedule(rng.random(), callback)

    for _ in range(FANOUT):
        sim.schedule(rng.random(), callback)
    sim.run(max_events=n_events)
    assert state["count"] == n_events


def chain_events_per_second() -> float:
    """Throughput of the chain workload on a fresh simulator."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    started = time.perf_counter()
    _drive_chain(sim, CHAIN_EVENTS)
    return CHAIN_EVENTS / (time.perf_counter() - started)


def relay_messages_per_second() -> float:
    """Throughput of the relay workload on the real network stack."""
    from repro.network.delays import ConstantDelay
    from repro.network.network import Network, NetworkConfig
    from repro.network.node import NodeProgram
    from repro.network.topology import unidirectional_ring

    class RelayProgram(NodeProgram):
        """Forwards every received token until the shared budget is exhausted."""

        def __init__(self, budget: dict, starter: bool = False) -> None:
            super().__init__()
            self.budget = budget
            self.starter = starter

        def on_start(self) -> None:
            if self.starter:
                self.send(0, "token")

        def on_receive(self, payload: Any, port: int) -> None:
            budget = self.budget
            if budget["remaining"] > 0:
                budget["remaining"] -= 1
                self.send(0, payload)

    budget = {"remaining": MESSAGES - 1}
    config = NetworkConfig(
        topology=unidirectional_ring(RING_SIZE),
        delay_model=ConstantDelay(1.0),
        seed=0,
        enable_trace=False,
    )
    network = Network(config, lambda uid: RelayProgram(budget, starter=(uid == 0)))
    started = time.perf_counter()
    network.run()
    elapsed = time.perf_counter() - started
    assert network.messages_sent() == MESSAGES, network.messages_sent()
    return MESSAGES / elapsed


#: Kernel name -> (measurement, unit).
KERNELS = {
    "chain": (chain_events_per_second, "events/s"),
    "relay": (relay_messages_per_second, "messages/s"),
}


def child(kernel: str, tree: str) -> None:
    """Print the best of ``RUNS`` runs of ``kernel`` on ``repro`` from ``tree``."""
    import repro

    tree = os.path.realpath(tree)
    origin = os.path.realpath(repro.__file__)
    if os.path.commonpath([tree, origin]) != tree:
        sys.exit(f"repro was imported from {origin}, not from {tree}")
    measure, _ = KERNELS[kernel]
    print(max(measure() for _ in range(RUNS)))


def reading(kernel: str, tree: str) -> float:
    """One fresh-interpreter reading of ``kernel`` on ``tree``."""
    env = dict(os.environ, PYTHONPATH=tree)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", kernel, tree],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout
    return float(out.split()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="the parent commit's src directory")
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent_src), "change": os.path.join(ROOT, "src")}
    if not os.path.isdir(os.path.join(trees["parent"], "repro")):
        parser.error(f"{args.parent_src} holds no repro package")
    regressed = []
    for kernel, (_, unit) in KERNELS.items():
        best = {"parent": 0.0, "change": 0.0}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                value = reading(kernel, trees[side])
                best[side] = max(best[side], value)
                print(f"{kernel} pair {pair} {side:6s} {value:12,.0f} {unit}", flush=True)
        ratio = best["change"] / best["parent"]
        verdict = "ok" if ratio >= BOUND else "REGRESSED"
        print(
            f"{kernel}: change {best['change']:,.0f} vs parent {best['parent']:,.0f} "
            f"{unit} -> {ratio:.2f} (bound {BOUND}) {verdict}",
            flush=True,
        )
        if ratio < BOUND:
            regressed.append(kernel)
    return 1 if regressed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:4])
    else:
        sys.exit(main())
