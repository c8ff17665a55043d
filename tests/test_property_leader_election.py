"""Property-based correctness of every leader-election algorithm.

Hypothesis drives random ring sizes, seeds and delay models through the ABE
election and all four baselines, asserting the two properties that define
leader election:

* **uniqueness** -- exactly one node ends up leader (``leaders_elected == 1``
  and exactly one program reports itself elected);
* **agreement** -- the shared outcome record names that same node.

``derandomize`` keeps CI stable: the examples are a fixed, seed-independent
sweep rather than a fresh random batch per run.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import build_ring_election
from repro.algorithms.leader_election import (
    ChangRobertsProgram,
    DolevKlaweRodehProgram,
    FranklinProgram,
    ItaiRodehProgram,
)
from repro.core.runner import build_election_network, run_election_on_network
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

ring_sizes = st.integers(min_value=3, max_value=10)
seeds = st.integers(min_value=0, max_value=2**20)
delays = st.sampled_from(
    [ExponentialDelay(mean=1.0), UniformDelay(0.1, 2.0), ConstantDelay(1.0)]
)

#: (factory, needs bidirectional ring, needs FIFO, nodes have identifiers)
BASELINES = {
    "chang_roberts": (lambda uid, tally: ChangRobertsProgram(tally), False, False, True),
    "dolev_klawe_rodeh": (
        lambda uid, tally: DolevKlaweRodehProgram(tally),
        False,
        True,
        True,
    ),
    "franklin": (lambda uid, tally: FranklinProgram(tally), True, True, True),
    "itai_rodeh": (lambda uid, tally: ItaiRodehProgram(tally), False, False, False),
}


def _assert_unique_leader_with_agreement(network, decided, leader_uid, leaders_elected):
    assert decided, "no leader elected within the event budget"
    assert leaders_elected == 1, f"{leaders_elected} nodes declared themselves leader"
    elected_uids = [
        node.uid
        for node in network.nodes
        if node.program is not None and node.program.is_leader
    ]
    assert elected_uids == [leader_uid], (
        f"programs electing themselves {elected_uids} disagree with the shared "
        f"outcome record ({leader_uid})"
    )
    assert 0 <= leader_uid < network.n


@pytest.mark.parametrize("algorithm", sorted(BASELINES))
@given(n=ring_sizes, seed=seeds, delay=delays)
@SETTINGS
def test_baseline_elects_exactly_one_leader(algorithm, n, seed, delay):
    factory, bidirectional, fifo, with_ids = BASELINES[algorithm]
    network, tally = build_ring_election(
        factory,
        n,
        bidirectional=bidirectional,
        fifo=fifo,
        with_identifiers=with_ids,
        delay=delay,
        seed=seed,
    )
    network.run(max_events=500_000 + 50_000 * n)
    _assert_unique_leader_with_agreement(
        network, tally.decided, tally.leader_uid, tally.leaders_elected
    )
    assert network.metrics.count("leaders_elected") == 1


@given(
    n=ring_sizes,
    seed=seeds,
    a0=st.sampled_from([0.1, 0.3, 0.7]),
    delay=delays,
)
@SETTINGS
def test_abe_election_elects_exactly_one_leader(n, seed, a0, delay):
    network, status = build_election_network(n, a0=a0, seed=seed, delay=delay)
    result = run_election_on_network(network, status, a0=a0)
    _assert_unique_leader_with_agreement(
        network, result.elected, result.leader_uid, result.leaders_elected
    )
    assert result.hop_overflows == 0
    assert result.messages_total >= n  # the winning wave alone circles the ring
    assert network.metrics.count("ticks") == result.ticks
