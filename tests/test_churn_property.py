"""Property-based correctness of the churn-aware election.

Hypothesis generates bounded, eventually-quiescent :class:`FaultScript`\\ s --
fixed-node and leader-targeted crash/recover cycles, link outages, periodic
churn -- and asserts the stabilization contract: once the script has run dry
the election terminates with exactly one live leader among the alive nodes,
and the whole run is a pure function of the seed (serial repeat and the
parallel trial path are bit-identical).

``derandomize`` keeps CI stable: a fixed example sweep rather than a fresh
random batch per run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.churn_election import run_churn_election
from repro.network.churn import (
    CrashEvent,
    FaultScript,
    LinkDownEvent,
    PeriodicChurn,
)
from repro.scenarios.runtime import run_scenario
from repro.scenarios.spec import ScenarioSpec, SpecNode

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

N = 6  # all generated scripts target a fixed small ring

times = st.floats(min_value=0.0, max_value=120.0, allow_nan=False, allow_infinity=False)
downtimes = st.floats(min_value=1.0, max_value=60.0, allow_nan=False, allow_infinity=False)

fixed_crashes = st.builds(
    CrashEvent,
    node=st.integers(min_value=0, max_value=N - 1),
    time=times,
    downtime=downtimes,
)
leader_crashes = st.builds(
    CrashEvent, node=st.just("leader"), time=times, downtime=downtimes
)
link_downs = st.builds(
    LinkDownEvent,
    channel=st.integers(min_value=0, max_value=N - 1),
    time=times,
    duration=downtimes,
)
periodic = st.builds(
    PeriodicChurn,
    interval=st.floats(min_value=20.0, max_value=80.0),
    count=st.integers(min_value=0, max_value=2),
    downtime=downtimes,
    start=times,
    target=st.sampled_from(["any", "leader"]),
)

scripts = st.builds(
    FaultScript,
    events=st.lists(
        st.one_of(fixed_crashes, leader_crashes, link_downs, periodic),
        max_size=4,
    ).map(tuple),
)


@given(script=scripts, seed=st.integers(min_value=0, max_value=2**16))
@SETTINGS
def test_quiescent_scripts_stabilize_deterministically(script, seed):
    assert script.eventually_quiescent  # every generated disruption reverses
    result = run_churn_election(
        N, script=script, seed=seed, max_time=20_000.0, max_events=400_000
    )
    # Termination with a unique live leader among the (recovered) alive nodes.
    assert result.stabilized
    assert result.elected
    assert result.leader_uid is not None
    assert 0 <= result.leader_uid < N
    assert result.recoveries == result.crashes  # quiescence realized
    # Purity: the identical call reproduces the identical result object.
    assert result == run_churn_election(
        N, script=script, seed=seed, max_time=20_000.0, max_events=400_000
    )


periodic_params = st.fixed_dictionaries(
    {
        "interval": st.floats(min_value=30.0, max_value=90.0),
        "count": st.integers(min_value=1, max_value=2),
        "downtime": st.floats(min_value=10.0, max_value=40.0),
        "start": st.floats(min_value=0.0, max_value=30.0),
        "target": st.sampled_from(["any", "leader"]),
    }
)


@given(params=periodic_params, seed=st.integers(min_value=0, max_value=2**10))
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_parallel_trial_path_is_bit_identical(params, seed):
    # The declarative path: the same churn spec run serially and on two
    # SweepPool workers must agree result-for-result.
    spec = ScenarioSpec(
        algorithm="abe-election",
        topology=SpecNode("uniring", {"n": N}),
        seed=seed,
        trials=3,
        label="churn-property",
        churn=SpecNode("periodic", dict(params)),
    )
    serial = run_scenario(spec)
    parallel = run_scenario(spec, workers=2)
    assert serial == parallel
    assert all(r.stabilized for r in serial)
