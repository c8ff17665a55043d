"""E9 -- stabilization of the churn-aware election under dynamic faults.

The paper elects once on a static ring; this experiment asks the
self-stabilization question the dynamic-network arc opens: **after the leader
dies, how long until the ring has a unique leader again?**  Each point runs
the churn-aware election (:mod:`repro.core.churn_election`) under a
rate-driven crash-recover process (:class:`~repro.network.churn.PeriodicChurn`
targeting the current leader), sweeping the churn interval across ring sizes.

Two structural facts shape the expected numbers:

* a unidirectional ring with a node down is *partitioned*, so
  time-to-restabilize is bounded below by the remaining outage -- leader
  downtime cannot beat the scripted ``downtime`` unless the crash misses the
  leader entirely;
* faster churn (smaller interval) means more disruptions per run and more
  re-elections, but each re-election's cost stays in the same regime -- the
  per-disruption metrics, not the totals, are the stable observable.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.analysis import recommended_a0
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping
from repro.experiments.workloads import election_spec
from repro.report import ExperimentResult, ResultTable
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import SpecNode, StudySpec
from repro.stats.confidence import confidence_interval

EXPERIMENT_ID = "e9"
TITLE = "Stabilization time of the churn-aware election vs churn rate"
CLAIM = (
    "Under scripted leader churn the election re-stabilizes to a unique live "
    "leader after every disruption, with leader-downtime governed by the "
    "scripted outage plus one re-election."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]

#: Mean gaps between leader crashes (simulated time) -- the churn-rate sweep.
DEFAULT_INTERVALS: Sequence[float] = (40.0, 80.0, 160.0)
#: Ring sizes crossed with the intervals (the topology dimension).
DEFAULT_SIZES: Sequence[int] = (8, 16)
#: Scripted outage per crash.
DEFAULT_DOWNTIME = 30.0
#: Leader crashes per trial.
DEFAULT_CRASHES = 2


def build_study(
    sizes: Sequence[int] = DEFAULT_SIZES,
    intervals: Sequence[float] = DEFAULT_INTERVALS,
    trials: int = 10,
    base_seed: int = 99,
    downtime: float = DEFAULT_DOWNTIME,
    crashes: int = DEFAULT_CRASHES,
) -> StudySpec:
    """The E9 battery: ring size x churn interval, leader-targeted churn.

    Each point carries a ``periodic`` churn node expanded per trial from the
    trial seed's ``"churn"`` stream, so the realized crash schedule varies
    across trials while staying a pure function of each derived seed.
    """
    points = []
    for n in sizes:
        a0 = recommended_a0(n)
        for interval in intervals:
            points.append(
                election_spec(
                    n,
                    trials,
                    base_seed,
                    a0=a0,
                    label=f"churn-n{n}-i{interval:g}",
                    churn=SpecNode(
                        "periodic",
                        {
                            "interval": interval,
                            "count": crashes,
                            "downtime": downtime,
                            "start": 10.0,
                            "target": "leader",
                        },
                    ),
                )
            )
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="time_to_restabilize",
        points=tuple(points),
    )


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    intervals: Sequence[float] = DEFAULT_INTERVALS,
    trials: int = 10,
    base_seed: int = 99,
    downtime: float = DEFAULT_DOWNTIME,
    crashes: int = DEFAULT_CRASHES,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the churn sweep and return the E9 result."""
    if adaptive is not None:
        adaptive = adaptive.resolved("time_to_restabilize")
    table = ResultTable(
        title="E9: stabilization under leader churn (downtime "
        f"{downtime:g}, {crashes} crashes/trial)",
        columns=[
            "n",
            "churn_interval",
            "stabilized_fraction",
            "re_elections_mean",
            "downtime_mean",
            "restabilize_mean",
            "restabilize_ci95",
            "messages_per_re_election",
            "suspicions_mean",
        ],
    )
    study = build_study(
        sizes=sizes,
        intervals=intervals,
        trials=trials,
        base_seed=base_seed,
        downtime=downtime,
        crashes=crashes,
    )
    per_point = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    grid = [(n, interval) for n in sizes for interval in intervals]
    all_stabilized = True
    unique_final_leader = True
    for (n, interval), results in zip(grid, per_point):
        ok = [r for r in results if r is not None and r.elected]
        stabilized = [r for r in ok if r.stabilized]
        all_stabilized = all_stabilized and len(stabilized) == len(results)
        unique_final_leader = unique_final_leader and all(
            r.leader_uid is not None for r in stabilized
        )
        restab = confidence_interval(
            [float(r.time_to_restabilize) for r in ok if r.re_elections > 0]
            or [0.0]
        )
        def _mean(values: Sequence[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        table.add_row(
            n=n,
            churn_interval=interval,
            stabilized_fraction=(len(stabilized) / len(results)) if results else 0.0,
            re_elections_mean=_mean([float(r.re_elections) for r in ok]),
            downtime_mean=_mean([float(r.leader_downtime) for r in ok]),
            restabilize_mean=restab.estimate,
            restabilize_ci95=restab.half_width,
            messages_per_re_election=_mean(
                [r.messages_per_re_election for r in ok if r.re_elections > 0]
            ),
            suspicions_mean=_mean([float(r.suspicions) for r in ok]),
        )
    disrupted_rows = [
        row for row in table.rows if row["re_elections_mean"] > 0
    ]
    findings = {
        "always_stabilized": all_stabilized,
        "unique_final_leader": unique_final_leader,
        # The ring partition argument: a re-election after a leader crash can
        # only finish after the recovery, so mean restabilization time is at
        # least a nontrivial fraction of the scripted outage.
        "restabilize_reflects_outage": all(
            row["restabilize_mean"] > 0.0 for row in disrupted_rows
        ),
        "disrupted_points": len(disrupted_rows),
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={
            "sizes": tuple(sizes),
            "intervals": tuple(intervals),
            "trials": trials,
            "base_seed": base_seed,
            "downtime": downtime,
            "crashes": crashes,
        },
    )
