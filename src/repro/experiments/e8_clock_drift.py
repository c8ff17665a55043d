"""E8 -- robustness to clock drift within the (s_low, s_high) bounds.

Definition 1(2) only assumes *bounds* on the local clock rates; individual
clocks may drift arbitrarily within them.  The election algorithm's clock
ticks therefore arrive at irregular real-time intervals, and nodes with fast
clocks flip their activation coins more often than nodes with slow clocks.

The experiment runs the election with increasingly loose clock-rate bounds
(drift ratio ``s_high / s_low`` from 1 up to 8, with per-node random-walk
drift) and checks that a unique leader is still always elected and that the
average cost degrades only mildly -- the algorithm never relies on clock
agreement, only on each node ticking at a bounded rate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.analysis import recommended_a0
from repro.experiments.parallel import SweepPool
from repro.experiments.results import ExperimentResult, ResultTable
from repro.experiments.runner import AdaptiveStopping
from repro.experiments.workloads import election_spec
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import SpecNode, StudySpec
from repro.stats.confidence import confidence_interval

EXPERIMENT_ID = "e8"
TITLE = "Election cost under bounded clock drift"
CLAIM = (
    "Known bounds (s_low, s_high) on clock rates suffice: the algorithm stays "
    "correct under drift and its average cost degrades gracefully."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "run"]

DEFAULT_BOUNDS: Sequence[Tuple[float, float]] = (
    (1.0, 1.0),
    (0.9, 1.1),
    (0.75, 1.5),
    (0.5, 2.0),
    (0.25, 2.0),
)


def build_study(
    n: int = 32,
    clock_bounds: Sequence[Tuple[float, float]] = DEFAULT_BOUNDS,
    trials: int = 20,
    base_seed: int = 88,
) -> StudySpec:
    """The E8 battery: the same ring under increasingly loose clock bounds.

    Each point carries a ``random-walk`` drift node; the runtime builds one
    fresh :class:`~repro.sim.clock.RandomWalkDrift` per node, exactly like
    the per-uid factory closures this module used to hand-write.
    """
    a0 = recommended_a0(n)
    points = []
    for s_low, s_high in clock_bounds:
        drift_step = 0.0 if s_low == s_high else (s_high - s_low) / 10.0
        points.append(
            election_spec(
                n,
                trials,
                base_seed,
                a0=a0,
                label=f"drift-{s_low}-{s_high}",
                clock_bounds=(s_low, s_high),
                drift=SpecNode(
                    "random-walk",
                    {"initial_rate": (s_low + s_high) / 2.0, "step": drift_step},
                ),
            )
        )
    return StudySpec(
        name=EXPERIMENT_ID, title=TITLE, metric="messages_total", points=tuple(points)
    )


def run(
    n: int = 32,
    clock_bounds: Sequence[Tuple[float, float]] = DEFAULT_BOUNDS,
    trials: int = 20,
    base_seed: int = 88,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the clock-drift sweep and return the E8 result."""
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")
    table = ResultTable(
        title=f"E8: election cost on a ring of n={n} under clock drift",
        columns=[
            "s_low",
            "s_high",
            "drift_ratio",
            "messages_mean",
            "messages_ci95",
            "time_mean",
            "time_ci95",
            "all_elected",
            "unique_leader_always",
        ],
    )
    baseline_messages = None
    baseline_time = None
    worst_message_factor = 1.0
    worst_time_factor = 1.0
    study = build_study(n=n, clock_bounds=clock_bounds, trials=trials, base_seed=base_seed)
    per_bounds = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for (s_low, s_high), results in zip(clock_bounds, per_bounds):
        elected = [r for r in results if r.elected]
        messages = confidence_interval([float(r.messages_total) for r in elected])
        times = confidence_interval(
            [float(r.election_time) for r in elected if r.election_time is not None]
        )
        if baseline_messages is None:
            baseline_messages = messages.estimate
            baseline_time = times.estimate
        worst_message_factor = max(
            worst_message_factor, messages.estimate / baseline_messages
        )
        worst_time_factor = max(worst_time_factor, times.estimate / baseline_time)
        table.add_row(
            s_low=s_low,
            s_high=s_high,
            drift_ratio=s_high / s_low,
            messages_mean=messages.estimate,
            messages_ci95=messages.half_width,
            time_mean=times.estimate,
            time_ci95=times.half_width,
            all_elected=len(elected) == len(results),
            unique_leader_always=all(r.leaders_elected == 1 for r in elected),
        )
    findings = {
        "always_elected": all(table.column("all_elected")),
        "always_unique_leader": all(table.column("unique_leader_always")),
        "worst_message_factor_vs_driftfree": worst_message_factor,
        "worst_time_factor_vs_driftfree": worst_time_factor,
        "degradation_within_3x": worst_message_factor <= 3.0 and worst_time_factor <= 3.0,
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={
            "n": n,
            "clock_bounds": tuple(clock_bounds),
            "trials": trials,
            "base_seed": base_seed,
        },
    )
