"""A1 -- ablation: the adaptive activation schedule vs a constant schedule.

DESIGN.md design decision 3.  The paper's schedule raises a node's activation
probability as its ``d`` grows (``1 - (1 - A0)^d``), keeping the ring-wide
wake-up pressure constant as nodes become passive.  The obvious simplification
-- activate with a fixed probability ``A0`` at every tick regardless of ``d``
-- loses that property: late in the election only a couple of candidates
remain and, with the small per-node ``A0`` that linear message complexity
requires, they dawdle for a long time before retrying, blowing up the time
complexity.  This ablation quantifies the gap.
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

EXPERIMENT_ID = "a1"
TITLE = "Ablation: adaptive vs constant activation schedule"
CLAIM = (
    "The adaptive schedule 1-(1-A0)^d is required for linear *time* "
    "complexity; a constant-probability schedule pays a large time penalty at "
    "the same A0."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]

DEFAULT_SIZES: Sequence[int] = (8, 16, 32, 64)

#: Schedule variants compared per ring size, in report order.
SCHEDULE_VARIANTS: Sequence[str] = ("adaptive", "constant")


def build_study(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 25,
    base_seed: int = 101,
) -> StudySpec:
    """The A1 battery: adaptive vs constant schedule at every size."""
    points = []
    for n in sizes:
        a0 = recommended_a0(n)
        for variant in SCHEDULE_VARIANTS:
            points.append(
                election_spec(
                    n,
                    trials,
                    base_seed,
                    a0=a0,
                    schedule=SpecNode(variant, {"a0": a0}),
                    label=f"{variant}-n{n}",
                )
            )
    return StudySpec(
        name=EXPERIMENT_ID, title=TITLE, metric="election_time", points=tuple(points)
    )


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 25,
    base_seed: int = 101,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the schedule ablation and return the A1 result."""
    if adaptive is not None:
        adaptive = adaptive.resolved("election_time")
    table = ResultTable(
        title="A1: adaptive vs constant activation schedule (same A0 per size)",
        columns=[
            "n",
            "schedule",
            "a0",
            "messages_mean",
            "time_mean",
            "time_ci95",
            "activations_mean",
            "all_elected",
        ],
    )
    time_ratio_worst = 0.0
    sizes = list(sizes)
    study = build_study(sizes=sizes, trials=trials, base_seed=base_seed)
    per_point = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for size_index, n in enumerate(sizes):
        a0 = recommended_a0(n)
        per_schedule_time = {}
        for variant_index, label in enumerate(SCHEDULE_VARIANTS):
            results = per_point[size_index * len(SCHEDULE_VARIANTS) + variant_index]
            elected = [r for r in results if r.elected]
            messages = confidence_interval([float(r.messages_total) for r in elected])
            times = confidence_interval(
                [float(r.election_time) for r in elected if r.election_time is not None]
            )
            activations = sum(r.activations for r in elected) / len(elected)
            per_schedule_time[label] = times.estimate
            table.add_row(
                n=n,
                schedule=label,
                a0=a0,
                messages_mean=messages.estimate,
                time_mean=times.estimate,
                time_ci95=times.half_width,
                activations_mean=activations,
                all_elected=len(elected) == len(results),
            )
        ratio = per_schedule_time["constant"] / per_schedule_time["adaptive"]
        time_ratio_worst = max(time_ratio_worst, ratio)
    table.add_note(
        "the constant schedule keeps the same per-node A0, so its early "
        "behaviour matches the adaptive schedule; the gap opens in the endgame "
        "when few idle candidates remain."
    )
    findings = {
        "constant_schedule_slower": time_ratio_worst > 1.0,
        "worst_time_ratio_constant_over_adaptive": time_ratio_worst,
        "adaptive_needed_for_linear_time": time_ratio_worst > 1.5,
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={"sizes": tuple(sizes), "trials": trials, "base_seed": base_seed},
    )
