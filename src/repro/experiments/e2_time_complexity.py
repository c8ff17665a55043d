"""E2 -- average time complexity of the ABE election is linear in ``n``.

Paper claim (Sections 1 and 3): with the adaptive activation schedule the
algorithm also has *average linear time complexity* -- the overall wake-up
pressure stays constant, so only O(1) activation waves are needed and each
wave costs O(n * delta) simulated time.

Identical sweep to E1 but the measured quantity is the simulated real time at
which the leader decides; growth is the log-log slope of the mean election
time with its 95% CI (:func:`repro.report.study_scaling_fits`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.analysis import recommended_a0
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping, adaptive_parameters
from repro.experiments.workloads import DEFAULT_RING_SIZES, DEFAULT_TRIALS, election_spec
from repro.report import (
    ExperimentResult,
    ResultTable,
    format_slope,
    slope_findings,
    study_scaling_fits,
)
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import StudySpec
from repro.stats.confidence import confidence_interval

EXPERIMENT_ID = "e2"
TITLE = "Average time complexity of the ABE election"
CLAIM = (
    "The election algorithm has average linear time complexity on anonymous "
    "unidirectional ABE rings of known size n."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]


def build_study(
    sizes: Sequence[int] = DEFAULT_RING_SIZES,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = 22,
) -> StudySpec:
    """The E2 battery: identical sweep to E1, targeting the election time."""
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="election_time",
        points=tuple(election_spec(n, trials, base_seed) for n in sizes),
    )


def run(
    sizes: Sequence[int] = DEFAULT_RING_SIZES,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = 22,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the time-complexity sweep and return the E2 result.

    One shared :class:`~repro.experiments.parallel.SweepPool` serves every
    ring size (see E1); results are bit-identical for any worker count.
    ``adaptive`` targets the election *time* (this experiment's metric)
    unless it pins another one explicitly.
    """
    if adaptive is not None:
        adaptive = adaptive.resolved("election_time")
    table = ResultTable(
        title="E2: simulated time to elect a leader (mean over trials)",
        columns=[
            "n",
            "a0",
            "time_mean",
            "time_ci95",
            "time_per_node",
            "activations_mean",
            "all_elected",
        ],
    )
    sizes = list(sizes)
    per_node = []
    study = build_study(sizes=sizes, trials=trials, base_seed=base_seed)
    per_size = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for n, results in zip(sizes, per_size):
        elected = [r for r in results if r.elected]
        times = [float(r.election_time) for r in elected if r.election_time is not None]
        activations = [float(r.activations) for r in elected]
        interval = confidence_interval(times)
        per_node.append(interval.estimate / n)
        table.add_row(
            n=n,
            a0=recommended_a0(n),
            time_mean=interval.estimate,
            time_ci95=interval.half_width,
            time_per_node=interval.estimate / n,
            activations_mean=sum(activations) / len(activations),
            all_elected=len(elected) == len(results),
        )
    fitted = study_scaling_fits(study, per_size)
    fit = fitted["fits"]["election_time"] if fitted else None
    if fit is not None:
        table.add_note(format_slope("election_time", fit, sizes))
    findings = {
        **slope_findings("time", fit),
        "max_time_per_node": max(per_node),
        "min_time_per_node": min(per_node),
        "per_node_spread": max(per_node) / min(per_node) if min(per_node) > 0 else float("inf"),
        "all_runs_elected": all(table.column("all_elected")),
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters=adaptive_parameters(
            {"sizes": tuple(sizes), "trials": trials, "base_seed": base_seed},
            adaptive,
            per_size,
        ),
    )
