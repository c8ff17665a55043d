"""E7 -- the ABE model abstracts the delay *shape*: only the mean bound matters.

Sections 1 and 2 motivate the ABE model with a list of real-world delay
sources -- queueing under load, dynamic routing, lossy-channel retransmission
-- all of which produce unbounded delays with bounded expectation.  The point
of Definition 1 is that an algorithm designed against the expected-delay bound
``delta`` works for *any* of these channels.

The experiment runs the election on the same ring with eight delay families of
identical mean (constant, uniform, exponential, geometric retransmission,
Pareto, lognormal, M/M/1 sojourn, dynamic routing) and reports the average
message and time cost per family.  The claim holds if the costs stay within a
small factor of the exponential-channel reference for every family.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.analysis import recommended_a0
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping
from repro.experiments.workloads import delay_family_specs, election_spec
from repro.models.base import classify_delay
from repro.report import ExperimentResult, ResultTable
from repro.scenarios.registry import build_delay
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import StudySpec
from repro.stats.confidence import confidence_interval

EXPERIMENT_ID = "e7"
TITLE = "Election cost across delay families with identical expected delay"
CLAIM = (
    "The election algorithm's average cost depends on the expected-delay bound "
    "delta, not on the particular delay distribution producing it."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]


def _family_catalogue(
    mean_delay: float, families: Optional[Sequence[str]]
) -> Dict[str, object]:
    catalogue = delay_family_specs(mean_delay)
    if families is not None:
        unknown = set(families) - set(catalogue)
        if unknown:
            raise ValueError(f"unknown delay families {sorted(unknown)}")
        catalogue = {name: catalogue[name] for name in families}
    return catalogue


def build_study(
    n: int = 32,
    mean_delay: float = 1.0,
    trials: int = 20,
    base_seed: int = 77,
    families: Optional[Sequence[str]] = None,
) -> StudySpec:
    """The E7 battery: the same ring under every delay family of equal mean."""
    catalogue = _family_catalogue(mean_delay, families)
    a0 = recommended_a0(n)
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="messages_total",
        points=tuple(
            election_spec(
                n,
                trials,
                base_seed,
                a0=a0,
                delay=node,
                label=f"family-{name}",
                expected_delay_bound=max(build_delay(node).mean(), mean_delay),
            )
            for name, node in catalogue.items()
        ),
    )


def run(
    n: int = 32,
    mean_delay: float = 1.0,
    trials: int = 20,
    base_seed: int = 77,
    families: Optional[Sequence[str]] = None,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the delay-robustness comparison and return the E7 result."""
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")

    table = ResultTable(
        title=f"E7: election cost on a ring of n={n} under different delay families",
        columns=[
            "delay_family",
            "model_class",
            "expected_delay",
            "messages_mean",
            "messages_ci95",
            "time_mean",
            "time_ci95",
            "all_elected",
        ],
    )
    message_means: Dict[str, float] = {}
    time_means: Dict[str, float] = {}
    study = build_study(
        n=n, mean_delay=mean_delay, trials=trials, base_seed=base_seed, families=families
    )
    per_family = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for point, results in zip(study.points, per_family):
        name = point.label[len("family-"):]
        delay = build_delay(point.delay)
        elected = [r for r in results if r.elected]
        messages = confidence_interval([float(r.messages_total) for r in elected])
        times = confidence_interval(
            [float(r.election_time) for r in elected if r.election_time is not None]
        )
        message_means[name] = messages.estimate
        time_means[name] = times.estimate
        table.add_row(
            delay_family=name,
            model_class=classify_delay(delay),
            expected_delay=delay.mean(),
            messages_mean=messages.estimate,
            messages_ci95=messages.half_width,
            time_mean=times.estimate,
            time_ci95=times.half_width,
            all_elected=len(elected) == len(results),
        )

    reference_messages = message_means.get("exponential", next(iter(message_means.values())))
    reference_time = time_means.get("exponential", next(iter(time_means.values())))
    message_spread = max(message_means.values()) / max(min(message_means.values()), 1e-12)
    time_spread = max(time_means.values()) / max(min(time_means.values()), 1e-12)
    findings = {
        "message_spread_across_families": message_spread,
        "time_spread_across_families": time_spread,
        "all_families_within_3x_messages": all(
            value <= 3.0 * reference_messages for value in message_means.values()
        ),
        "all_families_within_3x_time": all(
            value <= 3.0 * reference_time for value in time_means.values()
        ),
        "all_runs_elected": all(table.column("all_elected")),
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={
            "n": n,
            "mean_delay": mean_delay,
            "trials": trials,
            "base_seed": base_seed,
        },
    )
