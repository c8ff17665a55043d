"""E6 -- comparison with classical ring-election baselines.

Section 1 positions the ABE election against two reference points:

* the Omega(n log n) lower bound on message complexity for leader election in
  asynchronous rings, and
* "the most optimal leader election algorithms known for anonymous,
  synchronous rings" (Itai-Rodeh), to which the ABE algorithm's efficiency is
  said to be comparable.

The experiment runs the ABE election and four baselines (Itai-Rodeh,
Chang-Roberts, Dolev-Klawe-Rodeh, Franklin) on rings of increasing size with
identical ABE (exponential, mean 1) channel delays, reports the mean message
counts, and fits each algorithm's log-log message slope with its 95% CI
(:func:`repro.report.study_scaling_fits`): the ABE election's slope should sit
near 1 and below every baseline's, whose ``n log n`` growth reads above 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import async_ring_message_lower_bound
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping
from repro.experiments.workloads import election_spec
from repro.report import ExperimentResult, ResultTable, slope_findings, study_scaling_fits
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import ScenarioSpec, SpecNode, StudySpec
from repro.stats.confidence import confidence_interval

EXPERIMENT_ID = "e6"
TITLE = "Message complexity: ABE election vs classical baselines"
CLAIM = (
    "The ABE election's average message complexity is linear, comparable to "
    "the best anonymous-ring algorithms and below the n log n growth of the "
    "classical identifier-based elections."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]

DEFAULT_SIZES: Sequence[int] = (8, 16, 32, 64)

#: Comparison order: the paper's algorithm first, then the baselines.
ALGORITHM_ORDER: Tuple[str, ...] = (
    "abe-election",
    "itai-rodeh",
    "chang-roberts",
    "dolev-klawe-rodeh",
    "franklin",
)


def build_study(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 15,
    base_seed: int = 66,
) -> StudySpec:
    """The E6 battery: every algorithm at every ring size, in report order."""
    points: List[ScenarioSpec] = []
    for name in ALGORITHM_ORDER:
        for n in sizes:
            if name == "abe-election":
                points.append(election_spec(n, trials, base_seed, label=f"abe-n{n}"))
            else:
                points.append(
                    ScenarioSpec(
                        algorithm=name,
                        topology=SpecNode("uniring", {"n": n}),
                        delay=SpecNode("exponential", {"mean": 1.0}),
                        seed=base_seed,
                        trials=trials,
                        label=f"{name}-n{n}",
                    )
                )
    return StudySpec(
        name=EXPERIMENT_ID, title=TITLE, metric="messages_total", points=tuple(points)
    )


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 15,
    base_seed: int = 66,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the baseline comparison and return the E6 result."""
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")
    sizes = list(sizes)
    table = ResultTable(
        title="E6: mean messages to elect a leader, by algorithm and ring size",
        columns=["algorithm", "n", "messages_mean", "messages_ci95", "messages_per_node"],
    )
    study = build_study(sizes=sizes, trials=trials, base_seed=base_seed)
    per_point = run_study(study, pool=pool, workers=workers, adaptive=adaptive)

    reference = ResultTable(
        title="E6 (reference): log-log message slopes and the n log n lower-bound curve",
        columns=["algorithm", "messages_slope", "slope_ci_low", "slope_ci_high", "nlogn_at_max_n"],
    )
    mean_at_max: Dict[str, float] = {}
    slopes = {}
    for index, name in enumerate(ALGORITHM_ORDER):
        block = slice(index * len(sizes), (index + 1) * len(sizes))
        for n, results in zip(sizes, per_point[block]):
            message_counts = [float(r.messages_total) for r in results if r.elected]
            interval = confidence_interval(message_counts)
            mean_at_max[name] = interval.estimate
            table.add_row(
                algorithm=name,
                n=n,
                messages_mean=interval.estimate,
                messages_ci95=interval.half_width,
                messages_per_node=interval.estimate / n,
            )
        fitted = study_scaling_fits(
            StudySpec(name=name, points=study.points[block]), per_point[block]
        )
        fit = slopes[name] = fitted["fits"]["messages_total"] if fitted else None
        reference.add_row(
            algorithm=name,
            messages_slope=fit.slope if fit else None,
            slope_ci_low=fit.low if fit else None,
            slope_ci_high=fit.high if fit else None,
            nlogn_at_max_n=async_ring_message_lower_bound(max(sizes)),
        )

    abe = slopes.pop("abe-election")
    abe_at_max = mean_at_max.pop("abe-election")
    baselines = list(slopes.values())
    fitted = None not in baselines
    findings = {
        **slope_findings("abe_messages", abe),
        "abe_cheapest_at_max_n": abe_at_max <= min(mean_at_max.values()),
        "baselines_steeper_than_abe": (
            all(fit.slope > abe.slope for fit in baselines) if fitted and abe else None
        ),
        "baselines_ci_above_1": all(fit.low > 1.0 for fit in baselines) if fitted else None,
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table, reference],
        findings=findings,
        parameters={"sizes": tuple(sizes), "trials": trials, "base_seed": base_seed},
    )
