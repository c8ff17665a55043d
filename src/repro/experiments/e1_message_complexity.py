"""E1 -- average message complexity of the ABE election is linear in ``n``.

Paper claim (Sections 1 and 3): the election algorithm for anonymous,
unidirectional ABE rings of known size has *average linear message
complexity*, beating the Omega(n log n) lower bound that holds for
asynchronous rings (randomisation over an ABE network is what makes this
possible).

The experiment sweeps the ring size, runs many independent elections per size
with the recommended activation parameter, and reports the mean message count
with a confidence interval and the per-node cost.  Growth is stated the way
every ring study states it (:func:`repro.report.study_scaling_fits`): the
weighted log-log slope of the mean message count on ``n`` with its 95%
confidence interval, and whether that interval holds 1 (linear growth).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.analysis import async_ring_message_lower_bound, recommended_a0
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

EXPERIMENT_ID = "e1"
TITLE = "Average message complexity of the ABE election"
CLAIM = (
    "The election algorithm has average linear message complexity on anonymous "
    "unidirectional ABE rings of known size n."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]


def build_study(
    sizes: Sequence[int] = DEFAULT_RING_SIZES,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = 11,
    election_overrides: Optional[Dict] = None,
) -> StudySpec:
    """The E1 battery: the default election at every ring size."""
    overrides = election_overrides or {}
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="messages_total",
        points=tuple(
            election_spec(n, trials, base_seed, **overrides) for n in sizes
        ),
    )


def run(
    sizes: Sequence[int] = DEFAULT_RING_SIZES,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = 11,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
    election_overrides: Optional[Dict] = None,
) -> ExperimentResult:
    """Run the message-complexity sweep and return the E1 result.

    The sweep itself is declarative (:func:`build_study` +
    :func:`~repro.scenarios.runtime.run_study`); this function is the thin
    analysis callback over the per-size result lists.  ``workers`` fans each
    size's trials across one shared
    :class:`~repro.experiments.parallel.SweepPool` (created by ``run_study``
    unless an external ``pool`` is passed in); results are bit-identical to
    serial.  ``adaptive`` stops each size's trials once the message-count CI
    is tight enough (``trials`` becomes the budget); ``election_overrides``
    forwards extra :func:`~repro.core.runner.run_election` keywords (e.g.
    ``fifo=True`` for order-preserving channels).
    """
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")
    table = ResultTable(
        title="E1: messages to elect a leader (mean over trials)",
        columns=[
            "n",
            "a0",
            "messages_mean",
            "messages_ci95",
            "messages_per_node",
            "nlogn_reference",
            "all_elected",
        ],
    )
    sizes = list(sizes)
    per_node = []
    study = build_study(
        sizes=sizes, trials=trials, base_seed=base_seed, election_overrides=election_overrides
    )
    per_size = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for n, results in zip(sizes, per_size):
        elected = [r for r in results if r.elected]
        message_counts = [float(r.messages_total) for r in elected]
        interval = confidence_interval(message_counts)
        per_node.append(interval.estimate / n)
        table.add_row(
            n=n,
            a0=recommended_a0(n),
            messages_mean=interval.estimate,
            messages_ci95=interval.half_width,
            messages_per_node=interval.estimate / n,
            nlogn_reference=async_ring_message_lower_bound(n),
            all_elected=len(elected) == len(results),
        )
    fitted = study_scaling_fits(study, per_size)
    fit = fitted["fits"]["messages_total"] if fitted else None
    if fit is not None:
        table.add_note(format_slope("messages_total", fit, sizes))
    findings = {
        **slope_findings("messages", fit),
        "max_messages_per_node": max(per_node),
        "min_messages_per_node": min(per_node),
        "per_node_spread": max(per_node) / min(per_node) if min(per_node) > 0 else float("inf"),
        "all_runs_elected": all(table.column("all_elected")),
    }
    parameters = adaptive_parameters(
        {"sizes": tuple(sizes), "trials": trials, "base_seed": base_seed},
        adaptive,
        per_size,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters=parameters,
    )
