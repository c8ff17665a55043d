"""E4 -- lossy-channel retransmission: expected transmissions equal ``1/p``.

Section 1, case (iii): a message over an unreliable physical channel succeeds
with probability ``p`` per transmission; the number of transmissions cannot be
bounded (with probability ``(1-p)^k`` more than ``k`` are needed) but its
expectation is ``k_avg = sum_k (k+1)(1-p)^k p = 1/p``, and with unit
transmission time the expected delay is ``1/p`` too.  This is the paper's
flagship example of a channel that is ABE but not ABD.

The experiment drives both the mechanistic attempt-by-attempt channel model
and the closed-form geometric delay distribution across a range of ``p`` and
compares the empirical means and tails against the formulas.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.parallel import SweepPool
from repro.network.retransmission import expected_transmissions, tail_probability
from repro.report import ExperimentResult, ResultTable
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import ScenarioSpec, StudySpec

EXPERIMENT_ID = "e4"
TITLE = "Retransmission over a lossy channel: k_avg = 1/p"
CLAIM = (
    "The number of transmissions needed is unbounded, but its expectation is "
    "1/p; with unit transmission time the expected delay is 1/p as well."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]

DEFAULT_PROBABILITIES: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)


def build_study(
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    messages: int = 20_000,
    tail_k: int = 5,
    base_seed: int = 44,
) -> StudySpec:
    """The E4 battery: one one-shot channel measurement per probability.

    Measurement streams are named per probability inside the runner
    (:func:`repro.scenarios.algorithms.measure_lossy_channel`), so each
    point's result depends only on its own spec, in any order or process.
    """
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="closed_form_mean_delay",
        points=tuple(
            ScenarioSpec(
                algorithm="lossy-channel",
                seed=base_seed,
                label=f"p{p}",
                params={"p": p, "messages": messages, "tail_k": tail_k},
            )
            for p in probabilities
        ),
    )


def run(
    probabilities: Sequence[float] = DEFAULT_PROBABILITIES,
    messages: int = 20_000,
    tail_k: int = 5,
    base_seed: int = 44,
    workers: int = 1,
    pool: SweepPool = None,
) -> ExperimentResult:
    """Measure the retransmission channel across success probabilities."""
    table = ResultTable(
        title="E4: expected transmissions and delay over a lossy channel",
        columns=[
            "p",
            "theory_1_over_p",
            "mechanistic_mean_attempts",
            "closed_form_mean_delay",
            "relative_error_mechanistic",
            "relative_error_closed_form",
            f"tail_P[K>{tail_k}]_theory",
            f"tail_P[K>{tail_k}]_measured",
        ],
    )

    study = build_study(
        probabilities=probabilities, messages=messages, tail_k=tail_k, base_seed=base_seed
    )
    measurements = [
        point_results[0]
        for point_results in run_study(study, pool=pool, workers=workers)
    ]
    max_relative_error = 0.0
    for p, measurement in zip(probabilities, measurements):
        mechanistic = measurement.mechanistic_mean_attempts
        closed_form = measurement.closed_form_mean_delay
        theory = expected_transmissions(p)
        error_mechanistic = abs(mechanistic - theory) / theory
        error_closed = abs(closed_form - theory) / theory
        max_relative_error = max(max_relative_error, error_mechanistic, error_closed)
        table.add_row(
            **{
                "p": p,
                "theory_1_over_p": theory,
                "mechanistic_mean_attempts": mechanistic,
                "closed_form_mean_delay": closed_form,
                "relative_error_mechanistic": error_mechanistic,
                "relative_error_closed_form": error_closed,
                f"tail_P[K>{tail_k}]_theory": tail_probability(p, tail_k),
                f"tail_P[K>{tail_k}]_measured": measurement.tail_measured,
            }
        )
    findings = {
        "max_relative_error": max_relative_error,
        "matches_1_over_p_within_5pct": max_relative_error < 0.05,
        "delay_is_unbounded": all(
            tail_probability(p, tail_k) > 0 for p in probabilities
        ),
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={
            "probabilities": tuple(probabilities),
            "messages": messages,
            "tail_k": tail_k,
            "base_seed": base_seed,
        },
    )
