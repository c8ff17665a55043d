"""E3 -- the base activation parameter A0 trades messages against time.

Section 3 introduces the algorithm "parameterised by a base activation
parameter A0 in (0, 1)" and argues that the adaptive wake-up probability keeps
the overall wake-up pressure constant.  The constant that pressure is tuned to
matters: a large A0 floods the ring with competing candidates (many messages,
little waiting), a tiny A0 makes candidates rare (few messages, long idle
stretches).  The experiment sweeps A0 around the recommended value at a fixed
ring size and reports both costs, exposing the trade-off and showing the
recommended value sits near the knee.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.analysis import recommended_a0, ring_pressure_per_tick
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping, adaptive_parameters
from repro.experiments.workloads import election_spec
from repro.report import ExperimentResult, ResultTable
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import StudySpec
from repro.stats.confidence import confidence_interval

EXPERIMENT_ID = "e3"
TITLE = "Effect of the base activation parameter A0"
CLAIM = (
    "A0 controls a messages-vs-time trade-off; the value that matches one "
    "expected activation per ring traversal (approximately 1/n^2) balances both."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]

#: Multipliers applied to the recommended A0 in the sweep.
DEFAULT_MULTIPLIERS: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0)


def build_study(
    n: int = 32,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    trials: int = 20,
    base_seed: int = 33,
    election_overrides: Optional[Dict] = None,
) -> StudySpec:
    """The E3 battery: one fixed-size election per A0 multiplier."""
    overrides = election_overrides or {}
    reference_a0 = recommended_a0(n)
    # One clamp, shared by the trial fan-out and the reported table rows.
    a0_values = [min(0.999, reference_a0 * multiplier) for multiplier in multipliers]
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="messages_total",
        points=tuple(
            election_spec(
                n, trials, base_seed, a0=a0, label=f"a0x{multiplier}", **overrides
            )
            for multiplier, a0 in zip(multipliers, a0_values)
        ),
    )


def run(
    n: int = 32,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    trials: int = 20,
    base_seed: int = 33,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
    election_overrides: Optional[Dict] = None,
) -> ExperimentResult:
    """Sweep A0 at fixed ring size ``n`` and return the E3 result.

    One shared :class:`~repro.experiments.parallel.SweepPool` serves every
    multiplier point; results are bit-identical for any worker count.
    ``adaptive`` stops each multiplier's trials once the message-count CI is
    tight enough; ``election_overrides`` forwards extra
    :func:`~repro.core.runner.run_election` keywords.
    """
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")
    overrides = election_overrides or {}
    reference_a0 = recommended_a0(n)
    table = ResultTable(
        title=f"E3: A0 sweep on a ring of n={n} nodes",
        columns=[
            "a0",
            "a0_over_recommended",
            "ring_pressure_per_tick",
            "messages_mean",
            "messages_ci95",
            "time_mean",
            "time_ci95",
            "activations_mean",
        ],
    )
    rows = []
    study = build_study(
        n=n,
        multipliers=multipliers,
        trials=trials,
        base_seed=base_seed,
        election_overrides=overrides,
    )
    a0_values = [point.a0 for point in study.points]
    per_point = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for multiplier, a0, results in zip(multipliers, a0_values, per_point):
        elected = [r for r in results if r.elected]
        messages = confidence_interval([float(r.messages_total) for r in elected])
        times = confidence_interval(
            [float(r.election_time) for r in elected if r.election_time is not None]
        )
        activations = sum(r.activations for r in elected) / len(elected)
        rows.append((multiplier, messages.estimate, times.estimate))
        table.add_row(
            a0=a0,
            a0_over_recommended=multiplier,
            ring_pressure_per_tick=ring_pressure_per_tick(a0, n),
            messages_mean=messages.estimate,
            messages_ci95=messages.half_width,
            time_mean=times.estimate,
            time_ci95=times.half_width,
            activations_mean=activations,
        )
    # Findings: messages grow with A0; the recommended value is competitive on
    # the combined cost (normalised product of messages and time).
    message_means = [row[1] for row in rows]
    time_means = [row[2] for row in rows]
    combined = [m * t for m, t in zip(message_means, time_means)]
    best_index = combined.index(min(combined))
    recommended_index = min(
        range(len(multipliers)), key=lambda i: abs(multipliers[i] - 1.0)
    )
    best_multiplier = multipliers[best_index]
    findings = {
        "messages_increase_with_a0": message_means[-1] > message_means[0],
        "best_multiplier": best_multiplier,
        # The empirical optimum of the combined (messages x time) cost sits at
        # the 1/n^2 scale: within a factor of 4 of the recommended value.
        "best_multiplier_at_recommended_scale": 0.25 <= best_multiplier <= 4.0,
        "recommended_within_4x_of_best": combined[recommended_index]
        <= 4.0 * combined[best_index],
        "recommended_a0": reference_a0,
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters=adaptive_parameters(
            {
                "n": n,
                "multipliers": tuple(multipliers),
                "trials": trials,
                "base_seed": base_seed,
            },
            adaptive,
            per_point,
        ),
    )
