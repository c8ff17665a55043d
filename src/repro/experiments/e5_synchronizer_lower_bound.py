"""E5 -- Theorem 1: synchronising an ABE network costs >= n messages per round.

Theorem 1 of the paper states that ABE networks of size ``n`` cannot be
synchronised with fewer than ``n`` messages per round; the proof is inherited
from the classical asynchronous impossibility because every asynchronous
execution is an ABE execution.  The constructive side of the story is the ABD
synchronizer of Tel, Korach and Zaks, which needs *no* control messages -- but
only because it leans on the hard delay bound that ABE networks lack.

The experiment exhibits both sides on the same client algorithm (synchronous
flooding) and the same topologies:

* the alpha and beta synchronizers are correct on ABE delays (their results
  match the synchronous ground truth) and send well over ``n`` messages per
  round;
* the ABD synchronizer undercuts ``n`` messages per round, is correct when the
  delays really are bounded, and breaks on ABE delays (late messages appear
  and/or results diverge from the ground truth).

The per-size battery itself (alpha/beta/ABD x ABE/ABD delays, ring + random
graph) lives in :func:`repro.scenarios.algorithms.run_synchronizer_battery`
and is reachable declaratively as the ``synchronizer-battery`` algorithm;
this module is the analysis callback over the battery rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.parallel import SweepPool
from repro.report import ExperimentResult, ResultTable
from repro.scenarios.algorithms import ABD_DELAY_BOUND  # noqa: F401  (re-export)
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import ScenarioSpec, SpecNode, StudySpec

EXPERIMENT_ID = "e5"
TITLE = "Theorem 1: messages per round needed to synchronise an ABE network"
CLAIM = (
    "ABE networks of size n cannot be synchronised with fewer than n messages "
    "per round; the message-free ABD synchronizer is unsound on ABE delays."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "ABD_DELAY_BOUND", "build_study", "run"]

DEFAULT_SIZES: Sequence[int] = (8, 16, 32)


def build_study(
    sizes: Sequence[int] = DEFAULT_SIZES,
    rounds: Optional[int] = None,
    base_seed: int = 55,
    include_random_graph: bool = True,
) -> StudySpec:
    """The E5 battery: one one-shot synchronizer battery per network size."""
    return StudySpec(
        name=EXPERIMENT_ID,
        title=TITLE,
        metric="messages_per_round",
        points=tuple(
            ScenarioSpec(
                algorithm="synchronizer-battery",
                topology=SpecNode("biring", {"n": n}),
                seed=base_seed,
                label=f"n{n}",
                params={
                    "rounds": rounds,
                    "include_random_graph": include_random_graph,
                },
            )
            for n in sizes
        ),
    )


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    rounds: Optional[int] = None,
    base_seed: int = 55,
    include_random_graph: bool = True,
    workers: int = 1,
    pool: SweepPool = None,
) -> ExperimentResult:
    """Run the synchronizer comparison and return the E5 result."""
    table = ResultTable(
        title="E5: messages per round and correctness, by synchronizer",
        columns=[
            "topology",
            "n",
            "synchronizer",
            "delay_model",
            "messages_per_round",
            "theorem1_bound",
            "meets_theorem1",
            "late_messages",
            "matches_ground_truth",
        ],
    )

    study = build_study(
        sizes=sizes,
        rounds=rounds,
        base_seed=base_seed,
        include_random_graph=include_random_graph,
    )
    batteries = [
        point_results[0]
        for point_results in run_study(study, pool=pool, workers=workers)
    ]

    sound_always_above_bound = True
    abd_below_bound_somewhere = False
    abd_incorrect_on_abe = False
    for rows in batteries:
        for row in rows:
            if row["synchronizer"] in ("alpha", "beta"):
                sound_always_above_bound &= row["meets_theorem1"]
            if row["synchronizer"] == "abd" and not row["meets_theorem1"]:
                abd_below_bound_somewhere = True
            if row["synchronizer"] == "abd" and row["delay_model"].startswith("ABE"):
                if row["late_messages"] > 0 or not row["matches_ground_truth"]:
                    abd_incorrect_on_abe = True
            table.add_row(**row)
    table.add_note(
        "alpha/beta are correct on ABE delays and always pay >= n messages per "
        "round; the ABD synchronizer undercuts the bound only by assuming a "
        "hard delay bound, which ABE delays violate (late messages)."
    )
    findings = {
        "sound_synchronizers_meet_theorem1": sound_always_above_bound,
        "abd_synchronizer_undercuts_bound": abd_below_bound_somewhere,
        "abd_synchronizer_unsound_on_abe": abd_incorrect_on_abe,
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={
            "sizes": tuple(sizes),
            "rounds": rounds,
            "base_seed": base_seed,
            "include_random_graph": include_random_graph,
        },
    )
