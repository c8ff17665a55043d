"""A2 -- ablation: purging messages at active nodes vs forwarding them.

DESIGN.md design decision 4.  Rule (iii) of the election algorithm says an
active node hit by a message purges it (and either becomes leader or falls
back to idle).  Purging is what removes losing candidates' messages from the
ring; without it every message circulates until it happens to hit a node in
exactly the right state, the hop counters lose their meaning (``hop = n`` no
longer implies "all other nodes are passive"), and both the cost and the
safety of the algorithm degrade.

The ablation runs the paper's variant and the no-purging variant side by side
on small rings with a bounded event budget and reports message cost,
termination rate and -- crucially -- whether multiple leaders were ever
declared.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.analysis import recommended_a0
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping
from repro.experiments.workloads import election_spec
from repro.report import ExperimentResult, ResultTable
from repro.scenarios.runtime import run_study
from repro.scenarios.spec import StudySpec
from repro.stats.estimators import mean

EXPERIMENT_ID = "a2"
TITLE = "Ablation: purging at active nodes vs forwarding"
CLAIM = (
    "Purging messages at active nodes is essential: without it the algorithm "
    "loses its linear message complexity and its single-leader safety argument."
)

__all__ = ["EXPERIMENT_ID", "TITLE", "CLAIM", "build_study", "run"]

DEFAULT_SIZES: Sequence[int] = (8, 16)

#: Event budget per run for the (potentially non-terminating) no-purge variant.
EVENT_BUDGET_PER_NODE = 8_000

#: Purge variants compared per ring size, in report order.
PURGE_VARIANTS: Sequence[tuple] = (("purge (paper)", True), ("no purge", False))


def build_study(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 12,
    base_seed: int = 202,
) -> StudySpec:
    """The A2 battery: paper purging vs no purging, event-budget bounded."""
    points = []
    for n in sizes:
        a0 = recommended_a0(n)
        for variant, purge in PURGE_VARIANTS:
            points.append(
                election_spec(
                    n,
                    trials,
                    base_seed,
                    a0=a0,
                    purge_at_active=purge,
                    max_events=EVENT_BUDGET_PER_NODE * n,
                    label=f"{variant}-n{n}",
                )
            )
    return StudySpec(
        name=EXPERIMENT_ID, title=TITLE, metric="messages_total", points=tuple(points)
    )


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    trials: int = 12,
    base_seed: int = 202,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: Optional[AdaptiveStopping] = None,
) -> ExperimentResult:
    """Run the purge ablation and return the A2 result."""
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")
    table = ResultTable(
        title="A2: with vs without purging at active nodes",
        columns=[
            "n",
            "variant",
            "terminated_fraction",
            "messages_mean",
            "multi_leader_runs",
            "hop_overflow_runs",
        ],
    )
    purge_messages = {}
    nopurge_messages = {}
    nopurge_safety_violations = 0
    nopurge_nontermination = 0
    sizes = list(sizes)
    study = build_study(sizes=sizes, trials=trials, base_seed=base_seed)
    per_point = run_study(study, pool=pool, workers=workers, adaptive=adaptive)
    for size_index, n in enumerate(sizes):
        for variant_index, (variant, purge) in enumerate(PURGE_VARIANTS):
            outcomes = per_point[size_index * len(PURGE_VARIANTS) + variant_index]
            terminated = [o for o in outcomes if o.elected]
            message_counts = [float(o.messages_total) for o in outcomes]
            multi_leader = sum(1 for o in outcomes if o.leaders_elected > 1)
            overflow = sum(1 for o in outcomes if o.hop_overflows > 0)
            if purge:
                purge_messages[n] = mean(message_counts)
            else:
                nopurge_messages[n] = mean(message_counts)
                nopurge_safety_violations += multi_leader + overflow
                nopurge_nontermination += len(outcomes) - len(terminated)
            table.add_row(
                n=n,
                variant=variant,
                terminated_fraction=len(terminated) / len(outcomes),
                messages_mean=mean(message_counts),
                multi_leader_runs=multi_leader,
                hop_overflow_runs=overflow,
            )
    message_blowup = max(
        nopurge_messages[n] / purge_messages[n] for n in sizes if purge_messages[n] > 0
    )
    findings = {
        "paper_variant_always_terminates": all(
            row["terminated_fraction"] == 1.0
            for row in table
            if row["variant"] == "purge (paper)"
        ),
        "paper_variant_always_single_leader": all(
            row["multi_leader_runs"] == 0 for row in table if row["variant"] == "purge (paper)"
        ),
        "no_purge_message_blowup": message_blowup,
        "no_purge_breaks_something": (
            nopurge_safety_violations > 0
            or nopurge_nontermination > 0
            or message_blowup > 3.0
        ),
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        tables=[table],
        findings=findings,
        parameters={"sizes": tuple(sizes), "trials": trials, "base_seed": base_seed},
    )
