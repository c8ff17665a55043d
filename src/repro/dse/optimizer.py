"""The search driver: strategy rounds executed through :class:`StudyService`.

The :class:`Optimizer` owns the loop the strategy modules only describe.
For each group it derives one named random stream
(``derive_seed(seed, "dse/<group>")``), asks the strategy for rounds, and
submits every round as a :class:`~repro.scenarios.spec.StudySpec` to a
:class:`~repro.store.service.StudyService` over the caller's
:class:`~repro.store.result_store.ResultStore`.  That one design decision
buys the whole caching story for free:

* every evaluated point is fingerprint-keyed, so re-running a search
  against a warm store executes **zero** trials and reproduces the report's
  deterministic block byte for byte;
* a successive-halving promotion re-submits a surviving configuration at a
  larger budget, and because store keys ignore the trial count
  (:func:`~repro.store.fingerprint.spec_fingerprint`), only the newly added
  seeds execute -- the rung is incremental, not from scratch;
* widening a search (more samples, more rungs, a new group) re-executes
  only the genuinely new points.

After the last round the group's winner is re-read from the final rung, and
the paper's fixed constants -- the group's base scenario, untouched -- are
evaluated at the same final budget as the ``baseline`` row, which is what
the winner table and comparison figure report against.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional

from repro.dse.report import GroupOutcome, PointOutcome, RoundOutcome, SearchReport
from repro.dse.space import SearchSpace, point_key
from repro.dse.spec import SearchGroup, SearchSpec
from repro.dse.strategies import SearchRound, build_strategy
from repro.scenarios.spec import ScenarioSpec, StudySpec
from repro.sim.rng import derive_seed
from repro.store.result_store import ResultStore
from repro.store.service import StudyService

__all__ = ["Optimizer", "run_search"]

_INFINITY = float("inf")


class Optimizer:
    """Run one :class:`~repro.dse.spec.SearchSpec` to a :class:`SearchReport`.

    Parameters
    ----------
    search:
        The search document.
    store:
        Persistent result store; every trial of every round is keyed here.
    workers:
        Worker processes for the shared pool (execution is bit-identical
        for any worker count -- :class:`AdaptiveStopping` batches and the
        per-seed store keys are both worker-independent).
    policy:
        Optional :class:`~repro.experiments.resilience.ExecutionPolicy` for
        every trial (carried by the service's executor).
    progress:
        ``callable(str)`` for one-line progress messages.
    """

    def __init__(
        self,
        search: SearchSpec,
        store: ResultStore,
        *,
        workers: int = 1,
        policy: Optional[Any] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.search = search
        self.store = store
        self.workers = max(1, int(workers))
        self.policy = policy
        self.progress = progress or (lambda message: None)

    # ------------------------------------------------------------------- API

    def run(self) -> SearchReport:
        """Execute every group's search; returns the complete report."""
        search = self.search
        report = SearchReport(
            name=search.name,
            title=search.title,
            metric=search.metric,
            goal=search.goal,
            seed=search.seed,
            strategy=search.strategy.kind,
        )
        started = time.perf_counter()
        with StudyService(
            self.store,
            workers=self.workers,
            policy=self.policy,
            progress=self.progress,
        ) as service:
            for group in search.resolved_groups():
                report.groups.append(self._run_group(service, group))
                report.lookups = self.store.hits + self.store.misses
                report.hits = self.store.hits
        report.trials_executed = report.lookups - report.hits
        report.elapsed = time.perf_counter() - started
        return report

    # ----------------------------------------------------------- group search

    def _run_group(self, service: StudyService, group: SearchGroup) -> GroupOutcome:
        search = self.search
        space = search.space.with_base(group.apply(search.space.base))
        strategy = build_strategy(search.strategy)
        # The group's named stream: every random choice this group's search
        # makes derives from (master seed, "dse/<label>") -- independent of
        # other groups and stable under group reordering.
        rng = random.Random(derive_seed(search.seed, f"dse/{group.label}"))
        self.progress(f"group {group.label}: searching with {search.strategy.kind!r}")

        rounds: List[RoundOutcome] = []
        current = strategy.first_round(space, rng, search.trials)
        final: Optional[RoundOutcome] = None
        while current is not None:
            outcome = self._run_round(service, group, space, current)
            rounds.append(outcome)
            final = outcome
            losses = [self._loss(point.value) for point in outcome.points]
            current = strategy.next_round(space, rng, current, losses)

        assert final is not None  # strategies must yield at least one round
        winner = min(
            final.points, key=lambda outcome: (self._loss(outcome.value), point_key(outcome.point))
        )
        baseline = self._run_baseline(service, group, space, final.budget)
        self.progress(
            f"group {group.label}: winner {winner.label!r} "
            f"({search.metric} {winner.value!r} vs baseline {baseline.value!r})"
        )
        return GroupOutcome(label=group.label, rounds=rounds, winner=winner, baseline=baseline)

    def _run_round(
        self,
        service: StudyService,
        group: SearchGroup,
        space: SearchSpace,
        round_: SearchRound,
    ) -> RoundOutcome:
        specs = tuple(
            self._budgeted(space.materialize(point), round_.budget)
            for point in round_.points
        )
        study = StudySpec(
            name=f"{self.search.name}/{group.label}/rung{round_.index}",
            points=specs,
            metric=self.search.metric,
        )
        job = self._execute(service, study)
        outcomes = [
            PointOutcome(
                point=dict(point),
                label=spec.label,
                value=self._metric_mean(point_report.summary),
                trials=round_.budget,
            )
            for point, spec, point_report in zip(round_.points, specs, job.points)
        ]
        return RoundOutcome(index=round_.index, budget=round_.budget, points=outcomes)

    def _run_baseline(
        self,
        service: StudyService,
        group: SearchGroup,
        space: SearchSpace,
        budget: int,
    ) -> PointOutcome:
        spec = self._budgeted(space.base.replace(label="baseline"), budget)
        study = StudySpec(
            name=f"{self.search.name}/{group.label}/baseline",
            points=(spec,),
            metric=self.search.metric,
        )
        job = self._execute(service, study)
        return PointOutcome(
            point={},
            label="baseline",
            value=self._metric_mean(job.points[0].summary),
            trials=budget,
        )

    # -------------------------------------------------------------- mechanics

    def _budgeted(self, spec: ScenarioSpec, budget: int) -> ScenarioSpec:
        """A point spec at one rung's budget (stopping rule re-capped)."""
        changes: Dict[str, Any] = {"trials": budget}
        if self.search.stopping is not None:
            changes["stopping"] = self.search.stopping.with_budget(budget)
        return spec.replace(**changes)

    def _execute(self, service: StudyService, study: StudySpec) -> Any:
        job_id, _ = service.submit(study, source=f"dse:{self.search.name}")
        reports = service.run_pending()
        for job in reports:
            if job.job_id == job_id:
                return job
        # A coalesced duplicate of an already-queued study drains with the
        # original's id; the single queued entry is still the one we want.
        return reports[-1]

    def _metric_mean(self, summary: Dict[str, Any]) -> Optional[float]:
        stats = summary.get("metrics", {}).get(self.search.metric)
        if not isinstance(stats, dict):
            return None
        return stats.get("mean")

    def _loss(self, value: Optional[float]) -> float:
        """Lower-is-better ranking value; a missing metric never wins."""
        if value is None:
            return _INFINITY
        return -value if self.search.goal == "max" else value


def run_search(
    search: SearchSpec,
    store: ResultStore,
    *,
    workers: int = 1,
    policy: Optional[Any] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SearchReport:
    """One-call convenience: :class:`Optimizer` construct-and-run."""
    return Optimizer(
        search, store, workers=workers, policy=policy, progress=progress
    ).run()
