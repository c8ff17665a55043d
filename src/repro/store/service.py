"""The ``abe-repro serve`` study service: one warm pool, zero redundant compute.

:class:`StudyService` is the long-lived counterpart of the one-command
``abe-repro scenario`` run.  Jobs -- :class:`~repro.scenarios.spec.StudySpec`
or :class:`~repro.scenarios.spec.ScenarioSpec` JSON documents -- are
submitted (from files on the command line, or from a watched spool
directory), deduplicated by :func:`~repro.store.fingerprint.study_fingerprint`,
and executed as one battery -- every point at once, round by round -- on one
shared :class:`~repro.experiments.parallel.SweepPool` that carries the
service's execution policy and its
:class:`~repro.store.result_store.ResultStore`.  Every trial is keyed into
that store, so
a re-submitted experiment -- same process or next week -- is a cache hit:
the second run of any study against a warm store performs zero trial
compute and reproduces its aggregates byte for byte.

Progress streams through a caller-supplied callback (the CLI prints it to
stderr), and each completed job can be exported as a JSON document whose
``points`` block is deliberately free of cache statistics and timing, so
two runs of the same study are byte-comparable.  Each point's ``summary``
is :func:`repro.report.point_summary` of its results.  See
``docs/SERVICE.md``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.report import point_summary
from repro.store import fingerprint as _fingerprint
from repro.store.result_store import ResultStore

__all__ = ["JobReport", "PointReport", "StudyService", "study_from_spec"]


def study_from_spec(spec: Any) -> Any:
    """Lift a single :class:`ScenarioSpec` into a one-point study.

    The service executes studies; a submitted bare scenario becomes a
    one-point battery named after its label (or algorithm), which keeps one
    submission path and one export shape.
    """
    from repro.scenarios.spec import ScenarioSpec, StudySpec

    if isinstance(spec, StudySpec):
        return spec
    if isinstance(spec, ScenarioSpec):
        return StudySpec(name=spec.label or spec.algorithm, points=(spec,))
    raise TypeError(f"cannot serve a {type(spec).__name__}; submit a scenario or study spec")


@dataclass
class PointReport:
    """Execution record of one study point inside a job."""

    index: int
    label: str
    algorithm: str
    fingerprint: Optional[str]
    spec: Dict[str, Any]
    summary: Dict[str, Any]
    results: List[Any] = field(repr=False, default_factory=list)
    lookups: int = 0
    hits: int = 0
    executed: int = 0

    def identity_dict(self) -> Dict[str, Any]:
        """The byte-comparable half: what ran and what it produced --
        no cache statistics, no timing."""
        return {
            "index": self.index,
            "label": self.label,
            "algorithm": self.algorithm,
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "summary": self.summary,
        }


@dataclass
class JobReport:
    """One submitted study: identity, per-point reports, cache totals."""

    job_id: str
    name: str
    source: str
    status: str  # "completed" or "duplicate"
    fingerprint: Optional[str]
    metric: str
    points: List[PointReport] = field(default_factory=list)
    duplicate_of: Optional[str] = None
    elapsed: float = 0.0

    @property
    def lookups(self) -> int:
        return sum(point.lookups for point in self.points)

    @property
    def hits(self) -> int:
        return sum(point.hits for point in self.points)

    @property
    def trials_executed(self) -> int:
        return sum(point.executed for point in self.points)

    def to_dict(self) -> Dict[str, Any]:
        lookups = self.lookups
        doc: Dict[str, Any] = {
            "job": self.job_id,
            "name": self.name,
            "source": self.source,
            "status": self.status,
            "study_fingerprint": self.fingerprint,
            "metric": self.metric,
            "code_version": _fingerprint.code_version(),
            # The deterministic block: compare two exports on ["points"] to
            # check byte-identity of what was computed.
            "points": [point.identity_dict() for point in self.points],
            "cache": {
                "lookups": lookups,
                "hits": self.hits,
                "misses": lookups - self.hits,
                "hit_rate": (self.hits / lookups) if lookups else None,
                "trials_executed": self.trials_executed,
            },
            "timing": {"elapsed_seconds": self.elapsed},
        }
        if self.duplicate_of is not None:
            doc["duplicate_of"] = self.duplicate_of
        return doc


class StudyService:
    """A job queue over one :class:`ResultStore` and one warm ``SweepPool``.

    Parameters
    ----------
    store:
        The persistent result store every trial is keyed into.
    workers:
        Worker processes for the shared pool (``1`` = serial execution,
        which still caches; the pool is created lazily on the first
        multi-worker job and reused for every subsequent one).
    adaptive:
        Optional :class:`~repro.experiments.runner.AdaptiveStopping` applied
        to every job, resolved per study against its declared metric.
    policy:
        Optional :class:`~repro.experiments.resilience.ExecutionPolicy`
        (timeouts, retries, supervision) for every trial the service runs,
        one-shot points included.
    progress:
        ``callable(str)`` receiving incremental one-line progress messages.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        workers: int = 1,
        adaptive: Optional[Any] = None,
        policy: Optional[Any] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.adaptive = adaptive
        self.policy = policy
        self.progress = progress or (lambda message: None)
        self._pool: Optional[Any] = None
        self._queue: List[Tuple[str, Any, str, Optional[str]]] = []
        self._completed: Dict[str, JobReport] = {}
        self._anonymous = 0

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Tear down the warm pool (the store stays open for its owner)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "StudyService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _shared_pool(self) -> Any:
        from repro.experiments.parallel import SweepPool  # late: heavy import

        if self._pool is None:
            self._pool = SweepPool(self.workers, policy=self.policy, store=self.store)
        return self._pool

    # -------------------------------------------------------------- submission

    def submit(self, spec: Any, source: str = "<submitted>") -> Tuple[str, str]:
        """Queue one scenario/study spec; returns ``(job_id, disposition)``.

        Disposition is ``"queued"``, or ``"duplicate"`` when a study with the
        same fingerprint was already completed *or* is already queued in this
        service -- the duplicate is not executed again (its report reuses the
        original's results), which is the dedupe half of "zero redundant
        compute" (the cache half handles duplicates across processes).
        """
        study = study_from_spec(spec)
        fingerprint = _fingerprint.study_fingerprint(study)
        if fingerprint is not None:
            if fingerprint in self._completed:
                original = self._completed[fingerprint]
                self.progress(
                    f"job {original.job_id}: duplicate submission of completed "
                    f"study {study.name!r} ({source}); serving cached report"
                )
                self._queue.append((original.job_id, study, source, fingerprint))
                return original.job_id, "duplicate"
            for job_id, _, _, queued_fingerprint in self._queue:
                if queued_fingerprint == fingerprint:
                    self.progress(
                        f"job {job_id}: study {study.name!r} ({source}) already "
                        "queued; coalescing"
                    )
                    return job_id, "duplicate"
            job_id = fingerprint[:12]
        else:
            self._anonymous += 1
            job_id = f"anon-{self._anonymous}"
        self._queue.append((job_id, study, source, fingerprint))
        self.progress(
            f"job {job_id}: queued study {study.name!r} "
            f"({len(study.points)} point(s), {source})"
        )
        return job_id, "queued"

    # --------------------------------------------------------------- execution

    def run_pending(self) -> List[JobReport]:
        """Execute every queued job in submission order; returns the reports."""
        reports: List[JobReport] = []
        queue, self._queue = self._queue, []
        for job_id, study, source, fingerprint in queue:
            if fingerprint is not None and fingerprint in self._completed:
                original = self._completed[fingerprint]
                reports.append(
                    JobReport(
                        job_id=original.job_id,
                        name=study.name,
                        source=source,
                        status="duplicate",
                        fingerprint=fingerprint,
                        metric=study.metric,
                        points=original.points,
                        duplicate_of=original.job_id,
                    )
                )
                continue
            reports.append(self._run_job(job_id, study, source, fingerprint))
        return reports

    def _run_job(
        self, job_id: str, study: Any, source: str, fingerprint: Optional[str]
    ) -> JobReport:
        from repro.scenarios.runtime import compile_point

        report = JobReport(
            job_id=job_id,
            name=study.name,
            source=source,
            status="completed",
            fingerprint=fingerprint,
            metric=study.metric,
        )
        rule = self.adaptive.resolved(study.metric) if self.adaptive is not None else None
        total = len(study.points)
        self.progress(f"job {job_id}: running study {study.name!r} ({total} point(s))")
        started = time.perf_counter()
        runs = [compile_point(point, rule) for point in study.points]
        self._shared_pool().run_points(runs)
        for index, (point, run) in enumerate(zip(study.points, runs)):
            # Every result the store did not serve was computed (all of them
            # for an unkeyed point, whose fingerprint was refused).
            executed = len(run.results) - run.hits
            point_report = PointReport(
                index=index,
                label=point.label or f"point{index}",
                algorithm=point.algorithm,
                fingerprint=run.key,
                spec=point.to_dict(),
                summary=point_summary(run.results),
                results=run.results,
                lookups=run.lookups,
                hits=run.hits,
                executed=executed,
            )
            report.points.append(point_report)
            self.progress(
                f"job {job_id}: point {index + 1}/{total} ({point_report.label}) -- "
                f"{len(run.results)} result(s), {run.hits} cached, {executed} executed"
            )
        report.elapsed = time.perf_counter() - started
        lookups = report.lookups
        self.progress(
            f"job {job_id}: done in {report.elapsed:.2f}s -- "
            f"{report.trials_executed} trial(s) executed, "
            f"{report.hits}/{lookups} cache hit(s)"
        )
        if fingerprint is not None:
            self._completed[fingerprint] = report
        return report

    # ------------------------------------------------------------------ export

    def export(self, report: JobReport, directory: Any) -> str:
        """Write one job's JSON document to ``<directory>/<job_id>.json``.

        The file's ``points`` block is free of cache/timing noise: exporting
        the same study from a cold and a warm store produces byte-identical
        ``points``, which is how the CI smoke asserts "zero redundant
        compute, same science".
        """
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{report.job_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
