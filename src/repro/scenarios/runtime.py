"""The single entry point from declarative specs to running simulations.

:func:`compile_point` compiles one :class:`~repro.scenarios.spec.ScenarioSpec`
into its executor point (:class:`~repro.experiments.parallel.PointRun`):
its trial callable, its seed list, its store key and its stopping rule.
:func:`run_scenario` runs one such point on the one trial executor,
:class:`~repro.experiments.parallel.SweepPool`, and returns the trial
results.  The compiled trial, the derived seed list and the adaptive batch
boundaries are exactly the ones the hand-threaded experiment code produced,
so a spec that mirrors an experiment's parameters reproduces its results bit
for bit -- locked by the pre-refactor goldens in ``tests/harness``.

:func:`run_study` executes a :class:`~repro.scenarios.spec.StudySpec` -- an
ordered battery of points -- as one battery on one shared executor: every
point is compiled first, then each round's trials of all points share the
pool's maps and the store's transactions, and every trial goes through the
executor's policy and store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.scenarios.algorithms import ALGORITHMS, AlgorithmEntry
from repro.scenarios.spec import ScenarioSpec, StudySpec
from repro.store.fingerprint import spec_fingerprint

# NOTE: ``repro.experiments`` imports this module, so the executor
# (SweepPool) is imported lazily inside the entry points to keep the import
# graph acyclic.

__all__ = ["compile_point", "compile_trial", "run_scenario", "run_study"]


def compile_trial(spec: ScenarioSpec) -> Any:
    """Compile a spec into its picklable ``seed -> result`` trial callable.

    Resolution against the registries happens here, so unknown algorithm,
    topology, delay, drift or schedule kinds fail fast with the list of known
    keys, before any simulation starts.
    """
    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    return entry.build_trial(spec)


def compile_point(spec: ScenarioSpec, adaptive: Optional[Any] = None) -> Any:
    """Compile a spec into its :class:`~repro.experiments.parallel.PointRun`.

    The point's trial callable is :func:`compile_trial`'s, its store key the
    spec fingerprint.  A one-shot workload is one evaluation at the raw spec
    seed; any other spec runs ``spec.trials`` derived seeds under
    ``adaptive`` (or else the spec's ``stopping`` rule), whose unpinned
    metric resolves to the algorithm's target.  The key is ``None`` when
    the spec refuses a canonical fingerprint (an override whose repr carries
    a memory address -- a per-process key that could never hit), and the
    point then runs without the store.
    """
    from repro.experiments.parallel import PointRun  # late: avoids cycle

    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    run_one = entry.build_trial(spec)
    if entry.one_shot and spec.trials != 1:
        raise ValueError(
            f"algorithm {spec.algorithm!r} is a one-shot evaluation; "
            f"use one point per parameter value instead of trials={spec.trials}"
        )
    key = spec_fingerprint(spec)
    if entry.one_shot:
        return PointRun(run_one, [spec.seed], key=key)
    rule = adaptive if adaptive is not None else spec.stopping
    if rule is not None:
        rule = rule.resolved(entry.metric)
    return PointRun.derived(run_one, spec.trials, spec.seed, spec.label, adaptive=rule, key=key)


def run_scenario(
    spec: ScenarioSpec,
    *,
    pool: Optional[Any] = None,
    workers: Optional[int] = None,
    adaptive: Optional[Any] = None,
    stats_out: Optional[Dict[str, Any]] = None,
) -> List[Any]:
    """Run one scenario and return its (ordered) trial results.

    Parameters
    ----------
    pool:
        Optional shared :class:`~repro.experiments.parallel.SweepPool`; one
        executor can serve every point of a study, and its policy and store
        apply.  Trials are stored under ``(spec fingerprint, seed)`` -- the
        fingerprint is content-derived from the spec minus its
        execution-only fields, so a resumed study with a different worker
        count still hits the store and produces bit-identical results.
    workers:
        Worker processes for a pool owned by this call when none is given
        (``None`` = the spec's ``workers`` field; ``0`` = one per CPU).
    adaptive:
        Overrides the spec's ``stopping`` rule; an unpinned metric resolves
        to the algorithm's default target.
    stats_out:
        Receives ``trials_executed``/``stopped_early`` under adaptive
        stopping.
    """
    from repro.experiments.parallel import SweepPool  # late: avoids cycle

    point = compile_point(spec, adaptive)
    worker_count = spec.workers if workers is None else workers
    with SweepPool.ensure(pool, worker_count or None) as shared:  # 0 = one per CPU
        shared.run_points([point])
    if stats_out is not None and point.adaptive is not None:
        stats_out["trials_executed"] = point.trials_executed
        stats_out["stopped_early"] = point.stopped_early
    return point.results


def run_study(
    study: StudySpec,
    *,
    pool: Optional[Any] = None,
    workers: Optional[int] = 1,
    adaptive: Optional[Any] = None,
) -> List[List[Any]]:
    """Run every point of a study; per-point result lists in point order.

    Every point is compiled before any trial runs; then one
    :class:`~repro.experiments.parallel.SweepPool` (the caller's, or a
    fresh one sized by ``workers``) advances the whole battery at once
    (:meth:`~repro.experiments.parallel.SweepPool.run_points`), so pool
    startup is paid once per study and the points of a round share its
    maps.  ``adaptive`` resolves its metric against the study's declared
    target.  With a store on the pool every trial is keyed by its point's
    spec fingerprint, so a killed study resumes exactly where it stopped --
    across points as well as within one.
    """
    from repro.experiments.parallel import SweepPool  # late: avoids cycle

    rule = adaptive.resolved(study.metric) if adaptive is not None else None
    points = [compile_point(point, rule) for point in study.points]
    with SweepPool.ensure(pool, workers) as shared:
        return shared.run_points(points)
