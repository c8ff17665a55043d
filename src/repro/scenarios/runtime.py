"""The single entry point from declarative specs to running simulations.

:func:`run_scenario` compiles one :class:`~repro.scenarios.spec.ScenarioSpec`
into its trial callable and runs it on the one trial executor,
:class:`~repro.experiments.parallel.SweepPool`, and returns the trial
results.  The compiled trial, the derived seed list and the adaptive batch
boundaries are exactly the ones the hand-threaded experiment code produced,
so a spec that mirrors an experiment's parameters reproduces its results bit
for bit -- locked by the pre-refactor goldens in ``tests/harness``.

:func:`run_study` executes a :class:`~repro.scenarios.spec.StudySpec` -- an
ordered battery of points -- point by point on one shared executor, so pool
startup is paid once per study and every trial goes through the executor's
policy and store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.scenarios.algorithms import ALGORITHMS, AlgorithmEntry
from repro.scenarios.spec import ScenarioSpec, StudySpec
from repro.store.fingerprint import spec_fingerprint

# NOTE: ``repro.experiments`` imports this module, so the executor
# (SweepPool) is imported lazily inside the entry points to keep the import
# graph acyclic.

__all__ = ["compile_trial", "run_scenario", "run_study"]


def compile_trial(spec: ScenarioSpec) -> Any:
    """Compile a spec into its picklable ``seed -> result`` trial callable.

    Resolution against the registries happens here, so unknown algorithm,
    topology, delay, drift or schedule kinds fail fast with the list of known
    keys, before any simulation starts.
    """
    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    return entry.build_trial(spec)


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
        count still hits the store and produces bit-identical results.  A
        spec that refuses a canonical fingerprint (an override whose repr
        carries a memory address -- a per-process key that could never hit)
        runs without the store.
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

    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    run_one = entry.build_trial(spec)
    if entry.one_shot and spec.trials != 1:
        raise ValueError(
            f"algorithm {spec.algorithm!r} is a one-shot evaluation; "
            f"use one point per parameter value instead of trials={spec.trials}"
        )
    key = spec_fingerprint(spec)
    worker_count = spec.workers if workers is None else workers
    with SweepPool.ensure(pool, worker_count or None) as shared:  # 0 = one per CPU
        if entry.one_shot:
            # One deterministic evaluation, at the raw spec seed.
            return shared.run_seeds(run_one, [spec.seed], key)
        rule = adaptive if adaptive is not None else spec.stopping
        if rule is not None:
            rule = rule.resolved(entry.metric)
        return shared.monte_carlo(
            run_one,
            trials=spec.trials,
            base_seed=spec.seed,
            label=spec.label,
            adaptive=rule,
            stats_out=stats_out,
            key=key,
        )


def run_study(
    study: StudySpec,
    *,
    pool: Optional[Any] = None,
    workers: Optional[int] = 1,
    adaptive: Optional[Any] = None,
) -> List[List[Any]]:
    """Run every point of a study; per-point result lists in point order.

    One :class:`~repro.experiments.parallel.SweepPool` (the caller's, or a
    fresh one sized by ``workers``) serves the whole battery, so pool startup
    is paid once per study rather than once per point.  ``adaptive``
    resolves its metric against the study's declared target.  With a store
    on the pool every trial is keyed by its point's spec fingerprint, so a
    killed study resumes exactly where it stopped -- across points as well
    as within one.
    """
    from repro.experiments.parallel import SweepPool  # late: avoids cycle

    rule = adaptive.resolved(study.metric) if adaptive is not None else None
    with SweepPool.ensure(pool, workers) as shared:
        return [run_scenario(point, pool=shared, adaptive=rule) for point in study.points]
