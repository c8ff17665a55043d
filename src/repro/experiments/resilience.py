"""Resilient trial execution: supervision, timeouts, retries, failure records.

The ABE model is about making progress despite an adversarial network; this
module is the same idea applied to the *execution layer*.  Monte-Carlo studies
fan thousands of independent trials across ``fork`` workers, and two things
can go wrong in practice:

* a worker dies (OOM kill, segfault, operator ``kill -9``) and its in-flight
  task silently never completes -- a blocking ``pool.map`` then hangs forever;
* a trial itself diverges (a pathological scenario spec with heavy faults can
  leave the election waiting on messages that were dropped) and occupies a
  worker indefinitely.

:func:`supervised_map` answers both.  It is the ordered pool fan-out behind
:meth:`repro.experiments.parallel.SweepPool.map`.  Without a supervising
:class:`ExecutionPolicy` it is behaviourally the old ``pool.map`` (chunked
dispatch, ordered gather, bit-identical results) except that it reacts to
``KeyboardInterrupt`` by terminating and joining the worker processes instead
of leaking orphaned forks.  With a policy it dispatches trials individually,
bounds each wait by the per-trial wall-clock timeout, rebuilds a broken pool
with capped exponential backoff, re-runs only the failed seeds (trials are pure
functions of their seeds, so retries are bit-identical), degrades to
in-process serial execution when the pool itself keeps failing without
progress, and records structured :class:`TrialFailure` entries instead of
raising mid-study.  :func:`run_trial` is its serial counterpart.

The third failure mode -- the study process killed at trial 900/1000 -- is
answered by the executor's :class:`~repro.store.ResultStore`: a resumed run
serves completed trials from it (see :class:`~repro.experiments.parallel.SweepPool`).

The in-simulation counterpart -- the divergence watchdog that makes a
pathological trial *fail fast inside the worker* instead of only via an
external timeout -- is :class:`repro.sim.engine.SimulationDiverged`, raised by
``Simulator.run(raise_on_limit=True)`` and reachable declaratively through the
``on_budget="raise"`` field of a :class:`~repro.scenarios.spec.ScenarioSpec`.
See ``docs/ROBUSTNESS.md`` for the full failure model.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "ExecutionPolicy",
    "ForkPoolManager",
    "TrialFailure",
    "run_trial",
    "supervised_map",
]

#: Sentinel for "no result yet" slots (None is a legal trial result).
_MISSING = object()


# =============================================================== trial failure


@dataclass
class TrialFailure:
    """Structured record of one trial that could not produce a result.

    Instances take the place of the missing result in the ordered result
    list, so positional alignment with the seed list survives failures.
    Every *metric* attribute reads as ``None`` (see ``__getattr__``), which is
    the pre-existing "this run produced no value" convention -- adaptive
    stopping skips them, ``mean_of_attribute`` excludes them, and ``keep``
    filters written as ``lambda r: r.elected`` drop them.

    Attributes
    ----------
    seed:
        The trial seed: the mapped item itself, or its ``seed`` attribute
        (``None`` when it has neither).
    item:
        ``repr`` of the mapped item, for non-seed fan-outs.
    attempts:
        Executions consumed, including the first (``retries + 1`` when
        exhausted).
    kind:
        ``"timeout"`` (per-trial wall clock exceeded / worker lost) or
        ``"error"`` (the trial raised).
    error_type / message:
        The final exception's class name and text.
    """

    seed: Optional[int]
    item: str
    attempts: int
    kind: str
    error_type: str
    message: str

    def __getattr__(self, name: str) -> None:
        # Metric/result attributes read as None; private/dunder lookups must
        # fail normally or pickling and copying would break.
        if name.startswith("_"):
            raise AttributeError(name)
        return None


def _failure_from(item: Any, attempts: int, kind: str, error: BaseException) -> TrialFailure:
    return TrialFailure(
        seed=item if isinstance(item, int) else getattr(item, "seed", None),
        item=repr(item),
        attempts=attempts,
        kind=kind,
        error_type=type(error).__name__,
        message=str(error),
    )


# ============================================================ execution policy


@dataclass
class ExecutionPolicy:
    """How trial execution reacts to hangs, crashes and restarts.

    Attributes
    ----------
    trial_timeout:
        Per-trial wall-clock budget in seconds.  A trial whose result does not
        arrive within the budget is charged a failed attempt, the worker pool
        is rebuilt (the hung or dead worker cannot be recovered), and the seed
        is re-run.  ``None`` disables timeout supervision.
    retries:
        Re-executions granted per trial after its first failure.  Retries are
        bit-identical to first runs (trials are pure functions of their
        seeds), so a retry after a worker OOM kill reproduces exactly the
        result the lost worker would have returned.
    backoff_base / backoff_cap:
        Pool-rebuild backoff: rebuild ``k`` sleeps
        ``min(backoff_cap, backoff_base * 2**(k-1))`` seconds first.
    max_pool_rebuilds:
        Consecutive *unproductive* pool failures (a dispatch round that
        produced neither a result nor a charged attempt) tolerated before the
        supervisor degrades to in-process serial execution for the remaining
        trials.  Productive rounds -- even ones that time a trial out -- never
        trigger degradation; this bound only catches a pool that cannot run
        anything at all (e.g. ``fork`` itself failing repeatedly).
    failures:
        Structured :class:`TrialFailure` log, appended to by the supervisor
        (shared across every map the policy supervises).
    """

    trial_timeout: Optional[float] = None
    retries: int = 0
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    max_pool_rebuilds: int = 3
    failures: List[TrialFailure] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError(f"trial_timeout must be positive, got {self.trial_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base <= 0:
            raise ValueError(f"backoff_base must be positive, got {self.backoff_base}")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if self.max_pool_rebuilds < 0:
            raise ValueError(f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}")

    @property
    def supervised(self) -> bool:
        """Whether maps must take the per-trial supervision path."""
        return self.trial_timeout is not None or self.retries > 0


# ============================================================ pool supervision


class ForkPoolManager:
    """Owns one rebuildable ``multiprocessing`` pool.

    The supervisor only ever talks to pools through this interface: ``get``
    creates lazily, ``rebuild`` tears down (killing hung or half-dead workers)
    and re-creates, ``shutdown`` terminates *and joins* so no orphaned fork
    outlives the map that spawned it.
    """

    def __init__(self, factory: Callable[[], Any]) -> None:
        self._factory = factory
        self.pool: Optional[Any] = None

    def get(self) -> Any:
        if self.pool is None:
            self.pool = self._factory()
        return self.pool

    def shutdown(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def rebuild(self) -> Any:
        self.shutdown()
        return self.get()


def _call_chunk(task: Callable[[Any], Any], block: List[Any]) -> List[Any]:
    """Worker-side chunk runner (module-level: must be picklable)."""
    return [task(item) for item in block]


def _get_result(handle: Any, timeout: Optional[float]) -> Any:
    """One waiting point for async results (tests monkeypatch this)."""
    if timeout is None:
        return handle.get()
    return handle.get(timeout)


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    pools: ForkPoolManager,
    workers: int,
    policy: Optional[ExecutionPolicy] = None,
) -> List[Any]:
    """Ordered parallel map over a rebuildable pool; the one fan-out primitive.

    Parameters
    ----------
    fn:
        The picklable per-item callable, shipped to the workers (and run in
        the parent directly after serial degradation).
    pools:
        The :class:`ForkPoolManager` owning the worker pool.  The caller
        remains responsible for final ``shutdown()`` of long-lived pools;
        this function shuts the pool down itself only on interrupt or
        degradation.
    policy:
        Optional :class:`ExecutionPolicy`.  With no (supervising) policy the
        map is the historical chunked blocking gather -- bit-identical
        results, plus interrupt-safe teardown.
    """
    items = list(items)
    if not items:
        return []
    if policy is None or not policy.supervised:
        return _plain_pool_map(items, fn, pools, workers)
    return _resilient_pool_map(fn, items, pools, policy)


def _plain_pool_map(
    items: List[Any],
    fn: Callable[[Any], Any],
    pools: ForkPoolManager,
    workers: int,
) -> List[Any]:
    """The unsupervised path: chunked dispatch, ordered blocking gather.

    Matches ``pool.map`` result-for-result (same chunking heuristic, same
    input order) but gathers chunk by chunk, so a ``KeyboardInterrupt`` in
    the parent can terminate and join the workers instead of leaking them.
    A worker exception propagates unchanged and leaves the pool usable, like
    ``pool.map`` always did.
    """
    chunk = max(1, len(items) // (workers * 4))
    pool = pools.get()
    handles = [
        pool.apply_async(_call_chunk, (fn, items[start : start + chunk]))
        for start in range(0, len(items), chunk)
    ]
    results: List[Any] = []
    try:
        for handle in handles:
            results.extend(_get_result(handle, None))
    except (KeyboardInterrupt, SystemExit):
        # Reap the forks before propagating: Ctrl-C must not leave orphaned
        # workers burning CPU behind a dead study.
        pools.shutdown()
        raise
    return results


def _try_rebuild(pools: ForkPoolManager) -> None:
    """Rebuild, tolerating a factory that cannot create a pool right now.

    A creation failure surfaces again at the next round's ``get()``, where it
    is charged as an unproductive round -- so repeated failure still bounds
    out into serial degradation instead of raising mid-study.
    """
    try:
        pools.rebuild()
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        pools.pool = None


def _sleep_backoff(policy: ExecutionPolicy, rebuild_number: int) -> None:
    delay = min(policy.backoff_cap, policy.backoff_base * (2 ** max(0, rebuild_number - 1)))
    time.sleep(delay)


def _serial_attempts(
    fn: Callable[[Any], Any],
    item: Any,
    attempts_so_far: int,
    policy: ExecutionPolicy,
) -> Any:
    """Degraded-mode execution: in-process, retried, failure-capturing."""
    attempts = attempts_so_far
    while True:
        attempts += 1
        try:
            return fn(item)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            if attempts > policy.retries:
                failure = _failure_from(item, attempts, "error", error)
                policy.failures.append(failure)
                return failure


def run_trial(
    fn: Callable[[Any], Any], item: Any, policy: Optional[ExecutionPolicy] = None
) -> Any:
    """Run one trial under the policy's retry/failure contract.

    The serial counterpart of :func:`supervised_map`: with no supervising
    policy it is exactly ``fn(item)``; with one, exceptions are retried
    bit-identically and an exhausted trial yields a :class:`TrialFailure`
    instead of raising, so ``--retries`` means the same thing at
    ``workers=1`` as on a pool.  (Wall-clock timeouts need a separate worker
    process to kill and so apply only to pool execution.)
    """
    if policy is None or not policy.supervised:
        return fn(item)
    return _serial_attempts(fn, item, 0, policy)


def _resilient_pool_map(
    fn: Callable[[Any], Any],
    items: List[Any],
    pools: ForkPoolManager,
    policy: ExecutionPolicy,
) -> List[Any]:
    """The supervised path: per-trial dispatch, timeouts, retries, rebuilds.

    Trials are dispatched individually (``apply_async``) and gathered in
    order; each wait is bounded by ``policy.trial_timeout``.  A timeout means
    the worker holding that trial is hung or dead, so the round harvests
    whatever already finished, the pool is rebuilt (with capped exponential
    backoff) and every unfinished trial is re-dispatched -- re-runs are
    bit-identical because trials are pure functions of their seeds.  A trial
    that keeps failing past ``policy.retries`` is replaced by a structured
    :class:`TrialFailure` instead of raising, so one pathological seed cannot
    take down a thousand-trial study.  Rounds that make no progress at all
    count toward ``max_pool_rebuilds``; past it the remaining trials run
    serially in the parent as a last resort.
    """
    count = len(items)
    results: List[Any] = [_MISSING] * count
    attempts = [0] * count
    pending = list(range(count))
    timeout = policy.trial_timeout
    rebuilds = 0
    unproductive = 0
    degraded = False
    while pending:
        if degraded:
            for index in pending:
                results[index] = _serial_attempts(fn, items[index], attempts[index], policy)
            pending = []
            break
        failed: List[Tuple[int, str, BaseException]] = []
        still_pending: List[int] = []
        broken = False
        progressed = False
        try:
            pool = pools.get()
            handles = [
                (index, pool.apply_async(fn, (items[index],)))
                for index in pending
            ]
        except (KeyboardInterrupt, SystemExit):
            pools.shutdown()
            raise
        except Exception:
            # The pool itself is unusable (fork failure, closed state, ...):
            # an unproductive round by definition.
            handles = []
            still_pending = list(pending)
            broken = True
        try:
            for index, handle in handles:
                if broken:
                    # The pool is already condemned; harvest only what is
                    # provably finished, never wait on a doomed handle.
                    if handle.ready():
                        try:
                            value = _get_result(handle, 0)
                        except (KeyboardInterrupt, SystemExit):
                            pools.shutdown()
                            raise
                        except multiprocessing.TimeoutError:
                            still_pending.append(index)
                            continue
                        except Exception as error:
                            attempts[index] += 1
                            failed.append((index, "error", error))
                            continue
                        results[index] = value
                        progressed = True
                    else:
                        still_pending.append(index)
                    continue
                try:
                    value = _get_result(handle, timeout)
                except (KeyboardInterrupt, SystemExit):
                    pools.shutdown()
                    raise
                except multiprocessing.TimeoutError:
                    attempts[index] += 1
                    failed.append(
                        (
                            index,
                            "timeout",
                            TimeoutError(
                                f"trial result did not arrive within {timeout}s "
                                "(hung trial or lost worker)"
                            ),
                        )
                    )
                    broken = True
                except Exception as error:
                    attempts[index] += 1
                    failed.append((index, "error", error))
                else:
                    results[index] = value
                    progressed = True
        except (KeyboardInterrupt, SystemExit):
            pools.shutdown()
            raise
        for index, kind, error in failed:
            progressed = True  # a charged attempt is progress toward termination
            if attempts[index] > policy.retries:
                failure = _failure_from(items[index], attempts[index], kind, error)
                policy.failures.append(failure)
                results[index] = failure
            else:
                still_pending.append(index)
        pending = sorted(still_pending)
        if broken and pending:
            if not progressed:
                unproductive += 1
                if unproductive > policy.max_pool_rebuilds:
                    pools.shutdown()
                    degraded = True
                    continue
            else:
                unproductive = 0
            rebuilds += 1
            _sleep_backoff(policy, rebuilds)
            _try_rebuild(pools)
        elif broken:
            # Everything resolved despite the broken pool; replace it so the
            # next map starts from a healthy state.
            rebuilds += 1
            _try_rebuild(pools)
    return results
