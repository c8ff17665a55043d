"""The trial executor: one :class:`SweepPool` runs every Monte-Carlo trial.

Every experiment is a set of *independent* trials: ``run_one(seed)`` is a pure
function of its derived seed (all simulation randomness flows from it through
:class:`~repro.sim.rng.RandomSource`), so trials can be fanned out across
``multiprocessing`` workers without any change to the results.  The executor
maps the exact ``derive_seed(base, "trial{i}")`` seed list that serial
execution uses and preserves input order, so serial and parallel runs are
bit-identical per seed -- asserted by the determinism regression tests.

:class:`SweepPool` carries the three execution inputs an entry point chooses
once: the worker count, an optional
:class:`~repro.experiments.resilience.ExecutionPolicy` (per-trial timeouts,
retries, pool rebuilds) and an optional :class:`~repro.store.ResultStore`
(cached trials are served from it, fresh ones journaled into it).  Its
:meth:`~SweepPool.map` is the only fan-out and :meth:`~SweepPool.monte_carlo`
the only trial loop, fixed-count or adaptive.

Worker processes are forked once and reused by every ``map``, so a callable
fanned over more than one worker must pickle: use a module-level function, a
``functools.partial`` over one, or a callable class such as
:class:`repro.scenarios.algorithms.ElectionScenarioTrial`.  Where ``fork`` is
unavailable (e.g. Windows) the executor runs in process instead.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import pickle
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, TypeVar

from repro.experiments.resilience import (
    ExecutionPolicy,
    ForkPoolManager,
    TrialFailure,
    run_trial,
    supervised_map,
)
from repro.stats.confidence import relative_half_width

if TYPE_CHECKING:
    from repro.experiments.runner import AdaptiveStopping
    from repro.store.result_store import ResultStore

__all__ = [
    "SweepPool",
    "default_worker_count",
    "fork_available",
    "resolve_worker_count",
    "worker_count_argument",
]

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """Worker count used for ``workers=None``: one per available CPU."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the ``fork`` start method (required for worker pools) exists."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_worker_count(value: int) -> int:
    """Map the CLI convention for ``--workers`` to a concrete worker count.

    ``0`` means one worker per CPU; positive values pass through; negatives
    are rejected.
    """
    if value < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {value}")
    return value if value > 0 else default_worker_count()


def worker_count_argument(text: str) -> int:
    """``argparse`` ``type=`` for ``--workers`` flags (non-negative int)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = one per CPU), got {value}"
        )
    return value


def _require_picklable(fn: Callable[[Any], Any]) -> None:
    """Refuse, before any dispatch, a callable the workers could never receive."""
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise TypeError(
            f"{fn!r} cannot be sent to pool workers ({type(error).__name__}: "
            f"{error}); pass a module-level function or a picklable callable "
            "class such as repro.scenarios.algorithms.ElectionScenarioTrial, "
            "or run with workers=1"
        ) from None


class SweepPool:
    """The one trial executor: workers, policy and store, shared by a sweep.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` (the default) runs everything in process and
        never creates a pool; ``None`` means one per CPU.  A pool is forked
        lazily on the first ``map`` that needs one and reused until
        :meth:`close`, so a run served entirely from the store forks nothing.
    policy:
        Optional :class:`~repro.experiments.resilience.ExecutionPolicy`.
        Without one a trial exception propagates; with one, failed trials are
        retried bit-identically and exhausted ones come back as
        :class:`~repro.experiments.resilience.TrialFailure` entries (also
        appended to ``policy.failures``).  Timeouts need a worker to kill and
        so apply to pooled maps only.
    store:
        Optional :class:`~repro.store.ResultStore`.  Keyed trials
        (:meth:`run_seeds` / :meth:`monte_carlo` with a ``key``) are looked up
        before dispatch and journaled as they complete: after every trial
        when serial, after every ``max(16, 4 * workers)`` trials on a pool.
        Failed trials are never journaled, so a resumed run re-attempts them.

    Results never depend on the worker count, the policy (absent failures)
    or the store: every trial is a pure function of its seed.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        policy: Optional[ExecutionPolicy] = None,
        store: Optional["ResultStore"] = None,
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.policy = policy
        self.store = store
        context = multiprocessing.get_context("fork") if fork_available() else None
        self._pools = ForkPoolManager(
            lambda: context.Pool(processes=self.workers)  # type: ignore[union-attr]
        )
        self._closed = False

    @property
    def _pool(self):
        """The underlying ``multiprocessing`` pool (``None`` until first use)."""
        return self._pools.pool

    # -------------------------------------------------------------- lifecycle

    @staticmethod
    @contextmanager
    def ensure(
        pool: Optional["SweepPool"], workers: Optional[int]
    ) -> Iterator["SweepPool"]:
        """Yield ``pool`` if given, else a freshly owned ``SweepPool(workers)``.

        The one pool-lifecycle idiom of the experiment sweeps: an externally
        supplied pool (with its policy and store) is left open for its owner,
        so one executor can serve many experiments, while a pool created here
        is closed on exit.
        """
        if pool is not None:
            yield pool
            return
        owned = SweepPool(workers)
        try:
            yield owned
        finally:
            owned.close()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Tear down the worker pool (idempotent); the object stays usable
        serially afterwards only for ``workers=1``.  The store is left open
        for its owner."""
        self._closed = True
        self._pools.shutdown()

    # ---------------------------------------------------------------- mapping

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, in input order, under the policy.

        A single item, ``workers=1`` or a platform without ``fork`` runs in
        process; otherwise the items are dispatched to the shared pool, which
        first requires ``fn`` to pickle (``TypeError`` otherwise).
        """
        items = list(items)
        if self.workers == 1 or len(items) <= 1 or not fork_available():
            return [run_trial(fn, item, self.policy) for item in items]
        if self._closed:
            raise RuntimeError("SweepPool is closed")
        _require_picklable(fn)
        return supervised_map(
            fn, items, pools=self._pools, workers=self.workers, policy=self.policy
        )

    def run_seeds(
        self, run_one: Callable[[int], T], seeds: Sequence[int], key: Optional[str] = None
    ) -> List[T]:
        """``run_one`` at every seed, in seed order, through the store.

        With a store and a ``key`` (a spec fingerprint, or
        :func:`~repro.store.callable_fingerprint` for a raw callable),
        completed ``(key, seed)`` trials come from the store and only the
        missing ones are mapped, in journaling blocks; without either every
        seed is mapped and nothing is recorded.
        """
        seeds = list(seeds)
        if self.store is None or key is None:
            return self.map(run_one, seeds)
        by_seed: Dict[int, Any] = self.store.lookup(key, seeds)
        missing = [seed for seed in seeds if seed not in by_seed]
        step = 1 if self.workers == 1 else max(16, 4 * self.workers)
        for start in range(0, len(missing), step):
            block = missing[start : start + step]
            fresh = self.map(run_one, block)
            by_seed.update(zip(block, fresh))
            self.store.record_many(
                key,
                [
                    (seed, result)
                    for seed, result in zip(block, fresh)
                    if not isinstance(result, TrialFailure)
                ],
            )
        return [by_seed[seed] for seed in seeds]

    # ------------------------------------------------------------ monte carlo

    def monte_carlo(
        self,
        run_one: Callable[[int], T],
        trials: int,
        base_seed: int = 0,
        label: str = "",
        keep: Optional[Callable[[T], bool]] = None,
        adaptive: Optional["AdaptiveStopping"] = None,
        stats_out: Optional[Dict[str, Any]] = None,
        key: Optional[str] = None,
    ) -> List[T]:
        """Run ``run_one`` over ``trials`` derived seeds and collect the results.

        Trial ``i`` uses ``derive_seed(base_seed, "[label/]trial{i}")``
        (:func:`~repro.experiments.runner.trial_seeds`); ``keep`` filters the
        ordered results afterwards.  ``adaptive`` (an
        :class:`~repro.experiments.runner.AdaptiveStopping`) runs ``min_trials``
        first and then ``batch_size`` batches, stopping at the first batch
        boundary where the target metric's Student-t interval is tight enough
        (``trials`` is the default ``max_trials``); ``stats_out`` then
        receives ``trials_executed`` and ``stopped_early``.  Each batch is one
        :meth:`run_seeds` call, so the stopping point depends only on the
        per-seed results -- identical for every worker count and for a run
        resumed from ``key``'s stored trials.
        """
        from repro.experiments.runner import trial_seeds  # late: avoids cycle

        if adaptive is None:
            outcomes = self.run_seeds(run_one, trial_seeds(base_seed, trials, label), key)
            return outcomes if keep is None else [o for o in outcomes if keep(o)]

        adaptive = adaptive.resolved("messages_total")
        max_trials = adaptive.max_trials if adaptive.max_trials is not None else trials
        min_trials = min(adaptive.min_trials, max_trials)
        seeds = trial_seeds(base_seed, max_trials, label)
        kept: List[T] = []
        values: List[float] = []
        index = 0
        converged = False
        while index < max_trials and not converged:
            upper = min_trials if index < min_trials else min(index + adaptive.batch_size, max_trials)
            for outcome in self.run_seeds(run_one, seeds[index:upper], key):
                if keep is not None and not keep(outcome):
                    continue
                kept.append(outcome)
                value = getattr(outcome, adaptive.metric)
                if value is not None:
                    values.append(float(value))
            index = upper
            if len(values) >= 2:
                converged = relative_half_width(values, adaptive.confidence) <= adaptive.ci_tolerance
        if stats_out is not None:
            stats_out["trials_executed"] = index
            stats_out["stopped_early"] = converged and index < max_trials
        return kept
