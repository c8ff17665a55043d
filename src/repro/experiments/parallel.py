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
:meth:`~SweepPool.map` is the only fan-out and :meth:`~SweepPool.run_points`
the only trial loop: it advances a whole battery of points, fixed-count,
adaptive or one-shot, round by round, so every point of a round shares each
pool map and each store transaction.  :meth:`~SweepPool.run_seeds` and
:meth:`~SweepPool.monte_carlo` are its one-point calls.

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
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

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
    "PointRun",
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
        Optional :class:`~repro.store.ResultStore`.  Keyed trials (points
        with a ``key``) are looked up before dispatch and journaled as they
        complete: after every trial when serial, after every
        ``max(16, 4 * workers)`` trials on a pool, in one transaction per
        block whichever points its trials belong to.  Failed trials are
        never journaled, so a resumed run re-attempts them.

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

        A one-point :meth:`run_points`: with a store and a ``key`` (a spec
        fingerprint, or :func:`~repro.store.callable_fingerprint` for a raw
        callable), completed ``(key, seed)`` trials come from the store and
        only the missing ones are mapped, in journaling blocks; without
        either every seed is mapped and nothing is recorded.
        """
        return self.run_points([PointRun(run_one, list(seeds), key=key)])[0]

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
        ordered results.  ``adaptive`` (an
        :class:`~repro.experiments.runner.AdaptiveStopping`) runs ``min_trials``
        first and then ``batch_size`` batches, stopping at the first batch
        boundary where the target metric's Student-t interval is tight enough
        (``trials`` is the default ``max_trials``); ``stats_out`` then
        receives ``trials_executed`` and ``stopped_early``.  A one-point
        :meth:`run_points`, so the stopping point depends only on the
        per-seed results -- identical for every worker count and for a run
        resumed from ``key``'s stored trials.
        """
        point = PointRun.derived(
            run_one, trials, base_seed, label, adaptive=adaptive, keep=keep, key=key
        )
        self.run_points([point])
        if stats_out is not None and point.adaptive is not None:
            stats_out["trials_executed"] = point.trials_executed
            stats_out["stopped_early"] = point.stopped_early
        return point.results

    # ---------------------------------------------------------------- battery

    def run_points(self, points: Sequence[PointRun]) -> List[List[Any]]:
        """Advance a battery of points together; per-point results in order.

        The one trial loop.  Each round takes the next seeds of every
        unfinished point (all of a fixed-count point's seeds; ``min_trials``
        and then ``batch_size`` seeds of an adaptive one), looks each keyed
        point's seeds up in the store, and maps every missing trial of the
        round -- across points -- in journaling blocks: one trial per block
        serially, ``max(16, 4 * workers)`` on a pool, each block recorded in
        one store transaction.  Without a store a round is one map.

        A point whose key an earlier unfinished point holds waits until that
        point finishes, so its lookups see the earlier point's rows.  Per
        point, the results, the stopping point, the store rows and the
        lookup counts are those of running the points one after another;
        only the grouping of trials into maps and transactions differs.
        Every trial callable must pickle when the pool fans out; that is
        checked for every point before the first dispatch.
        """
        points = list(points)
        store = self.store
        step = 1 if self.workers == 1 else max(16, 4 * self.workers)
        checked = False
        while True:
            round_: List[Tuple[PointRun, List[int], Dict[int, Any]]] = []
            pending: List[Tuple[Dict[int, Any], Optional[str], _Trial]] = []
            in_flight = set()
            for point in points:
                if point.finished:
                    continue
                key = point.key if store is not None else None
                if key is not None:
                    if key in in_flight:
                        continue
                    in_flight.add(key)
                seeds = point._next_seeds()
                found: Dict[int, Any] = {}
                if key is not None:
                    found = store.lookup(key, seeds)
                    point.lookups += len(seeds)
                    point.hits += len(found)
                round_.append((point, seeds, found))
                pending.extend(
                    (found, key, _Trial(point.run_one, seed)) for seed in seeds if seed not in found
                )
            if not round_:
                return [point.results for point in points]
            if pending and not checked:
                if self.workers > 1 and fork_available():
                    for point in points:
                        _require_picklable(point.run_one)
                checked = True
            size = step if store is not None else max(1, len(pending))
            for start in range(0, len(pending), size):
                block = pending[start : start + size]
                fresh = self.map(_call_trial, [trial for _, _, trial in block])
                rows = []
                for (found, key, trial), result in zip(block, fresh):
                    found[trial.seed] = result
                    if key is not None and not isinstance(result, TrialFailure):
                        rows.append((key, trial.seed, result))
                if rows:
                    store.record_many(rows)
            for point, seeds, found in round_:
                point._absorb([found[seed] for seed in seeds])


class _Trial(NamedTuple):
    """One mapped trial of a battery: a point's callable at one seed.

    Its ``repr`` is the seed's, so a :class:`TrialFailure` reads as it would
    for a map over bare seeds.
    """

    run_one: Callable[[int], Any]
    seed: int

    def __repr__(self) -> str:
        return repr(self.seed)


def _call_trial(trial: _Trial) -> Any:
    """The callable every battery map ships (module-level: must pickle)."""
    return trial.run_one(trial.seed)


@dataclass(eq=False)
class PointRun:
    """One point of a battery on :meth:`SweepPool.run_points`.

    The inputs are the point's ``seed -> result`` trial callable
    ``run_one``, its ``seeds`` (under ``adaptive``, every seed the rule may
    reach), its store ``key`` (``None`` bypasses the store), a resolved
    :class:`~repro.experiments.runner.AdaptiveStopping` rule and a ``keep``
    filter.  The loop fills in the rest: the kept ``results`` in seed
    order, ``trials_executed`` (seeds gone through, cached or run),
    ``stopped_early``, and the store rows asked for (``lookups``) and found
    (``hits``).
    """

    run_one: Callable[[int], Any]
    seeds: Sequence[int]
    key: Optional[str] = None
    adaptive: Optional["AdaptiveStopping"] = None
    keep: Optional[Callable[[Any], bool]] = None
    results: List[Any] = field(default_factory=list, init=False)
    trials_executed: int = field(default=0, init=False)
    stopped_early: bool = field(default=False, init=False)
    lookups: int = field(default=0, init=False)
    hits: int = field(default=0, init=False)
    _values: List[float] = field(default_factory=list, init=False, repr=False)
    _converged: bool = field(default=False, init=False, repr=False)

    @classmethod
    def derived(
        cls,
        run_one: Callable[[int], Any],
        trials: int,
        base_seed: int = 0,
        label: str = "",
        *,
        adaptive: Optional["AdaptiveStopping"] = None,
        keep: Optional[Callable[[Any], bool]] = None,
        key: Optional[str] = None,
    ) -> "PointRun":
        """A Monte-Carlo point over ``trial_seeds(base_seed, n, label)``:
        ``n`` is ``trials``, or the rule's ``max_trials`` when it pins one
        (an unpinned rule metric resolves to ``messages_total``)."""
        from repro.experiments.runner import trial_seeds  # late: avoids cycle

        if adaptive is not None:
            adaptive = adaptive.resolved("messages_total")
            if adaptive.max_trials is not None:
                trials = adaptive.max_trials
        return cls(run_one, trial_seeds(base_seed, trials, label), key, adaptive, keep)

    @property
    def finished(self) -> bool:
        return self._converged or self.trials_executed >= len(self.seeds)

    def _next_seeds(self) -> List[int]:
        done = self.trials_executed
        if self.adaptive is None:
            upper = len(self.seeds)
        elif done == 0:
            upper = min(self.adaptive.min_trials, len(self.seeds))
        else:
            upper = min(done + self.adaptive.batch_size, len(self.seeds))
        return list(self.seeds[done:upper])

    def _absorb(self, outcomes: List[Any]) -> None:
        rule = self.adaptive
        for outcome in outcomes:
            if self.keep is not None and not self.keep(outcome):
                continue
            self.results.append(outcome)
            if rule is not None:
                value = getattr(outcome, rule.metric)
                if value is not None:
                    self._values.append(float(value))
        self.trials_executed += len(outcomes)
        if rule is not None and len(self._values) >= 2:
            self._converged = (
                relative_half_width(self._values, rule.confidence) <= rule.ci_tolerance
            )
        self.stopped_early = self._converged and self.trials_executed < len(self.seeds)
