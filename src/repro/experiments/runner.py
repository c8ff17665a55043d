"""Monte-Carlo trial orchestration.

Experiments repeat a stochastic simulation many times with independent,
reproducibly derived seeds and aggregate the results.  The helpers here keep
the seed discipline in one place: trial ``i`` of an experiment with base seed
``s`` always uses ``derive_seed(s, f"trial{i}")``, so adding trials never
perturbs existing ones and two experiments with different base seeds never
share randomness.

Adaptive stopping
-----------------
Fixed trial counts pay for precision nobody asked for: an estimator that has
already converged keeps burning trials, and one that has not silently under-
delivers.  :class:`AdaptiveStopping` instead runs trials in fixed,
worker-independent batches and stops as soon as the Student-t confidence
interval on the target metric is tight enough (relative half-width below
``ci_tolerance``), bounded by ``min_trials``/``max_trials``.  Because the
batch boundaries and the derived seed list depend only on the configuration
-- never on the worker count or on timing -- the executed trial set, the
stopping point and the returned results are bit-identical for every worker
count.  The loop itself lives in the one executor,
:meth:`repro.experiments.parallel.SweepPool.monte_carlo`; :func:`monte_carlo`
here is its convenience wrapper.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TypeVar

from repro.experiments.parallel import (
    SweepPool,
    resolve_worker_count,
    worker_count_argument,
)
from repro.experiments.resilience import ExecutionPolicy
from repro.sim.rng import derive_seed
from repro.store.result_store import ResultStore

__all__ = [
    "AdaptiveStopping",
    "adaptive_parameters",
    "add_adaptive_stopping_arguments",
    "add_execution_arguments",
    "adaptive_stopping_from_args",
    "execution_from_args",
    "execution_policy_from_args",
    "executor_from_args",
    "trial_seeds",
    "monte_carlo",
    "mean_of_attribute",
]

T = TypeVar("T")

#: Trials per post-``min_trials`` batch when :class:`AdaptiveStopping` does
#: not pin one.  Small enough to stop promptly, large enough to keep the
#: convergence checks (and the per-batch dispatch overhead) rare.
DEFAULT_ADAPTIVE_BATCH = 8


@dataclass(frozen=True)
class AdaptiveStopping:
    """Sequential-stopping rule for Monte-Carlo trials.

    Attributes
    ----------
    ci_tolerance:
        Stop once the relative half-width of the ``confidence``-level
        Student-t interval on the target metric falls to this value or below
        ("the mean is known to within 5%" is ``0.05``).
    min_trials:
        Trials always executed before the first convergence check (>= 2; a
        confidence interval needs at least two samples).
    max_trials:
        Hard cap on executed trials; ``None`` means "the ``trials`` argument
        of the surrounding call" -- the fixed count becomes the worst case.
    metric:
        Attribute of a trial result fed to the interval (``None`` values are
        skipped, e.g. ``election_time`` of a non-terminating run).  ``None``
        lets the calling experiment substitute its target metric; anything
        still unresolved falls back to ``"messages_total"``.
    confidence:
        Confidence level of the interval (default 95%).
    batch_size:
        Trials per batch after ``min_trials``.  Batches are the atom of both
        dispatch and decision: the stopping rule only evaluates at batch
        boundaries, which is what makes the executed trial count independent
        of the worker count.
    """

    ci_tolerance: float = 0.05
    min_trials: int = 8
    max_trials: Optional[int] = None
    metric: Optional[str] = None
    confidence: float = 0.95
    batch_size: int = DEFAULT_ADAPTIVE_BATCH

    def __post_init__(self) -> None:
        if self.ci_tolerance <= 0:
            raise ValueError(f"ci_tolerance must be positive, got {self.ci_tolerance}")
        if self.min_trials < 2:
            raise ValueError(f"min_trials must be >= 2, got {self.min_trials}")
        if self.max_trials is not None and self.max_trials < self.min_trials:
            raise ValueError(
                f"max_trials ({self.max_trials}) must be >= min_trials "
                f"({self.min_trials})"
            )
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def resolved(self, default_metric: str) -> "AdaptiveStopping":
        """This rule with an unset ``metric`` bound to the experiment's target."""
        if self.metric is not None:
            return self
        return replace(self, metric=default_metric)

    def with_budget(self, budget: int) -> Optional["AdaptiveStopping"]:
        """This rule capped at a fixed trial budget; ``None`` below 2 trials.

        The budgeted execution policy of the design-space-exploration rungs
        (:mod:`repro.dse.strategies`): a configuration promoted to a rung of
        ``budget`` trials runs at most ``budget`` of them, stopping earlier
        only when its confidence interval converges.  ``min_trials`` is
        clamped into the budget (never below the 2 samples an interval
        needs); a budget of 1 cannot support a convergence check at all, so
        the rule switches itself off and the single trial just runs.
        """
        if budget < 2:
            return None
        return replace(
            self,
            max_trials=budget,
            min_trials=max(2, min(self.min_trials, budget)),
        )


def trial_seeds(base_seed: int, trials: int, label: str = "") -> List[int]:
    """Derive ``trials`` independent seeds from ``base_seed``.

    ``label`` lets one experiment derive several independent seed families
    (e.g. one per parameter value) from the same base seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    prefix = f"{label}/trial" if label else "trial"
    return [derive_seed(base_seed, f"{prefix}{index}") for index in range(trials)]


def adaptive_parameters(
    parameters: Dict[str, Any],
    adaptive: Optional[AdaptiveStopping],
    per_point: Sequence[Sequence[Any]],
) -> Dict[str, Any]:
    """Augment an experiment's ``parameters`` dict with the adaptive facts.

    The one place the reporting convention lives: experiments record the
    tolerance and the per-point executed trial counts only when a rule was
    actually in force, so fixed-count runs keep their historical parameter
    fingerprints byte-identical.
    """
    if adaptive is not None:
        parameters["ci_tolerance"] = adaptive.ci_tolerance
        parameters["trials_executed"] = tuple(len(results) for results in per_point)
    return parameters


def add_adaptive_stopping_arguments(parser: Any) -> None:
    """Install the shared ``--ci-tol``/``--min-trials``/``--max-trials`` flags.

    Used by both ``abe-repro experiment`` and
    ``scripts/run_all_experiments.py`` so the two entry points cannot drift.
    """
    parser.add_argument(
        "--ci-tol",
        type=float,
        default=None,
        help=(
            "adaptive stopping: stop each configuration's trials once the "
            "95%% CI half-width on the target metric falls below this "
            "fraction of the mean (e.g. 0.1 = known to within 10%%); the "
            "trial count is identical for any --workers value"
        ),
    )
    parser.add_argument(
        "--min-trials",
        type=int,
        default=None,
        help="adaptive stopping: trials before the first convergence check (default 8)",
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help=(
            "adaptive stopping: hard trial cap (default: the experiment's "
            "fixed trial count)"
        ),
    )


def add_execution_arguments(
    parser: Any, workers_default: Optional[int] = None, checkpoint: bool = True
) -> None:
    """Install the shared execution flags: ``--workers``, the adaptive trio,
    the resilience quartet (``--trial-timeout``/``--retries``/
    ``--checkpoint``/``--resume``) and ``--allow-stale-cache``.

    The one wiring point for every trial-running entry point (``abe-repro
    experiment``, ``abe-repro scenario``, ``abe-repro serve`` and
    ``scripts/run_all_experiments.py``), so their execution flags cannot
    drift apart.  ``checkpoint=False`` omits ``--checkpoint``/``--resume``
    for entry points with their own persistent store (``serve``).
    """
    parser.add_argument(
        "--workers",
        type=worker_count_argument,
        default=workers_default,
        help=(
            "worker processes for Monte-Carlo trials (default 1 = serial; "
            "0 = one per CPU; results are identical for any value)"
        ),
    )
    add_adaptive_stopping_arguments(parser)
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-trial wall-clock budget; a trial whose worker hangs or dies "
            "is re-run deterministically instead of stalling the study "
            "(implies --retries 2 unless --retries is given)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "re-runs granted per failed trial before it is recorded as a "
            "structured failure (retries are bit-identical: trials are pure "
            "functions of their seeds)"
        ),
    )
    if checkpoint:
        parser.add_argument(
            "--checkpoint",
            type=str,
            default=None,
            metavar="PATH",
            help=(
                "record completed trials in this sqlite result store so a "
                "killed study can be resumed with --resume (without --resume "
                "an existing store at PATH is replaced)"
            ),
        )
        parser.add_argument(
            "--resume",
            action="store_true",
            help=(
                "resume from the --checkpoint store: completed (fingerprint, "
                "seed) trials are skipped and the aggregate output is "
                "bit-identical to an uninterrupted run"
            ),
        )
    parser.add_argument(
        "--allow-stale-cache",
        action="store_true",
        help=(
            "also reuse cached results recorded under a different code "
            "version (by default they are ignored with a note, because "
            "results from different code must never be mixed into one "
            "aggregate)"
        ),
    )


def execution_from_args(args: Any) -> tuple:
    """The parsed execution flags:
    ``(workers or None, adaptive rule or None, execution policy or None)``.

    ``workers`` comes back resolved (``0`` -> one per CPU) or ``None`` when
    the flag was not given, so callers can distinguish "default" from an
    explicit choice.  Workers and policy (see
    :func:`execution_policy_from_args`) configure the entry point's
    :class:`~repro.experiments.parallel.SweepPool`.
    """
    workers = None
    if getattr(args, "workers", None) is not None:
        workers = resolve_worker_count(args.workers)
    return workers, adaptive_stopping_from_args(args), execution_policy_from_args(args)


def execution_policy_from_args(args: Any) -> Optional[ExecutionPolicy]:
    """Build the :class:`~repro.experiments.resilience.ExecutionPolicy` from
    parsed flags; ``None`` when neither ``--trial-timeout`` nor ``--retries``
    was given.

    ``--trial-timeout`` without an explicit ``--retries`` defaults to two
    retries (a lost worker's trial should be re-run, not just recorded as
    lost).
    """
    timeout = getattr(args, "trial_timeout", None)
    retries = getattr(args, "retries", None)
    if timeout is None and retries is None:
        return None
    if retries is None:
        retries = 2
    try:
        return ExecutionPolicy(trial_timeout=timeout, retries=retries)
    except ValueError as error:
        raise SystemExit(str(error)) from None


@contextmanager
def executor_from_args(
    args: Any, workers: Optional[int], policy: Optional[ExecutionPolicy]
) -> Iterator[SweepPool]:
    """The one :class:`~repro.experiments.parallel.SweepPool` of an entry
    point's run, with ``workers``, ``policy`` and the ``--checkpoint`` store.

    ``--checkpoint PATH`` opens ``ResultStore(PATH, fresh=not --resume,
    allow_stale=--allow-stale-cache)``: ``--resume`` keeps the store's
    completed trials and requires ``--checkpoint``; without it an existing
    store at the path is replaced.  A path that is not a sqlite store (e.g. a
    retired JSONL journal) exits with a one-line message and leaves the file
    untouched.  Pool and store
    are closed on exit.
    """
    path = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if resume and path is None:
        raise SystemExit("--resume requires --checkpoint (the store to resume from)")
    store = None
    if path is not None:
        try:
            store = ResultStore(
                path,
                fresh=not resume,
                allow_stale=bool(getattr(args, "allow_stale_cache", False)),
            )
        except ValueError as error:
            raise SystemExit(str(error)) from None
    try:
        with SweepPool(workers, policy=policy, store=store) as pool:
            yield pool
    finally:
        if store is not None:
            store.close()


def adaptive_stopping_from_args(args: Any) -> Optional[AdaptiveStopping]:
    """Build the rule from parsed flags; ``None`` when adaptive mode is off.

    ``--min-trials``/``--max-trials`` only make sense together with
    ``--ci-tol``; rejecting the combination loudly beats silently running
    the full fixed trial count.
    """
    if args.ci_tol is None:
        if args.min_trials is not None or args.max_trials is not None:
            raise SystemExit(
                "--min-trials/--max-trials configure adaptive stopping and "
                "require --ci-tol (the convergence tolerance) to be set"
            )
        return None
    min_trials = args.min_trials
    if min_trials is None:
        # A small --max-trials is a legitimate cap: clamp the default floor
        # to it instead of tripping the min<=max validation.  Never below 2,
        # though -- a confidence interval needs two samples, and the min<=max
        # check then rejects --max-trials 1 with a message naming that flag.
        min_trials = 8 if args.max_trials is None else max(2, min(8, args.max_trials))
    try:
        return AdaptiveStopping(
            ci_tolerance=args.ci_tol,
            min_trials=min_trials,
            max_trials=args.max_trials,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None


def monte_carlo(
    run_one: Callable[[int], T],
    trials: int,
    base_seed: int = 0,
    label: str = "",
    keep: Optional[Callable[[T], bool]] = None,
    workers: Optional[int] = 1,
    pool: Optional[SweepPool] = None,
    adaptive: Optional[AdaptiveStopping] = None,
    stats_out: Optional[Dict[str, Any]] = None,
) -> List[T]:
    """Run ``run_one(seed)`` for ``trials`` derived seeds and collect results.

    :meth:`SweepPool.monte_carlo <repro.experiments.parallel.SweepPool.monte_carlo>`
    on ``pool`` (its policy and store apply), or on a pool of ``workers``
    processes owned for this call (``None`` = one per CPU; the default ``1``
    runs serially in process).  ``keep`` drops results after the ordered
    gather; ``adaptive`` and ``stats_out`` select sequential stopping.
    Because each trial is a pure function of its derived seed, the results
    are bit-identical for every worker count.
    """
    with SweepPool.ensure(pool, workers) as shared:
        return shared.monte_carlo(
            run_one,
            trials,
            base_seed=base_seed,
            label=label,
            keep=keep,
            adaptive=adaptive,
            stats_out=stats_out,
        )


def mean_of_attribute(results: Sequence[Any], attribute: str) -> float:
    """Mean of ``getattr(result, attribute)`` over non-``None`` values."""
    values = [getattr(result, attribute) for result in results]
    values = [value for value in values if value is not None]
    if not values:
        raise ValueError(f"no values for attribute {attribute!r}")
    return sum(values) / len(values)
