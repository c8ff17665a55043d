"""Shared workload definitions for the experiments.

Keeping the workload catalogue in one module guarantees that E1/E2/E6/E7 all
mean the same thing by "the default ABE ring" and that the delay families of
the robustness experiment really have identical expected delay.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.analysis import recommended_a0
from repro.core.runner import ElectionResult, run_election
from repro.experiments.parallel import SweepPool
from repro.experiments.runner import AdaptiveStopping, monte_carlo
from repro.network.delays import DelayDistribution, ExponentialDelay
from repro.scenarios.registry import build_delay
from repro.scenarios.spec import ScenarioSpec, SpecNode

__all__ = [
    "DEFAULT_RING_SIZES",
    "DEFAULT_TRIALS",
    "ElectionTrial",
    "default_delay",
    "delay_family_specs",
    "delay_families_with_mean",
    "election_spec",
    "election_trials",
    "election_sweep",
]

#: Ring sizes used by the scaling experiments (E1, E2, E6).
DEFAULT_RING_SIZES: Sequence[int] = (8, 16, 32, 64, 128)

#: Default number of Monte-Carlo trials per configuration.
DEFAULT_TRIALS: int = 30


def default_delay(mean: float = 1.0) -> DelayDistribution:
    """The canonical ABE channel: exponential delays with the given mean."""
    return ExponentialDelay(mean=mean)


def delay_family_specs(mean: float = 1.0) -> Dict[str, SpecNode]:
    """The delay families of experiment E7 as declarative spec nodes.

    Every family is ABE admissible with ``delta = mean``; they differ wildly
    in shape (constant, bounded, light tail, heavy tail, queueing, routing,
    retransmission), which is exactly the variation the ABE model abstracts
    away.  :func:`delay_families_with_mean` compiles these nodes, so the
    declarative and object catalogues cannot drift apart.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    return {
        "constant": SpecNode("constant", {"value": mean}),
        "uniform[0.5m,1.5m]": SpecNode("uniform", {"low": 0.5 * mean, "high": 1.5 * mean}),
        "exponential": SpecNode("exponential", {"mean": mean}),
        "retransmission(p=0.5)": SpecNode(
            "retransmission",
            {"success_probability": 0.5, "transmission_time": mean / 2.0},
        ),
        "pareto(alpha=3)": SpecNode("pareto", {"alpha": 3.0, "scale": 2.0 * mean / 3.0}),
        "lognormal(sigma=1)": SpecNode("lognormal", {"mean": mean, "sigma": 1.0}),
        "mm1(rho=0.5)": SpecNode(
            "mm1", {"arrival_rate": 1.0 / mean, "service_rate": 2.0 / mean}
        ),
        "routing(2 hops+detours)": SpecNode(
            "routing",
            {"base_hops": 2, "detour_probability": 0.2, "per_hop_mean": mean / 2.25},
        ),
    }


def delay_families_with_mean(mean: float = 1.0) -> Dict[str, DelayDistribution]:
    """The E7 delay families as built distribution objects (same catalogue)."""
    return {name: build_delay(node) for name, node in delay_family_specs(mean).items()}


#: ``run_election`` keywords that are first-class :class:`ScenarioSpec`
#: fields; every other override rides the spec's ``params`` pass-through.
_ELECTION_SPEC_FIELDS = frozenset(
    {
        "fifo",
        "purge_at_active",
        "tick_period",
        "clock_bounds",
        "validate_model",
        "expected_delay_bound",
        "core",
        "max_events",
        "max_time",
        "churn",
    }
)


def election_spec(
    n: int,
    trials: int,
    base_seed: int,
    *,
    label: Optional[str] = None,
    a0: Optional[float] = None,
    delay: Optional[Union[SpecNode, Dict[str, Any], str]] = None,
    schedule: Optional[Union[SpecNode, Dict[str, Any], str]] = None,
    drift: Optional[Union[SpecNode, Dict[str, Any], str]] = None,
    stopping: Optional[AdaptiveStopping] = None,
    **overrides: Any,
) -> ScenarioSpec:
    """One declarative ABE-election point, mirroring :func:`election_trials`.

    Labels and derived trial seeds match :func:`election_trials` exactly
    (``label`` defaults to ``f"n{n}"``), so a spec-driven run reproduces the
    kwarg-driven run bit for bit.  ``overrides`` accepts any
    :func:`~repro.core.runner.run_election` keyword: the declarative ones
    become spec fields, the rest (e.g. ``enable_trace`` or runtime objects)
    ride the ``params`` pass-through.
    """
    fields = {key: overrides.pop(key) for key in list(overrides) if key in _ELECTION_SPEC_FIELDS}

    def declarative(value: Any, runtime_key: str) -> Any:
        # Spec nodes (and their dict/string shorthands) become spec fields;
        # already-built runtime objects keep the historical pass-through to
        # ``run_election`` via ``params`` (they are not JSON-serializable,
        # but remain valid ``election_overrides`` inputs).
        if value is None or isinstance(value, (SpecNode, str, dict)):
            return value
        overrides[runtime_key] = value
        return None

    delay = declarative(delay, "delay")
    schedule = declarative(schedule, "schedule")
    drift = declarative(drift, "clock_drift_factory")
    return ScenarioSpec(
        algorithm="abe-election",
        topology=SpecNode("uniring", {"n": n}),
        delay=delay,
        seed=base_seed,
        trials=trials,
        label=label if label is not None else f"n{n}",
        a0=a0,
        schedule=schedule,
        drift=drift,
        stopping=stopping,
        params=overrides,
        **fields,
    )


class ElectionTrial:
    """Picklable ``run_one`` callable for election trials.

    A closure over ``run_election`` cannot cross the process boundary into
    the long-lived :class:`~repro.experiments.parallel.SweepPool` workers.
    This class carries the same captured configuration as explicit,
    picklable state, so one pool can serve every parameter point of a sweep.
    Calling it is exactly ``run_election(n, a0=..., delay=..., seed=seed,
    **kwargs)``.
    """

    __slots__ = ("n", "a0", "delay", "election_kwargs")

    def __init__(
        self, n: int, a0: float, delay: DelayDistribution, election_kwargs: dict
    ) -> None:
        self.n = n
        self.a0 = a0
        self.delay = delay
        self.election_kwargs = election_kwargs

    def __call__(self, seed: int) -> ElectionResult:
        return run_election(
            self.n, a0=self.a0, delay=self.delay, seed=seed, **self.election_kwargs
        )


def election_trials(
    n: int,
    trials: int,
    base_seed: int,
    *,
    a0: float = None,
    delay: DelayDistribution = None,
    label: str = "",
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: AdaptiveStopping = None,
    **election_kwargs,
) -> List[ElectionResult]:
    """Run ``trials`` independent elections on a ring of size ``n``.

    ``a0`` defaults to :func:`repro.core.analysis.recommended_a0`; ``delay``
    defaults to the canonical exponential ABE channel.  ``workers`` fans the
    trials across processes (seed-for-seed identical results, see
    :mod:`repro.experiments.parallel`); passing a ``pool`` instead reuses one
    :class:`~repro.experiments.parallel.SweepPool` across the whole sweep
    (same seeds, same order -- still bit-identical).  ``adaptive`` switches
    to sequential stopping (``trials`` becomes the trial budget, i.e. the
    default ``max_trials``); executed trials are worker-count independent.
    """
    chosen_a0 = a0 if a0 is not None else recommended_a0(n)
    chosen_delay = delay if delay is not None else default_delay()
    run_one = ElectionTrial(n, chosen_a0, chosen_delay, election_kwargs)
    label = label or f"n{n}"
    if adaptive is not None:
        adaptive = adaptive.resolved("messages_total")
    return monte_carlo(
        run_one,
        trials=trials,
        base_seed=base_seed,
        label=label,
        workers=workers,
        pool=pool,
        adaptive=adaptive,
    )


def election_sweep(
    sizes: Sequence[int],
    trials: int,
    base_seed: int,
    *,
    workers: int = 1,
    pool: SweepPool = None,
    adaptive: AdaptiveStopping = None,
    **election_kwargs,
) -> Dict[int, List[ElectionResult]]:
    """Run the election at every ring size in ``sizes``; results keyed by size.

    With ``workers > 1`` and no explicit ``pool``, one shared
    :class:`~repro.experiments.parallel.SweepPool` is created for the whole
    sweep instead of forking a fresh pool per size.
    """
    with SweepPool.ensure(pool, workers) as shared:
        return {
            n: election_trials(
                n,
                trials,
                base_seed,
                label=f"n{n}",
                pool=shared,
                adaptive=adaptive,
                **election_kwargs,
            )
            for n in sizes
        }
