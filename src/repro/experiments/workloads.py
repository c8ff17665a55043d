"""Shared workload definitions for the experiments.

Keeping the workload catalogue in one module guarantees that E1/E2/E6/E7 all
mean the same thing by "the default ABE ring" and that the delay families of
the robustness experiment really have identical expected delay.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from repro.experiments.runner import AdaptiveStopping
from repro.network.delays import DelayDistribution
from repro.scenarios.registry import build_delay
from repro.scenarios.spec import ScenarioSpec, SpecNode

__all__ = [
    "DEFAULT_RING_SIZES",
    "DEFAULT_TRIALS",
    "delay_family_specs",
    "delay_families_with_mean",
    "election_spec",
]

#: Ring sizes used by the scaling experiments (E1, E2, E6).
DEFAULT_RING_SIZES: Sequence[int] = (8, 16, 32, 64, 128)

#: Default number of Monte-Carlo trials per configuration.
DEFAULT_TRIALS: int = 30


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
    """One declarative ABE-election point: ``trials`` elections on a ring of ``n``.

    Running it (:func:`~repro.scenarios.runtime.run_scenario`) calls
    :func:`~repro.core.runner.run_election` once per seed of
    ``trial_seeds(base_seed, trials, label)`` (``label`` defaults to
    ``f"n{n}"``); ``a0`` defaults to
    :func:`~repro.core.analysis.recommended_a0` and the delay to the
    exponential ABE channel of mean 1.  ``overrides`` accepts any
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
