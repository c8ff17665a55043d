"""Declarative scenario API: one spec object, one registry, one entry point.

Any workload the library can simulate is described by a
:class:`~repro.scenarios.spec.ScenarioSpec` (a frozen, JSON-round-trippable
dataclass), resolved against string-keyed registries
(:mod:`repro.scenarios.registry`, :data:`~repro.scenarios.algorithms.ALGORITHMS`)
and executed through :func:`~repro.scenarios.runtime.run_scenario` /
:func:`~repro.scenarios.runtime.run_study`.  The experiments (e1..e8, a1,
a2) are thin analysis callbacks over :class:`~repro.scenarios.spec.StudySpec`
batteries, and ``abe-repro scenario <spec.json>`` runs spec files directly
-- see ``docs/SCENARIOS.md`` for the schema and the extension points.  The
scenario report and the ring studies' scaling verdicts are rendered by
:mod:`repro.report`.
"""

from repro.scenarios.spec import (
    ScenarioSpec,
    SpecNode,
    StudySpec,
    SweepSpec,
    load_spec,
    spec_from_dict,
)
from repro.scenarios.registry import (
    CHURN,
    CHURN_EVENTS,
    DELAYS,
    DRIFTS,
    SCHEDULES,
    TOPOLOGIES,
    Registry,
)
from repro.scenarios.algorithms import ALGORITHMS, AlgorithmEntry, WaveResult
from repro.scenarios.runtime import compile_trial, run_scenario, run_study

__all__ = [
    "ScenarioSpec",
    "SpecNode",
    "StudySpec",
    "SweepSpec",
    "load_spec",
    "spec_from_dict",
    "Registry",
    "TOPOLOGIES",
    "DELAYS",
    "DRIFTS",
    "SCHEDULES",
    "CHURN",
    "CHURN_EVENTS",
    "ALGORITHMS",
    "AlgorithmEntry",
    "WaveResult",
    "compile_trial",
    "run_scenario",
    "run_study",
]
