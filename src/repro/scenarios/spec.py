"""Declarative scenario specifications.

One :class:`ScenarioSpec` describes one simulated workload completely: which
algorithm runs, on which topology, under which delay model, with which knobs
(fifo, faults, drift, retransmission, processing delay, stopping rule,
workers) and for how many Monte-Carlo trials.  Specs are frozen dataclasses
of plain values, so they

* validate on construction (a bad knob fails before any simulation runs),
* round-trip through JSON (:meth:`ScenarioSpec.to_dict` /
  :meth:`ScenarioSpec.from_dict`), which makes a spec a *file* -- see
  ``examples/scenarios/`` and the ``abe-repro scenario`` subcommand,
* pickle across process boundaries, so the same spec object drives serial
  and pooled :class:`~repro.experiments.parallel.SweepPool` execution
  bit-identically.

String ``kind`` fields (topology, delay, drift, schedule, faults, algorithm)
are resolved against the registries in :mod:`repro.scenarios.registry`; the
spec layer itself never imports simulation code, so specs stay cheap and
import-cycle free.

:class:`SweepSpec` derives a labelled family of scenarios from one base spec
plus per-point overrides, and :class:`StudySpec` is the unit the experiment
harness runs: an ordered list of scenario points plus the metric an adaptive
stopping rule targets.  Every experiment module (e1..e8, a1, a2) exposes a
``build_study(...)`` returning its :class:`StudySpec`; see
:func:`repro.scenarios.runtime.run_study`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

# NOTE: this module deliberately imports no simulation or experiment code at
# module level -- ``repro.experiments`` imports the scenario layer, so the
# AdaptiveStopping stopping rule is resolved lazily to keep the import graph
# acyclic.

__all__ = [
    "SpecNode",
    "ScenarioSpec",
    "SweepSpec",
    "StudySpec",
    "load_spec",
    "spec_from_dict",
]


@dataclass(frozen=True)
class SpecNode:
    """A registry reference: a string ``kind`` plus constructor ``params``.

    The one shape every pluggable piece of a scenario shares -- topologies,
    delay models, drift models, activation schedules and fault specifications
    are all ``{"kind": ..., "params": {...}}`` nodes resolved against the
    matching registry at compile time.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"spec node kind must be a non-empty string, got {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"spec node params must be a dict, got {type(self.params).__name__}")

    def to_dict(self) -> Dict[str, Any]:
        if not self.params:
            return {"kind": self.kind}
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "SpecNode":
        """Build from ``{"kind": ..., "params": {...}}`` or a bare kind string."""
        if isinstance(data, str):
            return cls(kind=data)
        if not isinstance(data, Mapping):
            raise ValueError(f"spec node must be a mapping or string, got {data!r}")
        unknown = set(data) - {"kind", "params"}
        if unknown:
            raise ValueError(
                f"unknown spec-node key(s) {sorted(unknown)}; expected 'kind' and 'params'"
            )
        if "kind" not in data:
            raise ValueError(f"spec node is missing its 'kind': {dict(data)!r}")
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


def _node(value: Optional[Union[str, Mapping[str, Any], SpecNode]]) -> Optional[SpecNode]:
    if value is None or isinstance(value, SpecNode):
        return value
    return SpecNode.from_dict(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative workload: algorithm + topology + delays + knobs.

    Every field has a validated default, so ``ScenarioSpec()`` is already the
    canonical workload (the ABE election on a 32-ring with exponential
    mean-1 delays and the library's defaults).  Unknown algorithm,
    topology or delay ``kind`` strings are rejected at *compile* time (see
    :mod:`repro.scenarios.registry`) with the list of known keys.

    Attributes
    ----------
    algorithm:
        Registry key of the workload runner (``"abe-election"``, the four
        baselines, ``"echo-wave"``, ``"flooding-wave"``,
        ``"synchronizer-battery"``, ``"lossy-channel"``, ...).
    topology:
        Topology node, e.g. ``{"kind": "grid", "params": {"rows": 4,
        "cols": 5}}``.  Ring algorithms validate the shape at compile time.
    delay:
        Delay-model node (``None`` = the canonical exponential mean-1 ABE
        channel).  ``{"kind": "per-link", ...}`` assigns heterogeneous delay
        models per channel.
    retransmission:
        Convenience knob for the paper's flagship lossy-channel delay:
        ``{"success_probability": p, "transmission_time": t}`` is sugar for a
        ``retransmission`` delay node and may not be combined with ``delay``.
    seed / trials / label:
        Monte-Carlo shape.  Trial ``i`` uses
        ``derive_seed(seed, f"{label}/trial{i}")``, exactly like the
        experiment harness, so a spec with the same label/seed reproduces an
        experiment's trial set bit for bit.
    a0 / schedule / purge_at_active / tick_period:
        Election knobs (``a0=None`` resolves to the recommended value for the
        ring size; ignored by non-election algorithms).
    fifo / processing_delay / clock_bounds / drift:
        Channel-order, processing-delay (the paper's ``gamma``) and clock
        knobs.  ``drift`` builds one fresh model per node.
    faults:
        Fault nodes applied before the run (``message-loss``, ``crash``).
    churn:
        Optional dynamic-fault script node (``"script"`` with a list of timed
        crash/recover/link events, or ``"periodic"`` for rate-driven churn)
        resolved against the ``CHURN`` registry.  Election only; switches the
        run to the churn-aware election with stabilization metrics
        (:mod:`repro.core.churn_election`).  Strictly opt-in: ``None`` keeps
        the static single-election semantics bit for bit.
    stopping:
        Optional :class:`~repro.experiments.runner.AdaptiveStopping` rule; the
        run then stops each point's trials once the target metric's CI is
        tight enough.
    workers:
        Default worker processes when the caller does not supply a pool
        (``0`` = one per CPU).
    on_budget:
        What exhausting ``max_events``/``max_time`` means: ``"stop"``
        (default) truncates the run and reports whatever happened, while
        ``"raise"`` arms the divergence watchdog -- a trial that exhausts
        its budget with live events pending raises
        :class:`~repro.sim.engine.SimulationDiverged` inside the worker, so
        pathological specs fail fast instead of hanging a study.
    core:
        Election engine: ``"object"`` (the per-node reference) or
        ``"vector"`` (the columnar numpy engine,
        :mod:`repro.core.vector_core`).  The vector core draws from its own
        seed-deterministic streams, so the same spec follows a different --
        distributionally equivalent -- sample path per seed; election
        scenarios only.
    params:
        Algorithm-specific extras, forwarded to the workload runner
        (e.g. ``rounds`` for the synchronizer battery, ``initiator`` for the
        waves, ``p``/``messages`` for the lossy channel).
    """

    algorithm: str = "abe-election"
    topology: SpecNode = field(default_factory=lambda: SpecNode("uniring", {"n": 32}))
    delay: Optional[SpecNode] = None
    retransmission: Optional[Dict[str, float]] = None
    seed: int = 0
    trials: int = 1
    label: str = ""
    a0: Optional[float] = None
    schedule: Optional[SpecNode] = None
    purge_at_active: bool = True
    tick_period: float = 1.0
    fifo: bool = False
    processing_delay: Optional[SpecNode] = None
    clock_bounds: Tuple[float, float] = (1.0, 1.0)
    drift: Optional[SpecNode] = None
    faults: Tuple[SpecNode, ...] = ()
    stopping: Optional[Any] = None  # AdaptiveStopping or mapping of its fields
    workers: int = 1
    max_events: Optional[int] = None
    max_time: Optional[float] = None
    on_budget: str = "stop"
    expected_delay_bound: Optional[float] = None
    validate_model: bool = True
    core: str = "object"
    params: Dict[str, Any] = field(default_factory=dict)
    # Appended after params so every pre-existing positional construction --
    # and every pre-existing fingerprint (to_dict omits default fields) --
    # is preserved.  See the CHURN registry for the node kinds.
    churn: Optional[SpecNode] = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ValueError("algorithm must be a non-empty registry key")
        object.__setattr__(self, "topology", _node(self.topology))
        object.__setattr__(self, "delay", _node(self.delay))
        object.__setattr__(self, "schedule", _node(self.schedule))
        object.__setattr__(self, "processing_delay", _node(self.processing_delay))
        object.__setattr__(self, "drift", _node(self.drift))
        object.__setattr__(
            self, "faults", tuple(_node(fault) for fault in self.faults)
        )
        object.__setattr__(self, "churn", _node(self.churn))
        if self.delay is not None and self.retransmission is not None:
            raise ValueError(
                "give either 'delay' or the 'retransmission' shorthand, not both "
                "(retransmission is sugar for a retransmission delay node)"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {self.workers}")
        if self.tick_period <= 0:
            raise ValueError(f"tick_period must be positive, got {self.tick_period}")
        bounds = tuple(self.clock_bounds)
        if len(bounds) != 2 or bounds[0] <= 0 or bounds[1] < bounds[0]:
            raise ValueError(
                f"clock_bounds must satisfy 0 < s_low <= s_high, got {self.clock_bounds}"
            )
        object.__setattr__(self, "clock_bounds", bounds)
        if self.a0 is not None and not (0.0 < self.a0 < 1.0):
            raise ValueError(f"a0 must lie in (0, 1), got {self.a0}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")
        if self.max_time is not None and self.max_time <= 0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")
        if self.on_budget not in ("stop", "raise"):
            raise ValueError(
                f"on_budget must be 'stop' or 'raise', got {self.on_budget!r}"
            )
        if self.core not in ("object", "vector"):
            raise ValueError(
                f"core must be 'object' or 'vector', got {self.core!r}"
            )
        if self.stopping is not None:
            from repro.experiments.runner import AdaptiveStopping  # late: cycle

            if isinstance(self.stopping, Mapping):
                object.__setattr__(self, "stopping", AdaptiveStopping(**self.stopping))
            elif not isinstance(self.stopping, AdaptiveStopping):
                raise ValueError(
                    f"stopping must be an AdaptiveStopping or mapping, got {self.stopping!r}"
                )

    # -------------------------------------------------------------- round-trip

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form; defaults are omitted for readable files."""
        defaults = ScenarioSpec()
        out: Dict[str, Any] = {"algorithm": self.algorithm, "topology": self.topology.to_dict()}
        for spec_field in dataclasses.fields(self):
            name = spec_field.name
            if name in ("algorithm", "topology"):
                continue
            value = getattr(self, name)
            if value == getattr(defaults, name):
                continue
            if isinstance(value, SpecNode):
                value = value.to_dict()
            elif name == "faults":
                value = [fault.to_dict() for fault in value]
            elif name == "clock_bounds":
                value = list(value)
            elif name == "stopping":
                value = dataclasses.asdict(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected by name."""
        if not isinstance(data, Mapping):
            raise ValueError(f"scenario spec must be a mapping, got {data!r}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        kwargs = dict(data)
        if "clock_bounds" in kwargs:
            kwargs["clock_bounds"] = tuple(kwargs["clock_bounds"])
        if "faults" in kwargs:
            kwargs["faults"] = tuple(kwargs["faults"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    # ----------------------------------------------------------------- helpers

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SweepSpec:
    """A labelled family of scenarios: one base spec + per-point overrides.

    Each entry of ``points`` is a dict of :class:`ScenarioSpec` field
    overrides applied with :meth:`ScenarioSpec.replace`; the expansion order
    is the execution order.  This is how the experiments express their
    parameter grids ("the same election at every ring size", "the same ring
    at every A0 multiplier") without repeating the shared configuration.
    """

    base: ScenarioSpec
    points: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(dict(point) for point in self.points))
        if not self.points:
            raise ValueError("a sweep needs at least one point")

    def scenarios(self) -> List[ScenarioSpec]:
        """The expanded, ordered scenario list."""
        return [self.base.replace(**point) for point in self.points]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "points": [dict(point) for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        unknown = set(data) - {"base", "points"}
        if unknown:
            raise ValueError(
                f"unknown sweep field(s) {sorted(unknown)}; expected 'base' and 'points'"
            )
        return cls(
            base=ScenarioSpec.from_dict(data.get("base", {})),
            points=tuple(data.get("points", ())),
        )


@dataclass(frozen=True)
class StudySpec:
    """An ordered battery of scenario points plus the metric it targets.

    The unit the experiment harness executes: ``run_study`` runs every point
    (sharing one worker pool across the whole battery) and returns the
    per-point result lists in order.  ``metric`` names the result attribute
    an :class:`~repro.experiments.runner.AdaptiveStopping` rule targets when
    the caller does not pin one.
    """

    name: str
    points: Tuple[ScenarioSpec, ...] = ()
    metric: str = "messages_total"
    title: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("a study needs a non-empty name")
        points = tuple(
            point if isinstance(point, ScenarioSpec) else ScenarioSpec.from_dict(point)
            for point in self.points
        )
        if not points:
            raise ValueError(f"study {self.name!r} has no points")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_sweep(cls, name: str, sweep: SweepSpec, **kwargs: Any) -> "StudySpec":
        return cls(name=name, points=tuple(sweep.scenarios()), **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "study": self.name,
            "points": [point.to_dict() for point in self.points],
        }
        if self.metric != "messages_total":
            out["metric"] = self.metric
        if self.title:
            out["title"] = self.title
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        unknown = set(data) - {"study", "name", "points", "metric", "title"}
        if unknown:
            raise ValueError(
                f"unknown study field(s) {sorted(unknown)}; "
                "expected 'study'/'name', 'points', 'metric', 'title'"
            )
        name = data.get("study", data.get("name"))
        if not name:
            raise ValueError("a study spec needs a 'study' (or 'name') key")
        return cls(
            name=name,
            points=tuple(data.get("points", ())),
            metric=data.get("metric", "messages_total"),
            title=data.get("title", ""),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"


def spec_from_dict(data: Mapping[str, Any]) -> Union[ScenarioSpec, StudySpec]:
    """Dispatch a parsed JSON document to the right spec class.

    Documents with a ``points`` list are studies; everything else is a single
    scenario.
    """
    if isinstance(data, Mapping) and "points" in data:
        return StudySpec.from_dict(data)
    return ScenarioSpec.from_dict(data)


def load_spec(path: Any) -> Union[ScenarioSpec, StudySpec]:
    """Read a spec file (JSON) and return the parsed scenario or study."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON ({error})") from None
    return spec_from_dict(data)
