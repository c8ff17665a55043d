"""Differential / golden test harness for the simulation stack.

EPSO-style lesson: an aggressive rewrite of a hot path is only trustworthy
when every run of the rewritten code is equivalence-checked against the
original.  This module provides the two halves of that check:

**Golden mode** -- a *scenario* (a named, deterministic simulation recipe)
is run and its *fingerprint* (results, metric counters, marks, message
counts, event counts and -- when tracing is on -- the full structured trace)
is compared bit-for-bit against a JSON snapshot.

Golden provenance
-----------------
The goldens were first generated at commit ``19a8dd0``, before the
election-core refactor.  Four intended stream / event-accounting changes
and one report change have re-pointed or extended them since:

* **Fast defaults.**  Batched ticks (``batch_ticks``) and a block delay
  sampler became the library defaults.  ``election_scalar_n16`` pinned the
  historical modes explicitly (per-message delays, per-node ticks) and kept
  its original bytes; every scenario that follows the defaults was
  re-recorded, and ``election_fast_defaults_n16`` and ``election_drift_n12``
  pin the batched-tick behaviour (including the drift-tolerant shared tick
  driver) explicitly.
* **One delay stream.**  The block delay sampler (``batch_sampling``,
  ``batch_block_size``) was deleted: every channel now draws each delay with
  one ``sample(rng)`` call on its own ``random.Random`` stream, which is the
  stream ``election_scalar_n16`` has pinned all along.  That golden passed
  unchanged, as did ``sync_abd_late_messages`` (its round-level fingerprint
  is identical on both streams) -- proof that the scalar stream itself is
  untouched.  Every other scenario was re-recorded once on the single
  stream, and ``election_batched_n16``, whose only subject was the block
  sampler, was deleted.  :func:`repro.store.code_version` hashes these
  files, so result stores recorded on the old stream go stale and re-run
  instead of mixing two streams in one aggregate.
* **One activation rule.**  The object core stopped flipping a coin per
  node and tick: an idle node draws its wait in ticks once per idle spell,
  K ~ Geometric(1 - (1 - A0)^d), from one uniform of its ``node/{uid}``
  stream, and arms one activation timer that fires before same-instant
  deliveries.  The per-tick processes (``TickProcess``,
  ``SharedTickProcess``, ``batch_ticks``) were deleted, so the coin stream,
  the event count and the tie order all changed.  Every ``election_*``
  golden and ``experiment_e2_reduced``/``experiment_e3_reduced`` were
  re-recorded once; ``election_scalar_n16`` and ``election_fast_defaults_n16`` lost
  their tick-mode distinction and now differ only in seed.  The
  ``baseline_*`` and ``sync_*`` goldens passed unchanged.  Correctness
  across the switch rests on ``tests/oracles/test_activation_parity.py``:
  two-sample KS tests against the vector core and against the per-tick
  reference in ``harness/per_tick_reference.py``.  ``code_version()``
  changed again, so stores recorded before the switch go stale.
* **One activation rule (vector core).**  The vector core stopped flipping
  one coin vector per activation round (stream ``vector/coins``) and took
  the object core's rule: each idle spell draws its wait once, K ~
  Geometric(1 - (1 - A0)^d), at start-up for all ``n`` nodes from one
  uniform vector and on every knock-back from the next uniform, both on the
  new ``vector/waits`` stream.  Activations became heap entries that pop
  ahead of same-instant deliveries, ``events_processed`` became
  activations plus deliveries (it counted rounds plus deliveries), and
  ``ticks`` is counted in closed form.  The nine results that
  ``tests/test_vector_core.py`` had pinned as literals moved into the
  ``vector_core_sample_paths`` golden, recorded once after the switch; the
  ``election_*``, ``baseline_*``, ``sync_*`` and ``experiment_*`` goldens
  passed unchanged.  Correctness across the switch rests on the KS oracle,
  whose object-vs-vector rows passed at their fixed seeds, trial counts and
  significance level.  The new golden file moves ``code_version()``, so
  vector results stored before the switch go stale.
* **One scaling verdict.**  E2 stopped naming the best of three growth
  shapes (the shape-name and ``linear_is_best`` findings) and reports the
  weighted log-log slope of its mean election time with its 95% CI and
  whether that interval holds 1 (``time_slope``, ``time_slope_ci_low``,
  ``time_slope_ci_high``, ``time_slope_ci_holds_1``).  Only the
  ``findings`` block of ``experiment_e2_reduced`` was re-recorded; its
  table rows and parameters, and every other golden, passed unchanged, so
  no simulated value moved.  The re-record moves ``code_version()``, so
  stores filled before it go stale.

Stream migration (vector core)
------------------------------
The columnar engine (``repro.core.vector_core``) draws from its own
seed-deterministic numpy streams (``vector/waits``, ``vector/delays``,
``vector/processing``, ``vector/loss``) instead of replaying the object
core's per-node Python streams, so event-for-event equality with the object
core is *not* a design goal.  The vector core is checked against the object
core **distributionally** (two-sample KS tests on messages, election time,
activations and ticks in ``tests/oracles/test_activation_parity.py``) and
**invariantly** (unique leader, agreement, exactly ``n - 1`` knockouts on
the clean path) in ``tests/test_vector_core.py`` and
``tests/test_property_vector_core.py``.  Its own sample paths are pinned by
the ``vector_core_sample_paths`` golden: nine full results over
:func:`vector_core_cases`, so a change to the vector core's streams, tie
order or accounting moves :func:`repro.store.code_version` like any other
golden re-record.

**Differential mode** -- any two fingerprints are compared field by field
(:func:`assert_equivalent`), with a readable diff of every mismatching path;
golden mode is this comparison against the stored snapshot.

Recording
---------
``python tests/harness/record_goldens.py [scenario ...]`` regenerates the
snapshots.  Re-record **only** when a behaviour change is intended, and say
so in the commit message -- a golden diff is the whole point of the harness.

Fingerprints are canonicalized before comparison: dataclasses become tagged
dicts, enums their string value, tuples become lists, unknown objects their
``repr``.  Floats are kept as floats -- JSON round-trips finite IEEE doubles
exactly, so equality of canonical forms is bit-identity of every simulated
time and metric.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Registry of named scenarios: name -> zero-argument callable returning a
#: fingerprint dict.  Populated by the ``@scenario`` decorator below.
SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {}

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Dataclass fields excluded from fingerprints: process-global monotonic ids
#: (``itertools.count`` backed) that depend on everything simulated earlier in
#: the *process*, not on the run under test.  Including them would make
#: fingerprints order-dependent across a pytest session.
VOLATILE_ID_FIELDS = frozenset({"token_id", "envelope_id"})


def scenario(name: str) -> Callable[[Callable[[], Dict[str, Any]]], Callable[[], Dict[str, Any]]]:
    """Register a fingerprint-producing callable under ``name``."""

    def register(fn: Callable[[], Dict[str, Any]]) -> Callable[[], Dict[str, Any]]:
        if name in SCENARIOS:
            raise ValueError(f"duplicate scenario name {name!r}")
        SCENARIOS[name] = fn
        return fn

    return register


# --------------------------------------------------------------- canonical form


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-able canonical form preserving bit identity.

    Finite floats survive a JSON round-trip exactly; non-finite floats are
    tagged strings so they remain comparable.  Dataclasses are tagged with
    their class name, so a scenario cannot silently start returning a
    different result type.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {"__float__": repr(value)}
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in VOLATILE_ID_FIELDS
        }
        return {"__dataclass__": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, set):
        return {"__set__": sorted(repr(item) for item in value)}
    return {"__repr__": repr(value)}


def fingerprint_network(network: Any, *, include_trace: bool = False) -> Dict[str, Any]:
    """The observable end state of a :class:`~repro.network.network.Network`.

    Everything the experiments read is here: message totals, the full metric
    counter/mark snapshot, the engine's event accounting, the stop time, and
    (optionally) the structured trace.  Counters are read through
    ``metrics.counters()`` on purpose -- externally bound plain-integer
    counters and collector-owned ``Counter`` objects must be
    indistinguishable to readers, and this is where that contract is pinned.
    """
    fingerprint = {
        "now": network.now,
        "messages_sent": network.messages_sent(),
        "messages_delivered": network.messages_delivered(),
        "events_processed": network.simulator.events_processed,
        "events_scheduled": network.simulator.events_scheduled,
        "counters": canonical(dict(sorted(network.metrics.counters().items()))),
        "marks": canonical(dict(sorted(network.metrics.marks().items()))),
    }
    if include_trace:
        fingerprint["trace"] = [
            [event.time, event.category, canonical(event.subject), canonical(event.details)]
            for event in network.tracer
        ]
    return fingerprint


def fingerprint_experiment(result: Any) -> Dict[str, Any]:
    """Findings + every table row of an ``ExperimentResult``, canonicalized."""
    return {
        "experiment_id": result.experiment_id,
        "findings": canonical(result.findings),
        "tables": [
            {
                "title": table.title,
                "rows": [canonical(dict(row)) for row in table],
            }
            for table in result.tables
        ],
        "parameters": canonical(result.parameters),
    }


# ------------------------------------------------------------------ comparison


def _walk_diff(path: str, expected: Any, actual: Any, out: List[str]) -> None:
    if type(expected) is not type(actual):
        out.append(
            f"{path}: type {type(expected).__name__} != {type(actual).__name__} "
            f"({expected!r} vs {actual!r})"
        )
        return
    if isinstance(expected, dict):
        for key in expected.keys() | actual.keys():
            if key not in expected:
                out.append(f"{path}.{key}: unexpected key (value {actual[key]!r})")
            elif key not in actual:
                out.append(f"{path}.{key}: missing key (expected {expected[key]!r})")
            else:
                _walk_diff(f"{path}.{key}", expected[key], actual[key], out)
        return
    if isinstance(expected, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} != {len(actual)}")
        for index, (e_item, a_item) in enumerate(zip(expected, actual)):
            _walk_diff(f"{path}[{index}]", e_item, a_item, out)
        return
    if expected != actual:
        out.append(f"{path}: {expected!r} != {actual!r}")


def compare_fingerprints(
    expected: Dict[str, Any], actual: Dict[str, Any], *, limit: int = 25
) -> List[str]:
    """Paths at which two canonical fingerprints differ (empty = identical)."""
    expected = _json_round_trip(canonical(expected))
    actual = _json_round_trip(canonical(actual))
    diffs: List[str] = []
    _walk_diff("$", expected, actual, diffs)
    return diffs[:limit]


def _json_round_trip(value: Any) -> Any:
    # Goldens live as JSON on disk; pushing the live fingerprint through the
    # same serialization removes representational differences (e.g. tuples
    # already canonicalized to lists) without losing a single bit of any
    # finite float.
    return json.loads(json.dumps(value, sort_keys=True))


def assert_equivalent(
    expected: Dict[str, Any],
    actual: Dict[str, Any],
    *,
    context: str,
) -> None:
    """Assert two fingerprints are bit-identical, with a readable diff."""
    diffs = compare_fingerprints(expected, actual)
    if diffs:
        rendered = "\n  ".join(diffs)
        raise AssertionError(
            f"{context}: fingerprints diverge at {len(diffs)} path(s):\n  {rendered}"
        )


# --------------------------------------------------------------------- goldens


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> Dict[str, Any]:
    path = golden_path(name)
    if not path.exists():
        raise FileNotFoundError(
            f"no golden recorded for scenario {name!r}; run "
            f"`python tests/harness/record_goldens.py {name}`"
        )
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save_golden(name: str, fingerprint: Dict[str, Any]) -> Path:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path = golden_path(name)
    payload = {"scenario": name, "fingerprint": _json_round_trip(canonical(fingerprint))}
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def run_scenario(name: str) -> Dict[str, Any]:
    """Execute the registered scenario and return its live fingerprint."""
    try:
        build = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}") from None
    return build()


def assert_matches_golden(name: str) -> None:
    """Run scenario ``name`` and assert bit-identity with its stored golden."""
    golden = load_golden(name)
    live = run_scenario(name)
    assert_equivalent(
        golden["fingerprint"],
        live,
        context=f"scenario {name!r} diverged from its pre-refactor golden",
    )


# -------------------------------------------------------------------- scenarios
#
# Every scenario is a pure function of constants: fixed sizes, seeds and
# delay models, bounded by max_events/max_time where liveness is not
# guaranteed (fault injection).  Coverage spans the election core in every
# configuration the refactor touches (drifting clocks / FIFO / traced /
# constant schedule / no-purge ablation / fault injection), all
# four baseline leader elections, all three synchronizers, and reduced E2/E3
# experiment sweeps.


def _election_fingerprint(
    n: int,
    seed: int,
    *,
    include_trace: bool = False,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    faults: Optional[Callable[[Any], Any]] = None,
    **config: Any,
) -> Dict[str, Any]:
    from repro.core.runner import build_election_network, run_election_on_network

    network, status = build_election_network(n, seed=seed, **config)
    if faults is not None:
        faults(network)
    result = run_election_on_network(
        network, status, max_events=max_events, max_time=max_time, a0=config.get("a0")
    )
    fingerprint = fingerprint_network(network, include_trace=include_trace)
    fingerprint["result"] = canonical(result)
    return fingerprint


@scenario("election_scalar_n16")
def _election_scalar() -> Dict[str, Any]:
    return _election_fingerprint(16, seed=7, a0=0.3)


@scenario("election_fast_defaults_n16")
def _election_fast_defaults() -> Dict[str, Any]:
    return _election_fingerprint(16, seed=11, a0=0.3)


@scenario("election_drift_n12")
def _election_drift() -> Dict[str, Any]:
    # Drifting clocks: locks the lazy local-to-real mapping of activation
    # timers (the e8 workload shape).
    from repro.sim.clock import RandomWalkDrift

    return _election_fingerprint(
        12,
        seed=21,
        a0=0.3,
        clock_bounds=(0.5, 2.0),
        clock_drift_factory=lambda uid: RandomWalkDrift(initial_rate=1.25, step=0.15),
    )


@scenario("election_fifo_n12")
def _election_fifo() -> Dict[str, Any]:
    return _election_fingerprint(12, seed=5, a0=0.3, fifo=True)


@scenario("election_traced_n8")
def _election_traced() -> Dict[str, Any]:
    return _election_fingerprint(8, seed=3, a0=0.3, enable_trace=True, include_trace=True)


@scenario("election_constant_schedule_n10")
def _election_constant_schedule() -> Dict[str, Any]:
    from repro.core.activation import ConstantActivation

    return _election_fingerprint(10, seed=9, a0=0.3, schedule=ConstantActivation(0.2))


@scenario("election_no_purge_n8")
def _election_no_purge() -> Dict[str, Any]:
    return _election_fingerprint(8, seed=2, a0=0.3, purge_at_active=False, max_events=60_000)


@scenario("election_uniform_delay_n12")
def _election_uniform_delay() -> Dict[str, Any]:
    from repro.network.delays import UniformDelay

    return _election_fingerprint(12, seed=17, a0=0.3, delay=UniformDelay(0.2, 2.2))


@scenario("election_faults_fifo_n10")
def _election_faults() -> Dict[str, Any]:
    from repro.network.faults import CrashStopFault, FaultInjector, MessageLossFault

    injectors = []

    def install(network: Any) -> None:
        injector = FaultInjector(network)
        injector.apply(
            [MessageLossFault(0.15), CrashStopFault(node_uid=3, crash_time=5.0)]
        )
        injectors.append(injector)

    fingerprint = _election_fingerprint(
        10,
        seed=6,
        a0=0.3,
        fifo=True,
        faults=install,
        max_events=30_000,
        max_time=600.0,
    )
    injector = injectors[0]
    fingerprint["faults"] = {
        "messages_dropped": injector.messages_dropped,
        "nodes_crashed": list(injector.nodes_crashed),
    }
    return fingerprint


def _baseline_fingerprint(run: Callable[..., Any], n: int, seed: int, **kwargs: Any) -> Dict[str, Any]:
    return {"result": canonical(run(n, seed=seed, **kwargs))}


@scenario("baseline_chang_roberts_n9")
def _baseline_chang_roberts() -> Dict[str, Any]:
    from repro.algorithms.leader_election import run_chang_roberts

    return _baseline_fingerprint(run_chang_roberts, 9, seed=3)


@scenario("baseline_dolev_klawe_rodeh_n9")
def _baseline_dolev_klawe_rodeh() -> Dict[str, Any]:
    from repro.algorithms.leader_election import run_dolev_klawe_rodeh

    return _baseline_fingerprint(run_dolev_klawe_rodeh, 9, seed=3)


@scenario("baseline_franklin_n9")
def _baseline_franklin() -> Dict[str, Any]:
    from repro.algorithms.leader_election import run_franklin

    return _baseline_fingerprint(run_franklin, 9, seed=3)


@scenario("baseline_itai_rodeh_n9")
def _baseline_itai_rodeh() -> Dict[str, Any]:
    from repro.algorithms.leader_election import run_itai_rodeh

    return _baseline_fingerprint(run_itai_rodeh, 9, seed=3)


def _sync_fingerprint(synchronizer: str, **kwargs: Any) -> Dict[str, Any]:
    from repro.algorithms.synchronous import MaxComputationSync
    from repro.network.topology import bidirectional_ring
    from repro.synchronizers import (
        AbdSynchronizerProgram,
        AlphaSynchronizerProgram,
        BetaSynchronizerProgram,
        build_bfs_tree,
        run_synchronized,
    )

    n, rounds = 6, 4
    topology = bidirectional_ring(n)
    values = {uid: (uid * 29) % 97 for uid in range(n)}

    def process_factory(uid: int) -> Any:
        return MaxComputationSync(values[uid], rounds_needed=rounds)

    delay_bound = kwargs.pop("delay_bound", 2.0)
    factories = {
        "alpha": lambda uid, p, tr, st: AlphaSynchronizerProgram(p, tr, st),
        "beta": lambda uid, p, tr, st: BetaSynchronizerProgram(p, tr, st),
        "abd": lambda uid, p, tr, st: AbdSynchronizerProgram(
            p, tr, st, delay_bound=delay_bound
        ),
    }
    knowledge_factory = None
    if synchronizer == "beta":
        tree = build_bfs_tree(topology)
        knowledge_factory = lambda uid: tree[uid]  # noqa: E731 - tiny closure
    result = run_synchronized(
        topology,
        process_factory,
        factories[synchronizer],
        total_rounds=rounds,
        synchronizer_name=synchronizer,
        seed=1,
        knowledge_factory=knowledge_factory,
        **kwargs,
    )
    return {"result": canonical(result)}


@scenario("sync_alpha_ring6")
def _sync_alpha() -> Dict[str, Any]:
    return _sync_fingerprint("alpha")


@scenario("sync_beta_ring6")
def _sync_beta() -> Dict[str, Any]:
    return _sync_fingerprint("beta")


@scenario("sync_abd_late_messages")
def _sync_abd() -> Dict[str, Any]:
    from repro.network.delays import ExponentialDelay

    # An ABE-tailed delay against a small hard bound: late messages must
    # appear, exercising the late-message counter path.
    return _sync_fingerprint("abd", delay=ExponentialDelay(mean=1.0), delay_bound=1.5)


@scenario("experiment_e2_reduced")
def _experiment_e2() -> Dict[str, Any]:
    from repro.experiments import e2_time_complexity

    return fingerprint_experiment(
        e2_time_complexity.run(sizes=(6, 10), trials=3, base_seed=22)
    )


@scenario("experiment_e3_reduced")
def _experiment_e3() -> Dict[str, Any]:
    from repro.experiments import e3_activation_parameter

    return fingerprint_experiment(
        e3_activation_parameter.run(n=8, multipliers=(0.5, 1.0), trials=3, base_seed=33)
    )


def vector_core_cases() -> List[Tuple[str, Dict[str, Any]]]:
    """The vector core's pinned configurations, as ``run_vector_election`` kwargs.

    Exponential delays at n = 8, 64 and 1000, ``ConstantDelay`` ties, FIFO,
    message loss, processing delay, a crash and purging switched off.
    """
    from repro.network.delays import ConstantDelay, ExponentialDelay

    return [
        ("exponential-n8", dict(n=8, a0=0.3, seed=1)),
        ("exponential-n64", dict(n=64, a0=0.3, seed=2)),
        ("exponential-n1000", dict(n=1000, a0=0.001, seed=3)),
        ("constant-ties", dict(n=64, a0=0.02, seed=4, delay=ConstantDelay(1.0))),
        ("fifo", dict(n=64, a0=0.3, seed=5, fifo=True)),
        ("loss", dict(n=16, a0=0.1, seed=6, message_loss=0.05)),
        ("processing", dict(n=64, a0=0.3, seed=7, processing_delay=ExponentialDelay(mean=0.2))),
        ("crash", dict(n=64, a0=0.3, seed=8, crashes=[(1, 3.0)])),
        ("purge-off", dict(n=16, a0=0.1, seed=9, purge_at_active=False, max_events=20000)),
    ]


@scenario("vector_core_sample_paths")
def _vector_core_sample_paths() -> Dict[str, Any]:
    from repro.core.vector_core import run_vector_election

    return {label: canonical(run_vector_election(**kwargs)) for label, kwargs in vector_core_cases()}
