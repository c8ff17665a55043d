"""Span tracing for the benchmark's traced run, from the benchmark's own files.

:meth:`Tracer.installed` wraps the public entry points of the program's
layers (module functions are rebound wherever ``repro`` modules hold them,
methods are patched on their class) and restores them on exit.  Install it
before the first pool is created: forked workers inherit the wrappers.

A span records its name, start, end and parent span, plus the job it
belongs to; trial spans also carry the trial seed.  Counts (rows looked up,
hit and recorded; events, messages and ticks of returned election results)
are read at the same boundaries.  The parent keeps its spans in memory;
a pool worker appends its spans to its own file after every trial, because
pool shutdown terminates workers without warning.  :meth:`Tracer.collect`
merges both.

A span's self time is its duration minus the durations of its children in
the *same* process; trials running in a worker while the parent waits in
``SweepPool.map`` are concurrent, not nested.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.measure import nearest_rank

#: Span ids are ``pid * ID_BASE + n``: unique across processes, and the
#: owning process of any parent id is ``parent // ID_BASE``.
ID_BASE = 10**9

#: The tracer currently installed; pool workers inherit it across fork.
_ACTIVE: Optional["Tracer"] = None


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("id", "pid", "name", "start", "end", "parent", "job", "seed", "counts")

    def as_list(self) -> List[Any]:
        return [self.id, self.pid, self.name, self.start, self.end, self.parent,
                self.job, self.seed, self.counts]

    @classmethod
    def from_list(cls, values: List[Any]) -> "Span":
        span = cls()
        (span.id, span.pid, span.name, span.start, span.end, span.parent,
         span.job, span.seed, span.counts) = values
        return span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in this process and in the workers it forks."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.owner = os.getpid()
        self.job: Optional[str] = None
        self.stack: List[Span] = []
        self.spans: List[Span] = []
        self._pid = self.owner
        self._next = 0
        self._sink: Optional[Any] = None

    def begin(self, name: str, seed: Optional[int] = None, parent: Optional[int] = None) -> Span:
        pid = os.getpid()
        if pid != self._pid:  # first span in a forked worker: start afresh
            self._pid, self.stack, self.spans, self._sink = pid, [], [], None
        self._next += 1
        span = Span()
        span.id = pid * ID_BASE + self._next
        span.pid = pid
        span.name = name
        span.parent = parent if parent is not None else (self.stack[-1].id if self.stack else None)
        span.job = self.job
        span.seed = seed
        span.counts = None
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span, counts: Optional[Dict[str, Any]] = None) -> None:
        span.end = time.perf_counter()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        span.counts = counts
        self.spans.append(span)
        if not self.stack and self._pid != self.owner:
            self._flush()

    def in_trial(self) -> bool:
        return os.getpid() == self._pid and bool(self.stack) and self.stack[-1].name == "trial"

    def _flush(self) -> None:
        if self._sink is None:
            path = os.path.join(self.directory, f"spans-{self._pid}.jsonl")
            self._sink = open(path, "a", encoding="utf-8")
        self._sink.write("".join(json.dumps(span.as_list()) + "\n" for span in self.spans))
        self._sink.flush()
        self.spans = []

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's span file."""
        spans = list(self.spans)
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith("spans-") and name.endswith(".jsonl")):
                continue
            with open(os.path.join(self.directory, name), "r", encoding="utf-8") as handle:
                spans.extend(Span.from_list(json.loads(line)) for line in handle if line.strip())
        return spans

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer entry points for the duration of the block."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        saved: List[Tuple[Any, str, Any]] = []
        try:
            _install(self, saved)
            _ACTIVE = self
            yield self
        finally:
            _ACTIVE = None
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


class TracedTask:
    """Picklable wrapper shipped in place of a mapped trial callable: the
    worker-side ``trial`` span carries the job id, the seed and the parent's
    ``SweepPool.map`` span as its (cross-process) parent."""

    __slots__ = ("fn", "job", "parent")

    def __init__(self, fn: Callable[[Any], Any], job: Optional[str], parent: int) -> None:
        self.fn = fn
        self.job = job
        self.parent = parent

    def __call__(self, item: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(item)
        tracer.job = self.job
        seed = item if isinstance(item, int) else getattr(item, "seed", None)
        span = tracer.begin("trial", seed=seed, parent=self.parent)
        try:
            return self.fn(item)
        finally:
            tracer.end(span)


# ----------------------------------------------------------------- wrappers

Hook = Optional[Callable[..., Any]]


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any], post: Hook = None, pre: Hook = None):
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        before = pre(args, kwargs) if pre is not None else None
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(span)
            raise
        tracer.end(span, post(args, kwargs, result, before) if post is not None else None)
        return result

    return traced


def _wrap_map(tracer: Tracer, original: Callable[..., Any], fork_available: Callable[[], bool]):
    @functools.wraps(original)
    def map(self: Any, fn: Callable[[Any], Any], items: Any) -> Any:
        items = list(items)
        span = tracer.begin("experiments.map")
        pooled = self.workers > 1 and len(items) > 1 and fork_available()
        try:
            results = original(self, TracedTask(fn, tracer.job, span.id), items)
        except BaseException:
            tracer.end(span)
            raise
        failures = sum(1 for result in results if type(result).__name__ == "TrialFailure")
        tracer.end(span, {"items": len(items), "workers": self.workers if pooled else 1,
                          "failures": failures})
        return results

    return map


def _wrap_trial_call(tracer: Tracer, original: Callable[..., Any]):
    """Trials run in the parent outside any map (one-shot points) get their
    ``trial`` span here; mapped trials already have one from TracedTask."""

    @functools.wraps(original)
    def __call__(self: Any, seed: Any) -> Any:
        if tracer.in_trial():
            return original(self, seed)
        span = tracer.begin("trial", seed=seed)
        try:
            return original(self, seed)
        finally:
            tracer.end(span)

    return __call__


def _election_counts(args, kwargs, result, before) -> Dict[str, int]:
    return {"events": result.events_processed, "messages": result.messages_total,
            "ticks": result.ticks}


def _lookup_counts(args, kwargs, result, before) -> Dict[str, int]:
    seeds = args[2] if len(args) > 2 else kwargs.get("seeds", ())
    return {"rows": len(seeds), "hits": len(result)}


def _bytes_before(args, kwargs) -> int:
    return args[0].bytes_written


def _record_counts(args, kwargs, result, before) -> Dict[str, int]:
    return {"rows": result, "bytes": args[0].bytes_written - before}


def _job_counts(args, kwargs, result, before) -> Dict[str, int]:
    return {"jobs": len(result)}


def _round_counts(args, kwargs, result, before) -> Dict[str, int]:
    return {"rounds": sum(len(group.rounds) for group in result.groups)}


def _rebind(original: Any, wrapper: Any, saved: List[Tuple[Any, str, Any]]) -> None:
    """Replace ``original`` wherever a loaded ``repro`` module binds it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                saved.append((module, attribute, original))


def _patch(cls: type, attribute: str, make: Callable[[Callable[..., Any]], Any],
           saved: List[Tuple[Any, str, Any]]) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(make(raw.__func__))
    else:
        replacement = make(raw)
    setattr(cls, attribute, replacement)
    saved.append((cls, attribute, raw))


def _install(tracer: Tracer, saved: List[Tuple[Any, str, Any]]) -> None:
    import repro.algorithms.leader_election as baselines
    import repro.core.churn_election as churn_election
    import repro.core.runner as runner
    import repro.core.vector_core as vector_core
    import repro.dse.optimizer as optimizer
    import repro.dse.report as dse_report
    import repro.scenarios.algorithms as scenario_algorithms
    import repro.scenarios.runtime as runtime
    import repro.scenarios.spec as scenario_spec
    import repro.store.fingerprint as fingerprint
    import repro.synchronizers.base as synchronizers
    from repro.dse.spec import SearchSpec
    from repro.experiments.parallel import SweepPool, fork_available
    from repro.stats import complexity_fit, confidence, distributions, estimators
    from repro.store.result_store import ResultStore
    from repro.store.service import StudyService

    functions: List[Tuple[str, Any, Hook]] = [
        ("scenarios.parse", scenario_spec.spec_from_dict, None),
        ("scenarios.run", runtime.run_scenario, None),
        ("store.fingerprint", fingerprint.spec_fingerprint, None),
        ("store.fingerprint", fingerprint.study_fingerprint, None),
        ("core.build", runner.build_election_network, None),
        ("core.run", runner.run_election_on_network, _election_counts),
        ("core.vector_core", vector_core.run_vector_election, _election_counts),
        ("core.churn_election", churn_election.run_churn_election, None),
        ("synchronizers", synchronizers.run_synchronized, None),
        ("network.retransmission", scenario_algorithms.measure_lossy_channel, None),
        ("dse", optimizer.run_search, _round_counts),
        ("dse", dse_report.comparison_svg, None),
    ]
    for runner_name in ("run_itai_rodeh", "run_chang_roberts", "run_dolev_klawe_rodeh", "run_franklin"):
        functions.append(("algorithms", getattr(baselines, runner_name), None))
    for module in (complexity_fit, confidence, distributions, estimators):
        for public in module.__all__:
            value = getattr(module, public)
            if callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == module.__name__:
                functions.append(("stats", value, None))
    for name, original, post in functions:
        _rebind(original, _wrap(tracer, name, original, post), saved)

    methods: List[Tuple[str, type, str, Hook, Hook]] = [
        ("store.result_store.open", ResultStore, "__init__", None, None),
        ("store.result_store.lookup", ResultStore, "lookup", _lookup_counts, None),
        ("store.result_store.record", ResultStore, "record_many", _record_counts, _bytes_before),
        ("store.service", StudyService, "submit", None, None),
        ("store.service", StudyService, "run_pending", _job_counts, None),
        ("store.service", StudyService, "export", None, None),
        ("experiments.monte_carlo", SweepPool, "monte_carlo", None, None),
        ("experiments.close", SweepPool, "close", None, None),
        ("dse", SearchSpec, "from_dict", None, None),
    ]
    for name, cls, attribute, post, pre in methods:
        _patch(cls, attribute,
               lambda fn, name=name, post=post, pre=pre: _wrap(tracer, name, fn, post, pre), saved)
    _patch(SweepPool, "map", lambda fn: _wrap_map(tracer, fn, fork_available), saved)
    for cls in (
        scenario_algorithms.ElectionScenarioTrial,
        scenario_algorithms.BaselineScenarioTrial,
        scenario_algorithms.WaveScenarioTrial,
        scenario_algorithms.SynchronizerBatteryTrial,
        scenario_algorithms.LossyChannelTrial,
    ):
        _patch(cls, "__init__", lambda fn: _wrap(tracer, "scenarios.compile", fn), saved)
        _patch(cls, "__call__", lambda fn: _wrap_trial_call(tracer, fn), saved)


# ------------------------------------------------------------ layer metrics

#: Per-layer metrics of the traced run, with units (``BENCHMARK.json``'s
#: ``per_layer`` list).
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("core.trials", "count"),
    ("core.trial_p50_ms", "ms"),
    ("core.trial_p99_ms", "ms"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("network.messages", "count"),
    ("network.messages_per_trial", "count"),
    ("network.retransmission.busy_s", "s"),
    ("algorithms.busy_s", "s"),
    ("algorithms.trials", "count"),
    ("core.churn_election.busy_s", "s"),
    ("core.churn_election.trials", "count"),
    ("synchronizers.busy_s", "s"),
    ("core.vector_core.busy_s", "s"),
    ("core.vector_core.trials", "count"),
    ("core.vector_core.ticks_per_s", "1/s"),
    ("core.vector_core.trial_p50_ms", "ms"),
    ("experiments.wait_s", "s"),
    ("experiments.batches", "count"),
    ("experiments.busy_ratio", "ratio"),
    ("experiments.failures", "count"),
    ("experiments.self_s", "s"),
    ("store.result_store.lookup_s", "s"),
    ("store.result_store.rows_looked_up", "count"),
    ("store.result_store.hit_ratio", "ratio"),
    ("store.result_store.record_s", "s"),
    ("store.result_store.rows_recorded", "count"),
    ("store.result_store.bytes_per_row", "bytes"),
    ("store.result_store.open_s", "s"),
    ("store.fingerprint.busy_s", "s"),
    ("store.fingerprint.calls", "count"),
    ("scenarios.parse_s", "s"),
    ("scenarios.compile_s", "s"),
    ("scenarios.compiles", "count"),
    ("scenarios.run_s", "s"),
    ("scenarios.trial_s", "s"),
    ("store.service.self_s", "s"),
    ("store.service.jobs", "count"),
    ("stats.busy_s", "s"),
    ("stats.calls", "count"),
    ("dse.self_s", "s"),
    ("dse.rounds", "count"),
    ("client.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.spans", "count"),
)

#: Which span's self time each busy/self metric sums.
_SELF_METRICS = {
    "core.build_s": ("core.build",),
    "core.run_s": ("core.run",),
    "network.retransmission.busy_s": ("network.retransmission",),
    "algorithms.busy_s": ("algorithms",),
    "core.churn_election.busy_s": ("core.churn_election",),
    "synchronizers.busy_s": ("synchronizers",),
    "core.vector_core.busy_s": ("core.vector_core",),
    "experiments.wait_s": ("experiments.map",),
    "experiments.self_s": ("experiments.monte_carlo", "experiments.close"),
    "store.result_store.lookup_s": ("store.result_store.lookup",),
    "store.result_store.record_s": ("store.result_store.record",),
    "store.result_store.open_s": ("store.result_store.open",),
    "store.fingerprint.busy_s": ("store.fingerprint",),
    "scenarios.parse_s": ("scenarios.parse",),
    "scenarios.compile_s": ("scenarios.compile",),
    "scenarios.run_s": ("scenarios.run",),
    "scenarios.trial_s": ("trial",),
    "store.service.self_s": ("store.service",),
    "stats.busy_s": ("stats",),
    "dse.self_s": ("dse",),
    "client.self_s": ("client",),
}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus its same-process children's durations."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None and span.parent // ID_BASE == span.pid:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[Span], parent_pid: int, wall: float, import_s: float, overhead: float
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced cycle's spans.

    ``wall`` is the traced cycle's clock time in process ``parent_pid``;
    ``trace.accounted_ratio`` is the share of it the parent's self times
    cover.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for span in spans:
        self_by_name[span.name] += own[span.id]
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            totals[(span.name, key)] += value

    def trial_of(span: Span) -> int:
        current = span
        while current.name != "trial" and current.parent in by_id and by_id[current.parent].pid == span.pid:
            current = by_id[current.parent]
        return current.id

    core_per_trial: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name in ("core.build", "core.run"):
            core_per_trial[trial_of(span)] += span.duration
    core_trials = [value * 1000.0 for value in core_per_trial.values()]
    vector_trials = [span.duration * 1000.0 for span in spans if span.name == "core.vector_core"]

    mapped_busy = sum(
        span.duration for span in spans
        if span.name == "trial" and span.parent in by_id and by_id[span.parent].name == "experiments.map"
    )
    map_capacity = sum(
        span.duration * span.counts["workers"] for span in spans
        if span.name == "experiments.map" and span.counts
    )
    parent_self = sum(own[span.id] for span in spans if span.pid == parent_pid)

    metrics = {name: sum(self_by_name[span] for span in names) for name, names in _SELF_METRICS.items()}
    metrics.update({
        "core.trials": calls["core.run"],
        "core.trial_p50_ms": nearest_rank(core_trials, 50) if core_trials else 0.0,
        "core.trial_p99_ms": nearest_rank(core_trials, 99) if core_trials else 0.0,
        "sim.events": totals[("core.run", "events")],
        "sim.events_per_s": _ratio(totals[("core.run", "events")], metrics["core.run_s"]),
        "network.messages": totals[("core.run", "messages")],
        "network.messages_per_trial": _ratio(totals[("core.run", "messages")], calls["core.run"]),
        "algorithms.trials": calls["algorithms"],
        "core.churn_election.trials": calls["core.churn_election"],
        "core.vector_core.trials": calls["core.vector_core"],
        "core.vector_core.ticks_per_s": _ratio(totals[("core.vector_core", "ticks")],
                                               metrics["core.vector_core.busy_s"]),
        "core.vector_core.trial_p50_ms": median(vector_trials) if vector_trials else 0.0,
        "experiments.batches": calls["experiments.map"],
        "experiments.busy_ratio": _ratio(mapped_busy, map_capacity),
        "experiments.failures": totals[("experiments.map", "failures")],
        "store.result_store.rows_looked_up": totals[("store.result_store.lookup", "rows")],
        "store.result_store.hit_ratio": _ratio(totals[("store.result_store.lookup", "hits")],
                                               totals[("store.result_store.lookup", "rows")]),
        "store.result_store.rows_recorded": totals[("store.result_store.record", "rows")],
        "store.result_store.bytes_per_row": _ratio(totals[("store.result_store.record", "bytes")],
                                                   totals[("store.result_store.record", "rows")]),
        "store.fingerprint.calls": calls["store.fingerprint"],
        "scenarios.compiles": calls["scenarios.compile"],
        "store.service.jobs": totals[("store.service", "jobs")],
        "stats.calls": calls["stats"],
        "dse.rounds": totals[("dse", "rounds")],
        "setup.import_s": import_s,
        "trace.overhead_ratio": overhead,
        "trace.accounted_ratio": _ratio(parent_self, wall),
        "trace.spans": len(spans),
    })
    return metrics
