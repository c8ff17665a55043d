"""The four workloads: seeded input documents, the job loop, output checks.

Load is a closed loop with one client: it submits one job -- a study or a
search parsed from a JSON document generated here -- waits for its report,
checks it with the clock paused, and submits the next.  The program runs at
most :data:`WORKERS` worker processes.  Every base seed derives from the
workload seed (:func:`derive`), so one ``--seed`` fixes every input; the
program itself only ever sees the generated JSON text.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.measure import HostSpeed, JobClock

#: Worker processes given to the program (the pooled workloads use all).
WORKERS = 2

#: Workloads whose jobs run on all the workers; their host-speed reference
#: runs on as many processes at once (:class:`~perfbench.measure.HostSpeed`).
POOLED = ("suite-cold", "dse-search")

WORKLOADS = ("suite-cold", "suite-warm", "dse-search", "vector-large-n")

# Why each workload, and which layers it loads (and bypasses):
#
# suite-cold -- every experiment's build_study() battery at default scale
#   (a1, a2, e1-e9: 11 jobs, 77 points, 1,317 trials) served into an empty
#   store by one StudyService with 2 workers, as `abe-repro serve` does;
#   every run serves two such batteries with different derived seeds.
#   It is the cost of reproducing the paper.  Loads core (object elections
#   with drift, faults and ablations), algorithms (E6 baselines),
#   core.churn_election (E9), network.retransmission (E4), synchronizers
#   (E5), experiments (pool dispatch in 16-trial batches) and store writes.
#   Bypasses core.vector_core, dse and store hits.
#
# suite-warm -- the same 11 studies resubmitted in a loop against a store
#   filled by one untimed cold pass; each job opens the store and a fresh
#   StudyService, runs the study and exports its report.  Zero trials
#   execute, so it loads only the read path: spec parse and compile,
#   fingerprints, store lookups and decode, per-point summaries and JSON
#   export.  Bypasses simulation, the pool and store writes -- simulation
#   changes must leave it flat.
#
# dse-search -- a widened examples/dse/fastest_election_per_topology.json
#   (24 candidates -- an 8-value a0 grid x 3 delay models -- per ring size,
#   rings of 8, 16 and 32 nodes, successive halving) searched into an empty
#   store with 2 workers, as `abe-repro optimize` does; every run serves
#   eight such searches with their own derived seeds.  Adaptive 2-trial
#   batches make pool round trips the main overhead and rung promotions
#   mix store hits into the writes.  The only workload that runs dse and
#   the adaptive stats.
#
# vector-large-n -- the columnar engine's ring-scaling study (the shape of
#   examples/scenarios/scaling_vector_ring.json) at n = 1000, 4000, 10000
#   with 12, 6 and 4 trials, run serially into an empty store; its trial
#   seeds are fixed (VECTOR_SEED).  The only workload that runs
#   core.vector_core, and the one where memory grows with n.  Bypasses the
#   object core and the pool.


def derive(seed: int, label: str) -> int:
    """A 31-bit base seed for ``label``, derived from the workload seed."""
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class Program:
    """The program's entry points, imported from one ``src`` directory."""

    def __init__(self, src: str) -> None:
        src = os.path.abspath(src)
        if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
            raise FileNotFoundError(f"no program sources under {src}")
        if sys.path[:1] != [src]:
            sys.path.insert(0, src)
        import repro

        location = os.path.dirname(os.path.abspath(repro.__file__))
        if location != os.path.join(src, "repro"):
            raise ImportError(f"repro imported from {location}, expected {src}")
        # Import every layer the workloads reach, so forked workers inherit
        # them instead of importing them once per pool.
        import repro.algorithms.leader_election  # noqa: F401
        import repro.core.churn_election  # noqa: F401
        import repro.core.vector_core  # noqa: F401
        import repro.dse
        import repro.network.retransmission  # noqa: F401
        import repro.scenarios
        import repro.synchronizers.base  # noqa: F401
        from repro.core.runner import ElectionResult
        from repro.dse.spec import SearchSpec
        from repro.experiments import ALL_EXPERIMENTS, TrialFailure
        from repro.store.result_store import ResultStore
        from repro.store.service import StudyService

        self.src = src
        self.experiments = ALL_EXPERIMENTS
        self.ElectionResult = ElectionResult
        self.TrialFailure = TrialFailure
        self.SearchSpec = SearchSpec
        self.ResultStore = ResultStore
        self.StudyService = StudyService
        # Functions are reached through their modules at call time, so the
        # traced run's wrappers (rebound module attributes) see the calls.
        self.scenarios = repro.scenarios
        self.dse = repro.dse


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    """One workload's generated documents.

    Each cycle is a list of ``(name, JSON text)`` jobs; the timed section's
    cycle ``k`` runs ``cycles[k % len(cycles)]`` and lasts at least
    ``min_cycles`` cycles.  ``warmup`` is the untimed job run before them.
    """

    workload: str
    cycles: List[List[Tuple[str, str]]]
    warmup: Tuple[str, str]
    min_cycles: int = 1

    @property
    def jobs(self) -> List[Tuple[str, str]]:
        """The first cycle's jobs."""
        return self.cycles[0]


def _shrink_study(doc: Dict[str, Any]) -> Dict[str, Any]:
    """A tiny copy of a study document: two points, two trials each."""
    doc = copy.deepcopy(doc)
    doc["points"] = doc["points"][:2]
    for point in doc["points"]:
        if point.get("trials", 1) > 1:
            point["trials"] = 2
        if "messages" in point.get("params", {}):
            point["params"]["messages"] = 500
    return doc


def suite_documents(program: Program, seed: int, tiny: bool = False) -> List[Tuple[str, str]]:
    """Every experiment's default battery, each with its own derived seed."""
    jobs = []
    for name, module in program.experiments.items():
        doc = module.build_study(base_seed=derive(seed, f"suite/{name}")).to_dict()
        if tiny:
            doc = _shrink_study(doc)
        jobs.append((name, json.dumps(doc, sort_keys=True)))
    return jobs


#: a0 values of the search: 8 log-spaced points over the example's
#: [0.001, 0.1] range.  With the 3 delay models that is 24 configurations,
#: so successive halving enumerates them all in rung 0 instead of drawing
#: random candidates: seeds then move the trials, not the candidate set,
#: whose a0 values would otherwise swing the search's work two-fold.
A0_GRID = [round(0.001 * 100 ** (index / 7), 6) for index in range(8)]


def dse_document(
    seed: int, candidates: int = 24, rings: Tuple[int, ...] = (8, 16, 32), rungs: int = 3
) -> Dict[str, Any]:
    """The widened fastest-election search (search and base-spec seeds derived)."""
    return {
        "name": "fastest-election-per-ring-size",
        "title": "Fastest-electing configuration per ring size",
        "metric": "election_time",
        "goal": "min",
        "seed": derive(seed, "dse/search"),
        "trials": 4,
        "space": {
            "base": {
                "algorithm": "abe-election",
                "topology": {"kind": "uniring", "params": {"n": rings[0]}},
                "delay": {"kind": "exponential", "params": {"mean": 1.0}},
                "seed": derive(seed, "dse/base"),
                "trials": 4,
            },
            "dimensions": [
                {"name": "a0", "kind": "categorical", "field": "a0", "choices": A0_GRID},
                {
                    "name": "delay",
                    "kind": "categorical",
                    "field": "delay",
                    "choices": [
                        {"kind": "exponential", "params": {"mean": 1.0}},
                        {"kind": "uniform", "params": {"low": 0.0, "high": 2.0}},
                        {"kind": "constant", "params": {"value": 1.0}},
                    ],
                },
            ],
        },
        "strategy": {
            "kind": "successive-halving",
            "params": {"candidates": candidates, "eta": 2, "base_trials": 2, "rungs": rungs},
        },
        "stopping": {"ci_tolerance": 0.2, "min_trials": 2, "batch_size": 2},
        "groups": [
            {"label": f"uniring-{n}", "overrides": {"topology": {"kind": "uniring", "params": {"n": n}}}}
            for n in rings
        ],
    }


def vector_document(base: int, sizes: Tuple[Tuple[int, int], ...]) -> Dict[str, Any]:
    """The columnar-engine scaling study: ``(n, trials)`` points, one seed."""
    return {
        "study": "vector-ring-scaling-large-n",
        "title": "Columnar-engine election scaling, n up to 10^4",
        "metric": "election_time",
        "points": [
            {
                "algorithm": "abe-election",
                "topology": {"kind": "uniring", "params": {"n": n}},
                "core": "vector",
                "seed": base,
                "trials": trials,
                "label": f"n{n}",
            }
            for n, trials in sizes
        ],
    }


#: Distinct searches a dse-search run cycles through.
DSE_CYCLES = 8

VECTOR_SIZES = ((1000, 12), (4000, 6), (10000, 4))

#: The vector study's base seed, as in examples/scenarios/scaling_vector_ring.json.
#: It is deliberately not derived from the workload seed: one election's
#: work varies with its seed by a coefficient of variation of ~0.7 at
#: n >= 4000, so 22 trials cannot average it out and a seed-derived study
#: would measure the seed (runs spread by ~30%), not the code.
VECTOR_SEED = 17


def generate(program: Program, workload: str, seed: int, tiny: bool = False) -> Inputs:
    """The seeded input documents of ``workload`` (``tiny`` for self-tests)."""
    if workload == "suite-cold":
        # Two batteries with their own derived seeds, both measured in every
        # run: the median job of 11 sits among jobs whose work moves with
        # their seeds, so one battery's p50 would measure the seed.
        cycles = [suite_documents(program, seed, tiny),
                  suite_documents(program, derive(seed, "cold/second"), tiny)]
        # Untimed warm-up: the cheapest battery (E9).
        return Inputs(workload, cycles, ("warmup", dict(cycles[0])["e9"]), min_cycles=len(cycles))
    if workload == "suite-warm":
        jobs = suite_documents(program, seed, tiny)
        # Untimed warm-up: one read of the first battery.
        return Inputs(workload, [jobs], ("warmup", jobs[0][1]))
    if workload == "dse-search":
        # Each cycle searches with its own derived seeds and every run
        # measures all of them, so the medians over one run's cycles span
        # eight seeds' search work and shrug off a stall of the shared host
        # that slows one or two searches.
        docs = ([dse_document(seed, 4, (8, 16), 2)] if tiny else
                [dse_document(derive(seed, f"dse/cycle{index}")) for index in range(DSE_CYCLES)])
        warmup = dse_document(derive(seed, "warmup"), 4, (8,), 2)
        return Inputs(workload, [[("search", json.dumps(doc, sort_keys=True))] for doc in docs],
                      ("warmup", json.dumps(warmup, sort_keys=True)), min_cycles=len(docs))
    if workload == "vector-large-n":
        sizes = ((200, 2), (400, 2)) if tiny else VECTOR_SIZES
        # One trial at the largest n, so the timed cycles reuse grown memory.
        warmup = vector_document(derive(seed, "warmup"), ((sizes[-1][0], 1),))
        study = vector_document(VECTOR_SEED, sizes)
        return Inputs(workload, [[("scaling", json.dumps(study, sort_keys=True))]],
                      ("warmup", json.dumps(warmup, sort_keys=True)))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def parse(program: Program, workload: str, text: str) -> Any:
    """Parse one generated document the way `serve` / `optimize` would."""
    data = json.loads(text)
    if workload == "dse-search":
        return program.SearchSpec.from_dict(data)
    return program.scenarios.spec_from_dict(data)


# ------------------------------------------------------------------ checks


@dataclass
class Checks:
    """Output-check verdicts: evaluations and failures per check name."""

    evaluated: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, note: str = "") -> None:
        self.evaluated[name] = self.evaluated.get(name, 0) + 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
            if note and len(self.notes) < 20:
                self.notes.append(f"{name}: {note}")

    @property
    def attempted(self) -> int:
        return sum(self.evaluated.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def check_election(program: Program, checks: Checks, result: Any, spec: Dict[str, Any]) -> None:
    """A purging ABE election (either core) elects exactly one leader.

    Churn runs re-elect by design, and without purging several leaders are
    the expected ablation outcome, so both are exempt.
    """
    if not isinstance(result, program.ElectionResult):
        return
    if spec.get("algorithm") != "abe-election" or not spec.get("purge_at_active", True):
        return
    if spec.get("churn"):
        return
    ok = result.elected and result.leaders_elected == 1 and result.hop_overflows == 0
    checks.record("abe-unique-leader", ok, "" if ok else (
        f"seed {result.seed}: elected={result.elected} "
        f"leaders={result.leaders_elected} overflows={result.hop_overflows}"))


def check_study_report(program: Program, checks: Checks, report: Any) -> int:
    """Per-trial checks over one study report; returns its trial count."""
    trials = 0
    for point in report.points:
        for result in point.results:
            trials += 1
            failure = isinstance(result, program.TrialFailure)
            checks.record("no-trial-failures", not failure, f"{point.label}: {result!r}" if failure else "")
            if not failure:
                check_election(program, checks, result, point.spec)
    return trials


def points_text(points: Any) -> str:
    """The canonical bytes of an exported ``points`` block."""
    return json.dumps(points, indent=2, sort_keys=True)


# ------------------------------------------------------------------ runner


class Runner:
    """Runs one workload's jobs through the program and checks the outputs.

    ``clock`` measures the timed section: job latencies plus per-cycle store
    open and pool teardown, never the checks.  With a ``tracer`` every
    clock-running stretch is one ``client`` span.  With a ``host``, the
    host-speed reference is sampled after every timed job, clock paused.
    """

    def __init__(
        self,
        program: Program,
        inputs: Inputs,
        workdir: str,
        checks: Checks,
        tracer: Optional[Any] = None,
        host: Optional[HostSpeed] = None,
    ) -> None:
        self.program = program
        self.inputs = inputs
        self.workload = inputs.workload
        self.workdir = workdir
        self.checks = checks
        self.tracer = tracer
        self.host = host
        self.clock = JobClock()
        self.latencies: List[float] = []
        self.trials = 0
        #: Trials delivered per clock second, one entry per measured cycle.
        self.cycle_rates: List[float] = []
        #: job name -> canonical output text of its latest run.
        self.outputs: Dict[str, str] = {}
        self._stores = 0
        self._cold_points: Dict[str, str] = {}
        os.makedirs(self.export_dir, exist_ok=True)

    # ------------------------------------------------------------- plumbing

    @property
    def export_dir(self) -> str:
        return os.path.join(self.workdir, "export")

    @property
    def warm_store(self) -> str:
        return os.path.join(self.workdir, "warm", "store.sqlite")

    @property
    def cold_dir(self) -> str:
        return os.path.join(self.workdir, "warm", "cold")

    def _fresh_store_path(self) -> str:
        self._stores += 1
        path = os.path.join(self.workdir, "stores", f"store{self._stores}.sqlite")
        if os.path.exists(path):
            os.remove(path)
        return path

    def _timed(self, job: str, fn: Callable[[], Any], record: bool) -> Any:
        """Run ``fn`` on the clock; ``record`` adds it as a job latency."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            tracer.job = job
            span = tracer.begin("client")
        self.clock.start()
        try:
            return fn()
        finally:
            interval = self.clock.stop()
            if span is not None:
                tracer.end(span)
            if record:
                self.latencies.append(interval)
                if self.host is not None:
                    self.host.keep_up(self.clock.elapsed)

    def _job(self, job: str, fn: Callable[[], Any], record: bool) -> Any:
        """One job on the clock; a job that raises is a failed check."""
        try:
            result = self._timed(job, fn, record)
        except Exception as error:  # the benchmark reports, then goes on
            self.checks.record("jobs-complete", False, f"{job}: {type(error).__name__}: {error}")
            return None
        self.checks.record("jobs-complete", True)
        return result

    # --------------------------------------------------------------- cycles

    def run_cycles(self, count: int) -> None:
        for _ in range(count):
            self._measured_cycle()

    def run_for(self, seconds: float, wall_limit: float) -> None:
        """Repeat cycles until the clock reaches ``seconds`` and at least
        ``min_cycles`` ran, or ``wall_limit``."""
        deadline = time.monotonic() + wall_limit
        while True:
            self._measured_cycle()
            enough = self.clock.elapsed >= seconds and len(self.cycle_rates) >= self.inputs.min_cycles
            if enough or time.monotonic() >= deadline:
                return

    def _measured_cycle(self) -> None:
        trials, elapsed = self.trials, self.clock.elapsed
        index = len(self.cycle_rates)
        self.cycle(self.inputs.cycles[index % len(self.inputs.cycles)], f"c{index}", True)
        self.cycle_rates.append((self.trials - trials) / max(1e-9, self.clock.elapsed - elapsed))

    def warmup(self) -> None:
        self.cycle([self.inputs.warmup], "warmup", False)

    def cycle(self, jobs: List[Tuple[str, str]], tag: str, record: bool) -> None:
        if self.workload == "suite-cold":
            self._cold_cycle(jobs, tag, record, self._fresh_store_path(), self.export_dir)
        elif self.workload == "suite-warm":
            for name, text in jobs:
                self._warm_job(f"{tag}/{name}", text, record)
        elif self.workload == "dse-search":
            for name, text in jobs:
                self._search_job(f"{tag}/{name}", text, record)
        else:
            for name, text in jobs:
                self._serial_study_job(f"{tag}/{name}", text, record)

    # ------------------------------------------------------------ job kinds

    def _cold_cycle(
        self, jobs: List[Tuple[str, str]], tag: str, record: bool, store_path: str, export_dir: str
    ) -> None:
        """One StudyService over one empty store serves every job in turn."""
        program = self.program

        def open_service() -> Tuple[Any, Any]:
            store = program.ResultStore(store_path)
            return store, program.StudyService(store, workers=WORKERS)

        store, service = self._timed(f"{tag}/open", open_service, False)
        try:
            for name, text in jobs:

                def job(name: str = name, text: str = text) -> Any:
                    return self._serve(service, name, text, export_dir)

                outcome = self._job(f"{tag}/{name}", job, record)
                if outcome is not None:
                    self._check_study(name, outcome[0], record)
        finally:

            def close() -> None:
                service.close()
                store.close()

            self._timed(f"{tag}/close", close, False)

    def _warm_job(self, job_id: str, text: str, record: bool) -> None:
        """Open the filled store and a fresh service, serve one study, export."""
        program = self.program
        name = job_id.rsplit("/", 1)[-1]

        def job() -> Tuple[Any, str]:
            with program.ResultStore(self.warm_store) as store:
                with program.StudyService(store, workers=WORKERS) as service:
                    return self._serve(service, name, text, self.export_dir)

        outcome = self._job(job_id, job, record)
        if outcome is None:
            return
        report, path = outcome
        self._check_study(name, report, record)
        self.checks.record("warm-zero-executed", report.trials_executed == 0,
                           f"{name}: {report.trials_executed} trial(s) executed")
        with open(path, "r", encoding="utf-8") as handle:
            warm = points_text(json.load(handle)["points"])
        cold = self._cold_points.get(report.job_id)
        if cold is None:
            with open(os.path.join(self.cold_dir, f"{report.job_id}.json"), "r", encoding="utf-8") as handle:
                cold = self._cold_points[report.job_id] = points_text(json.load(handle)["points"])
        self.checks.record("warm-points-identical", warm == cold,
                           f"{name}: warm points differ from the cold export")

    def _serial_study_job(self, job_id: str, text: str, record: bool) -> None:
        """One study, served serially into an empty store."""
        program = self.program
        name = job_id.rsplit("/", 1)[-1]
        store_path = self._fresh_store_path()

        def job() -> Tuple[Any, str]:
            with program.ResultStore(store_path) as store:
                with program.StudyService(store, workers=1) as service:
                    return self._serve(service, name, text, self.export_dir)

        outcome = self._job(job_id, job, record)
        if outcome is not None:
            self._check_study(name, outcome[0], record)
        os.remove(store_path)

    def _search_job(self, job_id: str, text: str, record: bool) -> None:
        """One search into an empty store, written out as `optimize` does."""
        program = self.program
        name = job_id.rsplit("/", 1)[-1]
        store_path = self._fresh_store_path()
        out_dir = os.path.join(self.workdir, "dse_out")

        def job() -> Any:
            search = program.SearchSpec.from_dict(json.loads(text))
            with program.ResultStore(store_path) as store:
                report = program.dse.run_search(search, store, workers=WORKERS)
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            with open(os.path.join(out_dir, "comparison.svg"), "w", encoding="utf-8") as handle:
                handle.write(program.dse.comparison_svg(report))
            return report

        report = self._job(job_id, job, record)
        if report is not None:
            if record:
                self.trials += report.lookups
            for group in report.groups:
                values = (group.winner.value, group.baseline.value)
                ok = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
                self.checks.record("dse-winner-and-baseline", ok, f"{group.label}: {values}")
            # A failed trial is never recorded, so every executed trial must
            # be in the store; its elections are checked there.
            rows = 0
            with program.ResultStore(store_path) as store:
                for _, _, _, _, result in store.iter_rows():
                    rows += 1
                    check_election(program, self.checks, result, {"algorithm": "abe-election"})
            self.checks.record("no-trial-failures", rows == report.trials_executed,
                               f"{name}: {report.trials_executed} executed, {rows} recorded")
            if record:
                self.outputs[name] = json.dumps(report.to_dict()["groups"], sort_keys=True)
        os.remove(store_path)

    def _serve(self, service: Any, name: str, text: str, export_dir: str) -> Tuple[Any, str]:
        """Parse one study document, serve it, export the report."""
        service.submit(self.program.scenarios.spec_from_dict(json.loads(text)), source=name)
        report = service.run_pending()[0]
        return report, service.export(report, export_dir)

    def _check_study(self, name: str, report: Any, record: bool) -> None:
        trials = check_study_report(self.program, self.checks, report)
        if record:
            self.trials += trials
            self.outputs[name] = points_text([point.identity_dict() for point in report.points])


def fill_warm_store(program: Program, inputs: Inputs, workdir: str) -> Checks:
    """The untimed cold pass that fills suite-warm's store and exports the
    cold reports its points are compared against."""
    checks = Checks()
    runner = Runner(program, Inputs("suite-cold", inputs.cycles, inputs.warmup), workdir, checks)
    shutil.rmtree(os.path.join(workdir, "warm"), ignore_errors=True)
    runner._cold_cycle(inputs.jobs, "fill", False, runner.warm_store, runner.cold_dir)
    return checks
