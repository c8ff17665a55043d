"""Command-line interface.

Installed as the ``abe-repro`` console script.  Eight sub-commands:

``abe-repro elect``
    Run one leader election on an ABE ring and print the outcome.

``abe-repro experiment <id>``
    Run one of the experiments (e1..e8, a1, a2) with optionally reduced trial
    counts and print its tables (one module per experiment under
    :mod:`repro.experiments`).

``abe-repro scenario <spec.json>``
    Run a declarative scenario (or study) spec file through
    :func:`repro.scenarios.runtime.run_scenario` -- any registered algorithm
    on any registered topology, no Python required.  See
    ``examples/scenarios/`` and ``docs/SCENARIOS.md``.

``abe-repro serve``
    The study service (``docs/SERVICE.md``): accept scenario/study spec
    files (arguments and/or a watched spool directory), dedupe them by
    fingerprint, run them against one warm worker pool with every trial
    keyed into a persistent sqlite result store, and export per-job JSON --
    re-submitting an experiment is a cache hit with zero redundant compute.

``abe-repro optimize <search.json>``
    Design-space exploration (``docs/DSE.md``): search a declared parameter
    space for the best-scoring configuration per group (grid, random, or
    successive halving), every evaluation cached in a persistent result
    store -- re-running or widening a search executes only new points.
    Prints the per-group winner table and writes the report JSON plus a
    comparison figure (SVG) against the paper's fixed constants.

``abe-repro export-store <store> --csv``
    Dump a sqlite result store as one CSV row per cached trial, for
    external analysis tooling.

``abe-repro list``
    List the available experiments with their claims, plus the registered
    scenario algorithms, topologies, search strategies and dimension kinds.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.analysis import recommended_a0
from repro.core.runner import run_election
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import (
    add_execution_arguments,
    execution_from_args,
    executor_from_args,
)
from repro.report import (
    ResultTable,
    format_table,
    render_experiment,
    render_scenario,
    render_study_scaling,
    write_store_csv,
)

__all__ = ["main", "build_parser"]


def _report_failures(policy) -> None:
    """Print the policy's structured trial-failure log to stderr."""
    if policy is None or not policy.failures:
        return
    print(
        f"warning: {len(policy.failures)} trial(s) failed and were recorded "
        "as structured failures:",
        file=sys.stderr,
    )
    for failure in policy.failures:
        where = failure.seed if failure.seed is not None else failure.item
        print(
            f"  - trial {where}: {failure.kind} after {failure.attempts} "
            f"attempt(s): {failure.error_type}: {failure.message}",
            file=sys.stderr,
        )


def _open_store(path: str, allow_stale: bool = False):
    """Open the result store of ``serve``/``optimize`` (``--store``) or
    ``export-store``, exiting with a one-line message when the path is not
    a sqlite store or cannot be opened."""
    from repro.store.result_store import ResultStore

    try:
        return ResultStore(path, allow_stale=allow_stale)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="abe-repro",
        description=(
            "Asynchronous Bounded Expected Delay networks -- reproduction of "
            "Bakhshi et al., PODC 2010"
        ),
    )
    subparsers = parser.add_subparsers(dest="command")

    elect = subparsers.add_parser("elect", help="run one election on an ABE ring")
    elect.add_argument("--n", type=int, default=32, help="ring size (default 32)")
    elect.add_argument(
        "--a0",
        type=float,
        default=None,
        help="base activation parameter (default: recommended for n)",
    )
    elect.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    elect.add_argument(
        "--delta", type=float, default=1.0, help="expected delay bound (default 1.0)"
    )
    elect.add_argument(
        "--core",
        choices=("object", "vector"),
        default="object",
        help=(
            "election engine: per-node reference ('object') or columnar numpy "
            "('vector'; own random streams, so a different sample path per seed)"
        ),
    )

    experiment = subparsers.add_parser("experiment", help="run one experiment")
    experiment.add_argument(
        "experiment_id", choices=sorted(ALL_EXPERIMENTS), help="experiment to run"
    )
    experiment.add_argument(
        "--trials", type=int, default=None, help="override the number of trials"
    )
    experiment.add_argument(
        "--seed", type=int, default=None, help="override the base seed"
    )
    add_execution_arguments(experiment)

    scenario = subparsers.add_parser(
        "scenario", help="run a declarative scenario spec file (JSON)"
    )
    scenario.add_argument(
        "spec_path", help="path to a ScenarioSpec (or StudySpec) JSON file"
    )
    scenario.add_argument(
        "--trials", type=int, default=None, help="override the spec's trial count"
    )
    scenario.add_argument(
        "--seed", type=int, default=None, help="override the spec's base seed"
    )
    add_execution_arguments(scenario)

    serve = subparsers.add_parser(
        "serve",
        help="run the study service: spec submissions, warm pool, result store",
    )
    serve.add_argument(
        "jobs",
        nargs="*",
        metavar="SPEC",
        help="scenario/study spec files (JSON) to submit immediately",
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help=(
            "persistent result store (sqlite); every trial is keyed by "
            "(spec fingerprint, seed, code version), so re-submitted "
            "experiments are cache hits"
        ),
    )
    serve.add_argument(
        "--export",
        default=None,
        metavar="DIR",
        help="write each job's JSON report to DIR/<job>.json",
    )
    serve.add_argument(
        "--watch",
        default=None,
        metavar="DIR",
        help=(
            "after the argument specs, keep watching DIR and submit every "
            "*.json spec file dropped into it"
        ),
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="watch-mode poll interval (default 2s)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="exit after N watched jobs (default: watch until interrupted)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="process the current --watch backlog, then exit instead of polling",
    )
    add_execution_arguments(serve, checkpoint=False)

    optimize = subparsers.add_parser(
        "optimize",
        help="search a declared parameter space for the best configuration",
    )
    optimize.add_argument(
        "search_path", help="path to a SearchSpec JSON file (see docs/DSE.md)"
    )
    optimize.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (default dse_out/<search name>)",
    )
    optimize.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "persistent result store (sqlite; default <out>/store.sqlite); "
            "re-running the same search against a warm store executes zero "
            "trials"
        ),
    )
    optimize.add_argument(
        "--seed", type=int, default=None, help="override the search's master seed"
    )
    add_execution_arguments(optimize, checkpoint=False)

    export_store = subparsers.add_parser(
        "export-store",
        help="dump a sqlite result store as CSV (one row per cached trial)",
    )
    export_store.add_argument("store", help="sqlite result store to export")
    export_store.add_argument(
        "--csv",
        default="-",
        metavar="PATH",
        help="destination CSV file (default '-' = stdout)",
    )
    export_store.add_argument(
        "--all-versions",
        action="store_true",
        help="include rows recorded under other code versions",
    )

    subparsers.add_parser("list", help="list experiments, algorithms and topologies")
    return parser


def _command_elect(args: argparse.Namespace) -> int:
    from repro.network.delays import ExponentialDelay

    a0 = args.a0 if args.a0 is not None else recommended_a0(args.n)
    result = run_election(
        args.n,
        a0=a0,
        delay=ExponentialDelay(mean=args.delta),
        seed=args.seed,
        core=args.core,
    )
    print(f"ring size          : {result.n}")
    print(f"engine core        : {args.core}")
    print(f"activation A0      : {a0:.6g}")
    print(f"leader elected     : {result.elected}")
    print(f"leader uid         : {result.leader_uid}")
    print(f"election time      : {result.election_time:.4f}" if result.election_time else "election time      : -")
    print(f"messages sent      : {result.messages_total}")
    print(f"activations        : {result.activations}")
    print(f"knockout messages  : {result.knockout_messages}")
    print(f"clock ticks        : {result.ticks}")
    return 0 if result.elected else 1


def _command_experiment(args: argparse.Namespace) -> int:
    import inspect

    module = ALL_EXPERIMENTS[args.experiment_id]
    supported = set(inspect.signature(module.run).parameters)
    kwargs = {}
    if args.trials is not None and "trials" in supported:
        kwargs["trials"] = args.trials
    if args.seed is not None and "base_seed" in supported:
        kwargs["base_seed"] = args.seed
    workers, adaptive, policy = execution_from_args(args)
    if adaptive is not None:
        if "adaptive" not in supported:
            print(
                f"note: experiment {args.experiment_id} does not run Monte-Carlo "
                "trials; --ci-tol/--min-trials/--max-trials are ignored"
            )
        else:
            kwargs["adaptive"] = adaptive
    with executor_from_args(args, workers if workers is not None else 1, policy) as pool:
        result = module.run(pool=pool, **kwargs)
    print(render_experiment(result))
    _report_failures(policy)
    return 0


def _command_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import ALGORITHMS, StudySpec, load_spec, run_scenario, run_study

    try:
        spec = load_spec(args.spec_path)
    except (OSError, ValueError) as error:
        raise SystemExit(str(error)) from None
    workers, adaptive, policy = execution_from_args(args)
    if workers is None:
        # A bare scenario keeps its own ``workers`` field (0 = one per CPU);
        # a study's points share one executor, serial by default.
        workers = 1 if isinstance(spec, StudySpec) else spec.workers or None

    def adjust(point):
        if args.trials is not None and point.algorithm in ALGORITHMS:
            # One-shot workloads are a single evaluation per point; their
            # trial count is structural, not a knob.
            if not ALGORITHMS.get(point.algorithm).one_shot:
                point = point.replace(trials=max(1, args.trials))
        if args.seed is not None:
            point = point.replace(seed=args.seed)
        return point

    try:
        with executor_from_args(args, workers, policy) as pool:
            if isinstance(spec, StudySpec):
                study = StudySpec(
                    name=spec.name,
                    title=spec.title,
                    metric=spec.metric,
                    points=tuple(adjust(point) for point in spec.points),
                )
                per_point = run_study(study, pool=pool, adaptive=adaptive)
                print(f"== study: {study.name} ==")
                for point, results in zip(study.points, per_point):
                    print()
                    print(render_scenario(point, results))
                scaling = render_study_scaling(study, per_point)
                if scaling is not None:
                    print()
                    print(scaling)
            else:
                point = adjust(spec)
                results = run_scenario(point, pool=pool, adaptive=adaptive)
                print(render_scenario(point, results))
    except ValueError as error:
        raise SystemExit(str(error)) from None
    _report_failures(policy)
    return 0


def _render_job_report(report) -> str:
    """Compact per-point stdout table for one served job."""
    table = ResultTable(
        title=f"job {report.job_id}: {report.name} [{report.status}]",
        columns=["point", "algorithm", "trials", "failures", "cached", "executed", "metric_mean"],
    )
    for point in report.points:
        metrics = point.summary.get("metrics", {})
        mean = metrics.get(report.metric, {}).get("mean")
        table.add_row(
            point=point.label,
            algorithm=point.algorithm,
            trials=point.summary.get("trials"),
            failures=point.summary.get("failures"),
            cached=point.hits,
            executed=point.executed,
            metric_mean=mean,
        )
    lookups = report.lookups
    table.add_note(f"metric_mean targets {report.metric!r}")
    table.add_note(
        f"cache: {report.hits}/{lookups} hit(s), "
        f"{report.trials_executed} trial(s) executed, {report.elapsed:.2f}s"
    )
    if report.duplicate_of is not None:
        table.add_note(f"duplicate of job {report.duplicate_of} (not re-executed)")
    return format_table(table)


def _serve_drain(service, args) -> int:
    """Run pending jobs, print tables, export; returns the job count."""
    reports = service.run_pending()
    for report in reports:
        print(_render_job_report(report))
        if args.export is not None:
            path = service.export(report, args.export)
            print(f"exported: {path}")
    return len(reports)


def _command_serve(args: argparse.Namespace) -> int:
    import time

    from repro.scenarios import load_spec
    from repro.store.service import StudyService

    if not args.jobs and args.watch is None:
        raise SystemExit("serve needs spec files to submit and/or --watch DIR")
    workers, adaptive, policy = execution_from_args(args)
    store = _open_store(args.store, allow_stale=bool(args.allow_stale_cache))
    progress = lambda message: print(message, file=sys.stderr)  # noqa: E731

    def submit_file(service, path) -> bool:
        try:
            spec = load_spec(path)
            service.submit(spec, source=str(path))
            return True
        except (OSError, ValueError, TypeError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return False

    exit_code = 0
    processed = 0
    with store, StudyService(
        store,
        workers=workers if workers is not None else 1,
        adaptive=adaptive,
        policy=policy,
        progress=progress,
    ) as service:
        for path in args.jobs:
            if not submit_file(service, path):
                exit_code = 1
        processed += _serve_drain(service, args)
        if args.watch is not None:
            seen = set()
            try:
                while True:
                    try:
                        names = sorted(os.listdir(args.watch))
                    except OSError as error:
                        raise SystemExit(f"--watch {args.watch}: {error}") from None
                    for name in names:
                        if not name.endswith(".json") or name in seen:
                            continue
                        seen.add(name)
                        if not submit_file(service, os.path.join(args.watch, name)):
                            exit_code = 1
                    processed += _serve_drain(service, args)
                    if args.once:
                        break
                    if args.max_jobs is not None and processed >= args.max_jobs:
                        break
                    time.sleep(args.poll)
            except KeyboardInterrupt:
                print(f"interrupted after {processed} job(s)", file=sys.stderr)
    _report_failures(policy)
    return exit_code


def _command_optimize(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.dse import comparison_svg, load_search, run_search

    try:
        search = load_search(args.search_path)
    except (OSError, ValueError) as error:
        raise SystemExit(str(error)) from None
    workers, adaptive, policy = execution_from_args(args)
    if adaptive is not None:
        print(
            "note: a search declares its own stopping rule (the optimizer "
            "re-caps it per rung); --ci-tol/--min-trials/--max-trials are ignored",
            file=sys.stderr,
        )
    if args.seed is not None:
        search = dataclasses.replace(search, seed=args.seed)
    out_dir = args.out if args.out is not None else os.path.join("dse_out", search.name)
    store_path = args.store if args.store is not None else os.path.join(out_dir, "store.sqlite")
    os.makedirs(out_dir, exist_ok=True)
    progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    try:
        with _open_store(store_path, allow_stale=bool(args.allow_stale_cache)) as store:
            report = run_search(
                search,
                store,
                workers=workers if workers is not None else 1,
                policy=policy,
                progress=progress,
            )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    figure_path = os.path.join(out_dir, "comparison.svg")
    with open(figure_path, "w", encoding="utf-8") as handle:
        handle.write(comparison_svg(report))
    title = search.title or search.name
    print(f"== search: {title} ==")
    print(f"metric: {report.metric} ({report.goal}), strategy: {report.strategy}")
    print()
    print(format_table(report.winner_table()))
    print()
    print(
        f"cache: {report.hits}/{report.lookups} hit(s), "
        f"{report.trials_executed} trial(s) executed, {report.elapsed:.2f}s"
    )
    print(f"report: {report_path}")
    print(f"figure: {figure_path}")
    _report_failures(policy)
    return 0


def _command_export_store(args: argparse.Namespace) -> int:
    if not os.path.exists(args.store):
        raise SystemExit(f"{args.store}: no such store")
    with _open_store(args.store, allow_stale=True) as store:
        count = write_store_csv(store, args.csv, all_versions=args.all_versions)
    if args.csv != "-":
        print(f"exported {count} row(s) to {args.csv}", file=sys.stderr)
    return 0


def _command_list() -> int:
    from repro.dse import DIMENSIONS, STRATEGIES
    from repro.scenarios import ALGORITHMS, CHURN, CHURN_EVENTS, DELAYS, TOPOLOGIES

    for experiment_id in sorted(ALL_EXPERIMENTS):
        module = ALL_EXPERIMENTS[experiment_id]
        print(f"{experiment_id}: {module.TITLE}")
        print(f"    {module.CLAIM}")
    print()
    print("scenario algorithms (abe-repro scenario <spec.json>):")
    for key in ALGORITHMS.known():
        print(f"    {key}: {ALGORITHMS.get(key).description}")
    print(f"scenario topologies: {', '.join(TOPOLOGIES.known())}")
    print(f"scenario delay models: {', '.join(DELAYS.known())}")
    print(f"scenario churn scripts: {', '.join(CHURN.known())}")
    print(f"scenario churn events: {', '.join(CHURN_EVENTS.known())}")
    print()
    print("search strategies (abe-repro optimize <search.json>):")
    for key in STRATEGIES.known():
        print(f"    {key}: {STRATEGIES.get(key).description}")
    print("search dimension kinds:")
    for key in DIMENSIONS.known():
        print(f"    {key}: {DIMENSIONS.get(key).description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``abe-repro`` console script.

    A result store that opens but fails a later query (``serve``,
    ``optimize``, ``export-store``, ``--checkpoint``) exits with the store's
    one-line message.
    """
    from repro.store.result_store import DamagedStoreError

    try:
        return _dispatch(argv)
    except DamagedStoreError as error:
        raise SystemExit(str(error)) from None


def _dispatch(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "elect":
        return _command_elect(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "scenario":
        return _command_scenario(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "optimize":
        return _command_optimize(args)
    if args.command == "export-store":
        return _command_export_store(args)
    if args.command == "list":
        return _command_list()
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
