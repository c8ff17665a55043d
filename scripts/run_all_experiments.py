#!/usr/bin/env python3
"""Run every experiment at its default scale and save a report.

Usage::

    python scripts/run_all_experiments.py [output_path] [--workers N]

The output is the concatenation of every experiment's rendered tables and
findings (one module per experiment under ``repro.experiments``).
``--workers`` fans each experiment's Monte-Carlo trials across processes;
because trials are pure functions of their derived seeds, the report is
byte-identical for any worker count (only the wall-clock changes).
"""

from __future__ import annotations

import argparse
import inspect
import time

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.reporting import render_experiment
from repro.experiments.runner import (
    add_execution_arguments,
    execution_from_args,
    executor_from_args,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output_path",
        nargs="?",
        default="experiments_report.txt",
        help="where to write the concatenated report",
    )
    add_execution_arguments(parser, workers_default=1)
    args = parser.parse_args()
    workers, adaptive, policy = execution_from_args(args)
    workers = workers if workers is not None else 1

    sections = []
    total_started = time.time()
    # One executor serves every experiment: pool startup is paid once for the
    # whole report, and its execution policy (timeouts/retries) and
    # --checkpoint store apply to every trial.
    with executor_from_args(args, workers, policy) as pool:
        for experiment_id in sorted(ALL_EXPERIMENTS):
            module = ALL_EXPERIMENTS[experiment_id]
            kwargs = {"pool": pool}
            parameters = inspect.signature(module.run).parameters
            if adaptive is not None:
                if "adaptive" in parameters:
                    kwargs["adaptive"] = adaptive
                else:
                    print(
                        f"  note: {experiment_id} does not run Monte-Carlo "
                        "trials; adaptive stopping flags are ignored",
                        flush=True,
                    )
            started = time.time()
            print(f"running {experiment_id} ({module.TITLE}) ...", flush=True)
            result = module.run(**kwargs)
            elapsed = time.time() - started
            sections.append(render_experiment(result))
            sections.append(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
            print(f"  done in {elapsed:.1f}s", flush=True)
    total_elapsed = time.time() - total_started
    if policy is not None and policy.failures:
        print(
            f"warning: {len(policy.failures)} trial(s) recorded as structured "
            "failures (see ExecutionPolicy.failures)",
            flush=True,
        )
    report = "\n".join(sections)
    with open(args.output_path, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"report written to {args.output_path}")
    print(f"total wall clock: {total_elapsed:.1f}s (workers={workers})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
