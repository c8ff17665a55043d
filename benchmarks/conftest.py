"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment of ``repro.experiments``: it runs
the experiment harness once (pytest-benchmark measures that single run),
prints the resulting table -- the same rows the experiment module's default
run reports -- and asserts the
experiment's key findings so a regression in the reproduced claim fails the
benchmark run, not just changes a number silently.

Benchmarks use reduced trial counts / sizes compared to the experiment
modules' defaults so that ``pytest benchmarks/ --benchmark-only`` finishes in minutes
on a laptop; the experiment modules' default parameters regenerate the full
tables.
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import render_experiment
from repro.experiments.results import ExperimentResult


def run_experiment_once(benchmark, run_callable) -> ExperimentResult:
    """Run an experiment exactly once under pytest-benchmark and print it."""
    result = benchmark.pedantic(run_callable, rounds=1, iterations=1)
    print()
    print(render_experiment(result))
    return result


@pytest.fixture
def experiment_runner(benchmark):
    """Fixture exposing :func:`run_experiment_once` bound to the benchmark."""

    def runner(run_callable) -> ExperimentResult:
        return run_experiment_once(benchmark, run_callable)

    return runner
