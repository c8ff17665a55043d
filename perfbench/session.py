"""The program process of one benchmark run.

``python -m perfbench.session --workload W --seed N --workdir DIR --t0 T
--mode run|probe|fill [--seconds S] [--trace 0|1]`` from the repository root.
``T`` is ``time.monotonic()`` taken by the caller just before it started
this interpreter, so set-up time includes interpreter start.  The last
stdout line is one JSON object.

* ``probe`` -- set up (imports, input generation and parse, store open) and
  exit; reports ``setup_s``.
* ``fill`` -- suite-warm only: the untimed cold pass that fills the store.
* ``run`` -- set up, one untimed warm-up job, then either the timed closed
  loop (``--trace 0``: end-to-end metrics) or alternating untraced and
  traced cycles of the same jobs (``--trace 1``: per-layer metrics).

The timed loop samples the host-speed reference between jobs
(:class:`~perfbench.measure.HostSpeed`) and reports its times at the
reference host's speed, beside the raw clock readings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median
from typing import Any, Dict, Optional, Tuple

from perfbench.measure import HostSpeed, highest_tail_percentile, nearest_rank, peak_rss_mb
from perfbench.trace import Tracer, layer_metrics
from perfbench.workloads import (
    POOLED,
    WORKERS,
    WORKLOADS,
    Checks,
    Inputs,
    Program,
    Runner,
    fill_warm_store,
    generate,
    parse,
)

#: End-to-end metrics of an untraced run (``BENCHMARK.json``'s ``end_to_end``);
#: ``trials_per_s`` and ``job_p50_ms`` are at the reference host's speed.
END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Cycles in one traced comparison; a suite-warm cycle is only 11 short jobs.
TRACE_CYCLES = {"suite-warm": 20}

#: Wall-clock cap on the timed loop, inside the command's 180 s budget.
WALL_LIMIT = 110.0


def set_up(src: str, workload: str, seed: int, workdir: str) -> Tuple[Program, Inputs, float]:
    """Imports, input generation and parse, store open: ready for job one.

    Returns the program, its inputs and the ``time.monotonic()`` at which
    the imports were done."""
    program = Program(src)
    imported = time.monotonic()
    inputs = generate(program, workload, seed)
    for _, text in [job for cycle in inputs.cycles for job in cycle] + [inputs.warmup]:
        parse(program, workload, text)
    store_path = os.path.join(workdir, "warm", "store.sqlite")
    if workload != "suite-warm" or not os.path.exists(store_path):
        store_path = os.path.join(workdir, "probe.sqlite")
    os.makedirs(os.path.dirname(store_path), exist_ok=True)
    program.ResultStore(store_path).close()
    return program, inputs, imported


def run_workload(
    program: Program,
    inputs: Inputs,
    workdir: str,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """Warm-up, then the timed loop or the traced comparison.

    Returns the metrics (end-to-end or per-layer) and the check verdicts;
    a traced run also returns both runs' job outputs.
    """
    checks = Checks()
    workload = inputs.workload
    if not trace:
        with HostSpeed(WORKERS if workload in POOLED else 1) as host:
            runner = Runner(program, inputs, workdir, checks, host=host)
            runner.warmup()
            runner.run_for(seconds, WALL_LIMIT)
            # Memory is read before the reference helpers are reaped: a
            # helper's ru_maxrss starts from this process's peak.
            return {
                "metrics": end_to_end_metrics(runner),
                "raw": end_to_end_metrics(runner, 1.0),
                "host_factor": host.factor,
                "host_units": len(host.samples),
                "jobs": len(runner.latencies),
                "trials": runner.trials,
                "timed_s": runner.clock.elapsed,
                "cycles": len(runner.cycle_rates),
                "checks": checks,
                "peak_rss_parts_mb": peak_rss_mb(),
            }
    runner = Runner(program, inputs, workdir, checks)
    runner.warmup()
    # Untraced and traced cycles alternate, so both see the same machine.
    cycles = TRACE_CYCLES.get(workload, 1)
    tracer = Tracer(os.path.join(workdir, "spans"))
    traced_runner = Runner(program, inputs, workdir, checks, tracer)
    for _ in range(cycles):
        runner.run_cycles(1)
        with tracer.installed():
            traced_runner.run_cycles(1)
    untraced, traced = runner.clock.elapsed, traced_runner.clock.elapsed
    for name, text in runner.outputs.items():
        checks.record("trace-outputs-identical", traced_runner.outputs.get(name) == text,
                      f"{name}: traced outputs differ from untraced")
    metrics = layer_metrics(tracer.collect(), os.getpid(), traced, import_s,
                            traced / untraced if untraced else 0.0)
    return {
        "metrics": metrics,
        "jobs": len(traced_runner.latencies),
        "trials": traced_runner.trials,
        "timed_s": traced,
        "cycles": cycles,
        "untraced_s": untraced,
        "checks": checks,
        "outputs": traced_runner.outputs,
        "untraced_outputs": runner.outputs,
        "peak_rss_parts_mb": peak_rss_mb(),
    }


def end_to_end_metrics(runner: Runner, factor: Optional[float] = None) -> Dict[str, float]:
    """Throughput, job latencies and peak memory of the timed loop, with
    times rescaled to the reference host's speed by ``factor`` (by default
    the run's :attr:`HostSpeed.factor`; 1.0 gives the raw clock readings).

    ``trials_per_s`` is the median over cycles of each cycle's trials per
    clock second, so one cycle slowed by a noisy neighbour does not move it.
    ``job_p99_ms`` is the latency at :func:`tail_percentile`; it is printed
    but not among :data:`END_TO_END`: on the 2-vCPU VM the benchmark was
    built on, hypervisor stalls set the tail of 1000 suite-warm jobs and
    ten seeds spread it by half its median, twice the largest bound a
    metric may have.
    """
    if factor is None:
        factor = runner.host.factor
    latencies = [value * 1000.0 / factor for value in runner.latencies]
    percentile = tail_percentile(len(latencies))
    parent, worker = peak_rss_mb()
    return {
        "trials_per_s": median(runner.cycle_rates) * factor,
        "job_p50_ms": median(latencies),
        "job_p99_ms": median(latencies) if percentile == 50 else nearest_rank(latencies, percentile),
        "peak_rss_mb": parent + worker,
    }


def tail_percentile(jobs: int) -> float:
    """The percentile ``job_p99_ms`` reports: p99 when at least ten of
    ``jobs`` lie beyond it, else the highest
    percentile that has ten beyond it, and the median below 20 jobs.  The
    slowest of a handful of jobs is no tail estimate: it would only measure
    the noisiest moment of the run."""
    return min(99.0, highest_tail_percentile(jobs) or 50.0)


def _verdicts(checks: Checks) -> Dict[str, Any]:
    return {"evaluated": checks.evaluated, "failed": checks.failed, "notes": checks.notes}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.session")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "probe", "fill"), default="run")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    program, inputs, imported = set_up(src, args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    import_s = imported - args.t0
    out: Dict[str, Any] = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "fill":
        out["checks"] = _verdicts(fill_warm_store(program, inputs, args.workdir))
    elif args.mode == "run":
        result = run_workload(program, inputs, args.workdir, args.seconds, bool(args.trace), import_s)
        out.update({key: result[key] for key in ("metrics", "jobs", "trials", "timed_s", "cycles",
                                                 "peak_rss_parts_mb")})
        for key in ("raw", "host_factor", "host_units"):
            if key in result:
                out[key] = result[key]
        out["checks"] = _verdicts(result["checks"])
        out["tail_percentile"] = tail_percentile(result["jobs"])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
