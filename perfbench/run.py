"""Benchmark command: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is the checkout's own ``src``
tree; nothing is installed.  Each run starts fresh interpreters: a set-up
probe (``--trace 0`` only), for suite-warm the untimed cold pass that fills
its store, and the program process itself (:mod:`perfbench.session`), whose
pool workers and host-speed reference helpers are its only children.  Scratch files live under
``.perfbench/`` in the checkout and are removed on exit.

The report lists every metric with its unit and every output check; the
last stdout line is the JSON result.  The exit status is 0 only when every
output check passed.

Times are reported at the speed of a reference host, so that a shared
host's drift between runs is not read as a change of the program: a fixed
reference kernel (:class:`perfbench.measure.HostSpeed`) is timed with the
clock paused, and times are scaled by the kernel's reference time over
its measured time.  The program process samples the kernel between jobs
for ``trials_per_s`` and ``job_p50_ms``; this process samples it right
before starting each set-up, for ``setup_s``.  The report prints the raw
readings and the factors beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run as a script, this directory heads sys.path, where its module names
# could shadow the standard library; import the package from the root.
if sys.path and os.path.abspath(sys.path[0]) == HERE:
    del sys.path[0]
sys.path.insert(0, ROOT)

from perfbench.measure import REFERENCE_UNIT_S, HostSpeed  # noqa: E402
from perfbench.session import END_TO_END  # noqa: E402
from perfbench.trace import LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKERS, WORKLOADS  # noqa: E402

#: Extra fresh-interpreter set-ups per run; setup_s is the median of these
#: and the program process's own set-up.
SETUP_PROBES = 1

#: Reference units timed right before each set-up; their mean rescales
#: the median set-up.
SETUP_UNITS = 10

#: Every child must be done by then (seconds from start), inside the 180 s
#: the command is allowed.
BUDGET = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: str, mode: str, deadline: float, extra=()) -> dict:
    """Run one fresh program interpreter and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = ROOT
    t0 = time.monotonic()
    command = [
        sys.executable, "-m", "perfbench.session",
        "--workload", workload, "--seed", str(seed), "--workdir", workdir,
        "--mode", mode, "--t0", repr(t0), *extra,
    ]
    # Its own session, so a timeout can stop the pool workers with it.
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        raise
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with status {child.returncode}")
    return json.loads(lines[-1])


def sample(host: HostSpeed, units: int) -> None:
    for _ in range(units):
        host.sample()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        phases = []
        if args.workload == "suite-warm":
            phases.append(spawn(args.workload, args.seed, workdir, "fill", deadline))
        host, setups = HostSpeed(), []
        for _ in range(0 if args.trace else SETUP_PROBES):
            sample(host, SETUP_UNITS)
            setups.append(spawn(args.workload, args.seed, workdir, "probe", deadline)["setup_s"])
        sample(host, 0 if args.trace else SETUP_UNITS)
        extra = ("--seconds", str(args.seconds), "--trace", str(args.trace))
        result = spawn(args.workload, args.seed, workdir, "run", deadline, extra)
        setups.append(result["setup_s"])
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    evaluated, failed, notes = {}, {}, []
    for part in phases + [result]:
        for name, count in part["checks"]["evaluated"].items():
            evaluated[name] = evaluated.get(name, 0) + count
        for name, count in part["checks"]["failed"].items():
            failed[name] = failed.get(name, 0) + count
        notes.extend(part["checks"]["notes"])
    attempted, failures = sum(evaluated.values()), sum(failed.values())

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  workers {WORKERS}")
    print(f"  timed section: {result['cycles']} cycle(s), {result['jobs']} job(s), "
          f"{result['trials']} trial(s), {result['timed_s']:.3f} s")
    metrics = {}
    if args.trace:
        for name, unit in LAYER_METRICS:
            metrics[name] = {"value": result["metrics"][name], "unit": unit}
    else:
        values = dict(result["metrics"], setup_s=median(setups) / host.factor)
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"  times are at reference speed (reference unit {REFERENCE_UNIT_S * 1000:g} ms); "
              f"timed loop: host speed factor {result['host_factor']:.4f} from {result['host_units']} "
              "units, raw " + ", ".join(f"{name} {result['raw'][name]:.6g}"
                                        for name in ("trials_per_s", "job_p50_ms")))
        print(f"  setup_s is the median of {len(setups)} set-ups over host speed factor "
              f"{host.factor:.4f} from {len(host.samples)} units; raw "
              + ", ".join(f"{value:.4f}" for value in setups) + " s")
        print(f"  job_p99_ms {result['metrics']['job_p99_ms']:.6g} ms: p{result['tail_percentile']:g} "
              f"of {result['jobs']} job latencies (p99 needs 1000 jobs for ten beyond it)")
        parent_mb, worker_mb = result["peak_rss_parts_mb"]
        print(f"  peak_rss_mb = parent {parent_mb:.1f} + largest worker {worker_mb:.1f}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'error_rate':36s} {failures / attempted if attempted else 1.0:>16.6g} ratio"
          f"  ({failures} failed of {attempted} attempted)")
    for name in sorted(evaluated):
        bad = failed.get(name, 0)
        print(f"  check {name}: {'FAIL' if bad else 'pass'} ({evaluated[name]} evaluated, {bad} failed)")
    for note in notes:
        print(f"  note: {note}")
    correct = failures == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failures,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
