"""End-to-end experiment-suite benchmark: fixed trial counts vs adaptive stopping.

Everything earlier benchmarks measure in isolation (engine, message path)
lands here as one number: the wall clock of a reduced E1 + E3 workload run
through the *experiment harness itself*, exactly as
``scripts/run_all_experiments.py`` would run it.

Two modes are compared, both on the one election core:

``legacy``
    The fixed Monte-Carlo trial count.
``fast``
    Adaptive stopping
    (:class:`~repro.experiments.runner.AdaptiveStopping`): each sweep point
    stops as soon as its target-metric mean is known to within
    ``CI_TOLERANCE`` at 95% confidence, bounded by the same trial budget the
    legacy mode always spends.

The two modes answer the same experimental question to the documented
precision; the fast mode just stops paying once the answer is known.  The
speedup is gated at >= ``E2E_SPEEDUP_GATE`` (default 2x, the ISSUE 4
acceptance target; CI sets it lower because shared runners are noisy).

Run as pytest (``pytest benchmarks/bench_experiments_e2e.py
--benchmark-disable``, honours ``E2E_QUICK=1``) or as a script
(``python benchmarks/bench_experiments_e2e.py [--quick] [--repeats N]``),
which prints the measurement and exits non-zero below the gate -- the form CI
uses.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable like conftest does
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import e1_message_complexity, e3_activation_parameter
from repro.experiments.runner import AdaptiveStopping

#: Relative CI half-width the fast mode runs each sweep point down to.  A
#: quick-look precision ("the mean is known to within 25%"): loose enough to
#: stop well before the legacy budget, tight enough that every E1/E3 finding
#: (growth slope, trade-off direction) is stable across re-runs.
CI_TOLERANCE = 0.25

#: Reduced E1 + E3 workloads.  ``trials`` is both the legacy mode's fixed
#: count and the fast mode's budget (``max_trials``), so the comparison can
#: only win by stopping early, never by sampling a cheaper configuration.
FULL_WORKLOAD = {
    "sizes": (16, 32, 48),
    "e3_n": 32,
    "multipliers": (0.5, 1.0, 2.0),
    "trials": 40,
}
QUICK_WORKLOAD = {
    "sizes": (8, 16, 24),
    "e3_n": 16,
    "multipliers": (0.5, 1.0, 2.0),
    "trials": 32,
}

E1_SEED = 11
E3_SEED = 33


def _workload(quick: bool) -> dict:
    return QUICK_WORKLOAD if quick else FULL_WORKLOAD


def run_legacy(quick: bool = False) -> float:
    """Seconds for the reduced E1+E3 suite at its fixed trial counts."""
    w = _workload(quick)
    started = time.perf_counter()
    e1_message_complexity.run(
        sizes=w["sizes"],
        trials=w["trials"],
        base_seed=E1_SEED,
    )
    e3_activation_parameter.run(
        n=w["e3_n"],
        multipliers=w["multipliers"],
        trials=w["trials"],
        base_seed=E3_SEED,
    )
    return time.perf_counter() - started


def run_fast(quick: bool = False) -> tuple:
    """(seconds, e1_trials_executed, e3_trials_executed) under adaptive
    stopping."""
    w = _workload(quick)
    rule = AdaptiveStopping(ci_tolerance=CI_TOLERANCE, min_trials=8, batch_size=8)
    started = time.perf_counter()
    e1_result = e1_message_complexity.run(
        sizes=w["sizes"], trials=w["trials"], base_seed=E1_SEED, adaptive=rule
    )
    e3_result = e3_activation_parameter.run(
        n=w["e3_n"],
        multipliers=w["multipliers"],
        trials=w["trials"],
        base_seed=E3_SEED,
        adaptive=rule,
    )
    elapsed = time.perf_counter() - started
    return (
        elapsed,
        e1_result.parameters["trials_executed"],
        e3_result.parameters["trials_executed"],
    )


def measure(quick: bool = False, repeats: int = 3) -> dict:
    """Interleaved best-of-``repeats`` measurement of both modes."""
    legacy_runs = []
    fast_runs = []
    e1_trials = e3_trials = None
    for _ in range(repeats):
        legacy_runs.append(run_legacy(quick))
        fast_seconds, e1_trials, e3_trials = run_fast(quick)
        fast_runs.append(fast_seconds)
    legacy_seconds = min(legacy_runs)
    fast_seconds = min(fast_runs)
    w = _workload(quick)
    budget = w["trials"] * (len(w["sizes"]) + len(w["multipliers"]))
    return {
        "workload": "quick" if quick else "full",
        "e1_sizes": list(w["sizes"]),
        "e3_n": w["e3_n"],
        "e3_multipliers": list(w["multipliers"]),
        "trial_budget_per_point": w["trials"],
        "ci_tolerance": CI_TOLERANCE,
        "legacy_seconds": round(legacy_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "speedup": round(legacy_seconds / fast_seconds, 2),
        "legacy_trials_total": budget,
        "fast_trials_total": int(sum(e1_trials) + sum(e3_trials)),
        "e1_trials_executed": list(e1_trials),
        "e3_trials_executed": list(e3_trials),
    }


def _gate(quick: bool = False) -> float:
    # The full workload carries the ISSUE 4 acceptance target (2x).  The
    # quick workload is construction-dominated and has structurally less
    # headroom, so its default gate is proportionally lower; CI additionally
    # overrides via E2E_SPEEDUP_GATE because shared runners are noisy.
    default = "1.3" if quick else "2.0"
    return float(os.environ.get("E2E_SPEEDUP_GATE", default))


def _quick_from_env() -> bool:
    return os.environ.get("E2E_QUICK", "") not in ("", "0")


# ----------------------------------------------------------------- pytest API


def test_bench_adaptive_answers_match_the_fixed_budget():
    """The fast mode must answer the same question: its per-point means lie
    inside the legacy mode's 95% confidence intervals (same seeds, so the
    adaptive results are a prefix of the fixed-budget sample)."""
    w = _workload(True)
    rule = AdaptiveStopping(ci_tolerance=CI_TOLERANCE, min_trials=8, batch_size=8)
    fast = e1_message_complexity.run(
        sizes=w["sizes"], trials=w["trials"], base_seed=E1_SEED, adaptive=rule
    )
    full = e1_message_complexity.run(
        sizes=w["sizes"], trials=w["trials"], base_seed=E1_SEED
    )
    for fast_row, full_row in zip(fast.table(), full.table()):
        lower = full_row["messages_mean"] - full_row["messages_ci95"]
        upper = full_row["messages_mean"] + full_row["messages_ci95"]
        assert lower <= fast_row["messages_mean"] <= upper, (
            f"n={fast_row['n']}: adaptive mean {fast_row['messages_mean']} "
            f"outside the fixed-budget CI [{lower}, {upper}]"
        )


def test_bench_experiments_e2e_throughput(benchmark):
    quick = _quick_from_env()
    result = benchmark.pedantic(lambda: run_fast(quick)[0], rounds=1, iterations=1)
    print(f"\nexperiments e2e (fast mode): {result:.2f}s")
    assert result > 0


def test_bench_experiments_e2e_speedup():
    quick = _quick_from_env()
    gate = _gate(quick)
    report = measure(quick=quick, repeats=3)
    print(
        f"\nexperiments e2e: legacy {report['legacy_seconds']}s, "
        f"fast {report['fast_seconds']}s -> {report['speedup']}x (gate {gate}x); "
        f"trials {report['legacy_trials_total']} -> {report['fast_trials_total']}"
    )
    assert report["speedup"] >= gate, (
        f"experiment suite end-to-end speedup regressed: {report['speedup']}x "
        f"(must stay >= {gate}x)"
    )


# ----------------------------------------------------------------- script API


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    args = parser.parse_args()
    report = measure(quick=args.quick, repeats=args.repeats)
    for key, value in report.items():
        print(f"{key}: {value}")
    gate = _gate(args.quick)
    if report["speedup"] < gate:
        print(f"FAIL: speedup {report['speedup']}x below the {gate}x gate")
        return 1
    print(f"OK: speedup {report['speedup']}x >= {gate}x gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
