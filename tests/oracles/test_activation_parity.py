"""Activation parity: object core, vector core and a per-tick reference agree.

Paper claim (Section 3): "If A is idle, then at every clock tick, with
probability 1 - (1 - A0)^d(A), A becomes active."  Three implementations of
that rule must produce the same election distribution:

* the object core (``core="object"``), which draws the idle spell's wait in
  ticks from one Geometric distribution and arms one activation timer;
* the vector core (``core="vector"``), one coin vector per activation round;
* ``harness.per_tick_reference``, one coin per node and tick.

Each row runs a fixed number of elections per implementation on disjoint,
fixed seeds and compares every pair with a two-sample Kolmogorov-Smirnov test
on messages, election time, activations and ticks at ``ALPHA`` per
comparison.  Ticks fire before same-instant deliveries in all three, so the
``ConstantDelay`` rows -- where ticks and deliveries tie -- check the tie rule
as well.  The vector core supports no clock drift, so the drift row compares
the object core with the reference only.  The seeds, trial counts and
``ALPHA`` were fixed before the first run; a failing row is a finding, not a
reason to re-seed.  ``docs/TESTING.md`` names the claim each row checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import pytest
from scipy.stats import ks_2samp

from harness.per_tick_reference import run_per_tick_election
from repro.core.analysis import recommended_a0
from repro.core.runner import run_election
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.sim.clock import RandomWalkDrift

ALPHA = 0.001
METRICS = ("messages_total", "election_time", "activations", "ticks")
#: Disjoint seed ranges, so no two samples share a random stream.
BASE_SEED = {"object": 100_000, "vector": 200_000, "reference": 300_000}
ALL_CORES = ("object", "vector", "reference")

#: E8's loosest-but-one bounds and its random-walk drift shape.
DRIFT_BOUNDS = (0.5, 2.0)


def _drift(uid: int) -> RandomWalkDrift:
    low, high = DRIFT_BOUNDS
    return RandomWalkDrift(initial_rate=(low + high) / 2.0, step=(high - low) / 10.0)


#: row id -> (n, a0 or None for recommended_a0(n), delay, trials per side,
#: implementations, drifting clocks)
ROWS: Dict[str, Tuple] = {
    "exp-16-rec": (16, None, ExponentialDelay(1.0), 300, ALL_CORES, False),
    "exp-32-rec": (32, None, ExponentialDelay(1.0), 300, ALL_CORES, False),
    "exp-32-0.05": (32, 0.05, ExponentialDelay(1.0), 300, ALL_CORES, False),
    "exp-12-0.3": (12, 0.3, ExponentialDelay(1.0), 400, ALL_CORES, False),
    "uniform-16-0.3": (16, 0.3, UniformDelay(0.0, 2.0), 300, ALL_CORES, False),
    "constant-8-0.3": (8, 0.3, ConstantDelay(1.0), 600, ALL_CORES, False),
    "constant-8-0.1": (8, 0.1, ConstantDelay(1.0), 600, ALL_CORES, False),
    "drift-32-rec": (32, None, ExponentialDelay(1.0), 200, ("object", "reference"), True),
}


def _one(core: str, row: str, seed: int) -> Dict[str, float]:
    n, a0, delay, _trials, _cores, drift = ROWS[row]
    a0 = recommended_a0(n) if a0 is None else a0
    clocks = dict(clock_bounds=DRIFT_BOUNDS, clock_drift_factory=_drift) if drift else {}
    if core == "reference":
        result = run_per_tick_election(n, a0=a0, delay=delay, seed=seed, **clocks)
    else:
        election = run_election(n, a0=a0, delay=delay, seed=seed, core=core, **clocks)
        result = {metric: getattr(election, metric) for metric in METRICS}
        result["elected"] = election.elected
    assert result["elected"], f"{core} {row} seed={seed} did not elect"
    return result


@lru_cache(maxsize=None)
def samples(core: str, row: str) -> Dict[str, List[float]]:
    """The row's metric samples for one implementation (computed once)."""
    trials = ROWS[row][3]
    runs = [_one(core, row, BASE_SEED[core] + index) for index in range(trials)]
    return {metric: [float(run[metric]) for run in runs] for metric in METRICS}


Samples = Dict[str, List[float]]


def p_values(left: Samples, right: Samples) -> Dict[str, float]:
    return {metric: float(ks_2samp(left[metric], right[metric]).pvalue) for metric in METRICS}


PAIRS = [
    (row, left, right)
    for row, spec in ROWS.items()
    for index, left in enumerate(spec[4])
    for right in spec[4][index + 1 :]
]


@pytest.mark.parametrize(
    "row,left,right", PAIRS, ids=[f"{row}-{left}-vs-{right}" for row, left, right in PAIRS]
)
def test_activation_rules_agree(row, left, right):
    pvalues = p_values(samples(left, row), samples(right, row))
    rejected = {metric: p for metric, p in pvalues.items() if p < ALPHA}
    assert not rejected, f"{row}: {left} vs {right} differ (KS p-values {pvalues})"


def test_one_tick_late_activation_is_rejected(monkeypatch):
    """The oracle has teeth: an object core that activates one tick after
    the drawn one must fail the (12, 0.3) row against the per-tick reference."""
    from repro.core.election import AbeElectionProgram

    drawn = AbeElectionProgram._draw_wait
    monkeypatch.setattr(AbeElectionProgram, "_draw_wait", lambda self: drawn(self) + 1)
    n, a0, delay, trials, _cores, _drift = ROWS["exp-12-0.3"]
    late = [
        run_election(n, a0=a0, delay=delay, seed=BASE_SEED["object"] + index)
        for index in range(trials)
    ]
    late_samples = {metric: [float(getattr(r, metric)) for r in late] for metric in METRICS}
    pvalues = p_values(late_samples, samples("reference", "exp-12-0.3"))
    assert min(pvalues.values()) < ALPHA, pvalues
