"""Experiment harness: regenerating the paper's quantitative claims.

The brief announcement contains no numbered tables or figures; its evaluation
is a set of stated claims (linear average complexity, the ``1/p``
retransmission expectation, the Theorem 1 synchronisation bound, comparability
with the classical baselines).  Each claim maps to one experiment module
here and one benchmark under ``benchmarks/``:

========  ==================================================================
E1        Average message complexity of the ABE election is linear in ``n``
E2        Average time complexity of the ABE election is linear in ``n``
E3        The activation parameter ``A0`` trades messages against time
E4        Lossy-channel retransmission: expected transmissions ``= 1/p``
E5        Theorem 1: correct synchronizers use >= n messages/round; the ABD
          synchronizer undercuts the bound but is unsound on ABE delays
E6        Comparison with Itai-Rodeh / Chang-Roberts / DKR / Franklin
E7        Complexity depends on the delay *mean*, not the delay family
E8        Robustness to clock drift within the (s_low, s_high) bounds
E9        Stabilization of the churn-aware election under leader churn
A1        Ablation: adaptive vs constant activation schedule
A2        Ablation: purging at active nodes vs forwarding
========  ==================================================================

Every module exposes ``run(...) -> ExperimentResult`` with conservative
defaults (full-size sweeps) and accepts smaller parameters for quick runs; the
benchmarks call them with reduced trial counts so the whole suite stays
laptop-friendly.  Results and their rendering (``ExperimentResult``,
``ResultTable``, ``render_experiment``) live in :mod:`repro.report`.
"""

from repro.experiments.runner import AdaptiveStopping, monte_carlo, trial_seeds
from repro.experiments.parallel import SweepPool
from repro.experiments.resilience import ExecutionPolicy, TrialFailure
from repro.store.fingerprint import spec_fingerprint
from repro.experiments import (
    e1_message_complexity,
    e2_time_complexity,
    e3_activation_parameter,
    e4_retransmission,
    e5_synchronizer_lower_bound,
    e6_baseline_comparison,
    e7_delay_robustness,
    e8_clock_drift,
    e9_churn_stabilization,
    a1_schedule_ablation,
    a2_purge_ablation,
)

ALL_EXPERIMENTS = {
    "e1": e1_message_complexity,
    "e2": e2_time_complexity,
    "e3": e3_activation_parameter,
    "e4": e4_retransmission,
    "e5": e5_synchronizer_lower_bound,
    "e6": e6_baseline_comparison,
    "e7": e7_delay_robustness,
    "e8": e8_clock_drift,
    "e9": e9_churn_stabilization,
    "a1": a1_schedule_ablation,
    "a2": a2_purge_ablation,
}

__all__ = [
    "AdaptiveStopping",
    "monte_carlo",
    "trial_seeds",
    "SweepPool",
    "ExecutionPolicy",
    "TrialFailure",
    "spec_fingerprint",
    "ALL_EXPERIMENTS",
]
