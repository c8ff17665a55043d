"""Statistics toolkit for the Monte-Carlo experiments.

The paper's claims are about *expected* quantities (expected message delay,
average time and message complexity), so every experiment is a Monte-Carlo
estimation problem.  This package provides the estimation machinery the
experiment harness relies on:

* :mod:`repro.stats.estimators` -- means, variances, standard errors and
  summary statistics of samples;
* :mod:`repro.stats.confidence` -- Student-t confidence intervals and
  relative-precision stopping rules;
* :mod:`repro.stats.complexity_fit` -- the growth exponent of a mean cost:
  its weighted log-log slope on ``n`` with a 95% confidence interval (a
  linear cost reads a slope near 1; used to check the paper's "linear
  average complexity" claim and the baselines' superlinear growth);
* :mod:`repro.stats.distributions` -- empirical distribution utilities
  (ECDF, quantiles, tail masses) used by the delay-model experiments;
* :mod:`repro.stats.sequences` -- running aggregates over simulation output.
"""

from repro.stats.estimators import (
    SampleSummary,
    mean,
    sample_variance,
    standard_error,
    summarise,
)
from repro.stats.confidence import (
    ConfidenceInterval,
    confidence_interval,
    relative_half_width,
)
from repro.stats.complexity_fit import ScalingSlope, loglog_slope
from repro.stats.distributions import ecdf, empirical_quantile, tail_mass
from repro.stats.sequences import RunningMean, RunningStats

__all__ = [
    "SampleSummary",
    "mean",
    "sample_variance",
    "standard_error",
    "summarise",
    "ConfidenceInterval",
    "confidence_interval",
    "relative_half_width",
    "ScalingSlope",
    "loglog_slope",
    "ecdf",
    "empirical_quantile",
    "tail_mass",
    "RunningMean",
    "RunningStats",
]
