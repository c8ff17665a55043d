"""Confidence intervals for Monte-Carlo estimates.

Every mean an experiment reports carries a Student-t confidence interval
so that "the measured growth is linear" is a statement about interval
containment rather than about two floating point numbers being close.

The Student-t quantile is computed here (:func:`_t_quantile`): the degrees
of freedom of a sample mean are always an integer, and for integer ``df``
the t distribution function is a finite series, so Newton's method on it
reaches double precision without a special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Sequence

from repro.stats.estimators import mean, standard_error

__all__ = ["ConfidenceInterval", "confidence_interval", "relative_half_width"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a mean."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    count: int

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4g} [{self.lower:.4g}, {self.upper:.4g}] "
            f"@{self.confidence:.0%} (n={self.count})"
        )


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    For singleton samples the interval degenerates to the point estimate.
    """
    if not samples:
        raise ValueError("cannot build a confidence interval from an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    estimate = mean(samples)
    if len(samples) == 1:
        return ConfidenceInterval(
            estimate=estimate,
            lower=estimate,
            upper=estimate,
            confidence=confidence,
            count=1,
        )
    sem = standard_error(samples)
    t_value = _t_quantile(0.5 + confidence / 2.0, len(samples) - 1)
    half = t_value * sem
    return ConfidenceInterval(
        estimate=estimate,
        lower=estimate - half,
        upper=estimate + half,
        confidence=confidence,
        count=len(samples),
    )


def relative_half_width(samples: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the confidence interval relative to the estimate.

    Used as a stopping criterion for adaptive trial counts ("keep sampling
    until the mean is known to within 5%").  Returns ``inf`` when the estimate
    is zero.
    """
    interval = confidence_interval(samples, confidence)
    if interval.estimate == 0:
        return float("inf")
    return interval.half_width / abs(interval.estimate)


#: From this many degrees of freedom on, the Cornish-Fisher expansion's
#: truncation error (below 1e-14 relative up to p = 0.99995) is smaller than
#: the rounding the finite series accumulates over its ``df / 2`` terms.
_CORNISH_FISHER_DF = 500


def _t_abs_cdf(t: float, df: int) -> float:
    """``P(|T| < t)`` for Student's t with integer ``df`` (odd in ``t``).

    The finite series of Hill (1970, CACM Algorithm 395).  With
    ``theta = atan(t / sqrt(df))`` and ``S`` the sum of the ``df // 2``
    terms ``c_k cos(theta)^(2k)`` (``c_0 = 1``; ``c_k / c_(k-1)`` is
    ``(2k - 1) / 2k`` for even ``df`` and ``2k / (2k + 1)`` for odd ``df``),
    it is ``sin(theta) S`` for even ``df`` and
    ``2 / pi * (theta + sin(theta) cos(theta) S)`` for odd ``df``.
    """
    t2 = t * t
    cos2 = df / (df + t2)
    odd = df % 2
    total, term = 0.0, 1.0
    for k in range(1, df // 2 + 1):
        total += term
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        root = math.sqrt(df)
        return 2.0 / math.pi * (math.atan(t / root) + t * root / (df + t2) * total)
    return t / math.sqrt(df + t2) * total


@lru_cache(maxsize=1024)
def _t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile of Student's t with integer ``df >= 1``, ``0 < p < 1``.

    ``df = 2`` has a closed form.  Large ``df`` use the Cornish-Fisher
    expansion around the normal quantile ``z`` to ``1 / df^5`` (Abramowitz
    and Stegun 26.7.5).  Otherwise Newton's method solves
    ``P(|T| < t) = 2p - 1`` starting from ``z``: ``|z|`` is below the root's
    magnitude and the distribution function is concave on that side, so the
    iterates approach the root monotonically.  Results agree with a 60-digit
    reference to within 1e-12 relative for ``p <= 0.9995``.
    """
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    z = NormalDist().inv_cdf(p)
    if df >= _CORNISH_FISHER_DF:
        x = z * z
        terms = (
            (x + 1.0) / 4.0,
            ((5.0 * x + 16.0) * x + 3.0) / 96.0,
            (((3.0 * x + 19.0) * x + 17.0) * x - 15.0) / 384.0,
            ((((79.0 * x + 776.0) * x + 1482.0) * x - 1920.0) * x - 945.0) / 92160.0,
            (((((27.0 * x + 339.0) * x + 930.0) * x - 1782.0) * x - 765.0) * x + 17955.0)
            / 368640.0,
        )
        correction = 0.0
        for term in reversed(terms):
            correction = (correction + term) / df
        return z + z * correction
    target = 2.0 * p - 1.0
    # The slope of P(|T| < t) is twice the density,
    # 2 f(0) (1 + t^2 / df)^(-(df + 1) / 2); log(2 f(0)) is computed once.
    log_peak = (
        math.log(2.0)
        + math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    t, polish = z, False
    while True:
        slope = math.exp(log_peak - (df + 1) / 2.0 * math.log1p(t * t / df))
        step = (target - _t_abs_cdf(t, df)) / slope
        t += step
        if polish:
            return t
        # Convergence is quadratic: one step after a relative step of 1e-8
        # leaves only the rounding of the series.
        polish = abs(step) <= 1e-8 * abs(t)
