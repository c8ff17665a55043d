"""Order-of-growth estimation.

The central quantitative claim of the paper is that the ABE election algorithm
has *average linear* time and message complexity, while asynchronous ring
election is Omega(n log n) and the classical baselines are Theta(n log n).

:func:`loglog_slope` estimates the growth exponent itself, with a confidence
interval, from every trial's value at every size (a weighted regression of
log mean cost on log n), so a linear cost reads a slope near 1 however the
sample path falls.  A verdict is a statement about that interval: it holds 1
(linear), or it lies above the slope ``n log n`` shows over the same sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from repro.stats.confidence import _t_quantile

__all__ = ["ScalingSlope", "loglog_slope"]

#: Two-sided 95% normal quantile, for a fit over two sizes (no residual).
_Z_975 = NormalDist().inv_cdf(0.975)


@dataclass(frozen=True)
class ScalingSlope:
    """The growth exponent of a mean cost: ``log(mean) ~ a + slope * log(n)``.

    ``low`` and ``high`` bound its 95% confidence interval.
    """

    slope: float
    stderr: float
    low: float
    high: float


def loglog_slope(sizes: Sequence[int], samples: Sequence[Sequence[float]]) -> ScalingSlope:
    """Weighted log-log regression of the mean cost on ``n``, with a 95% CI.

    ``samples[i]`` holds every value measured at ``sizes[i]`` (at least two
    each, all positive).  Each size is weighted by ``1 / SE**2`` of its log
    mean, ``SE = sd / (mean * sqrt(k))`` over its ``k`` values; a size whose
    values all agree takes the smallest positive SE of the others (every
    weight is 1 when no size varies).  When the weighted residuals scatter
    more than those SEs allow, ``sqrt(chi2 / dof) > 1`` with
    ``dof = len(sizes) - 2``, the slope's SE is multiplied by that factor.
    That scale is estimated from ``dof`` residuals, so the half-width is the
    Student-t 97.5% quantile at ``dof`` times the SE (12.71 at three sizes);
    two sizes leave no residual and take the normal 1.96.  The per-size SEs
    come from each size's own few values, so the interval is approximate.
    """
    if len(sizes) != len(samples) or len(set(sizes)) < 2:
        raise ValueError("need one sample per size and at least two distinct sizes")
    means, relative_se = [], []
    for values in samples:
        v = np.asarray(values, dtype=float)
        if v.size < 2 or np.any(v <= 0):
            raise ValueError("every size needs at least two positive values")
        mean = float(v.mean())
        means.append(mean)
        relative_se.append(v.std(ddof=1) / (mean * math.sqrt(v.size)))
    se = np.array(relative_se)
    varying = se[se > 0]
    se[se == 0] = varying.min() if varying.size else 1.0
    weights = 1.0 / se**2
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.array(means))
    dx = x - np.dot(weights, x) / weights.sum()
    dy = y - np.dot(weights, y) / weights.sum()
    sxx = float(np.dot(weights, dx * dx))
    slope = float(np.dot(weights, dx * dy)) / sxx
    stderr = 1.0 / math.sqrt(sxx)
    dof = len(sizes) - 2
    quantile = _Z_975
    if dof > 0:
        chi2 = float(np.dot(weights, (dy - slope * dx) ** 2))
        stderr *= max(1.0, math.sqrt(chi2 / dof))
        quantile = _t_quantile(0.975, dof)
    half = quantile * stderr
    return ScalingSlope(slope, stderr, slope - half, slope + half)
