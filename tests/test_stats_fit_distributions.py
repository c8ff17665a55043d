"""Unit tests for the log-log growth slope and empirical distribution helpers."""

from __future__ import annotations

import math
import random

import pytest

from repro.stats.complexity_fit import loglog_slope
from repro.stats.distributions import ecdf, empirical_quantile, tail_mass


class TestLogLogSlope:
    SIZES = [1000, 4000, 10000, 40000, 100000]

    @staticmethod
    def _samples(sizes, cost, trials=5, noise=0.3, seed=11):
        rng = random.Random(seed)
        return [
            [cost(n) * rng.uniform(1.0 - noise, 1.0 + noise) for _ in range(trials)]
            for n in sizes
        ]

    def test_noisy_linear_cost_has_a_slope_ci_containing_one(self):
        fit = loglog_slope(self.SIZES, self._samples(self.SIZES, lambda n: 2.0 * n))
        assert fit.low < 1.0 < fit.high
        assert fit.high - fit.low < 0.5

    def test_quadratic_cost_has_a_slope_ci_containing_two_not_one(self):
        fit = loglog_slope(self.SIZES, self._samples(self.SIZES, lambda n: 0.5 * n * n))
        assert fit.low < 2.0 < fit.high
        assert not fit.low < 1.0 < fit.high

    def test_exact_power_law_recovers_the_exponent(self):
        # No size varies: every weight is 1 and the fit is exact.
        sizes = [8, 16, 32]
        fit = loglog_slope(sizes, [[3.0 * n**1.5] * 2 for n in sizes])
        assert fit.slope == pytest.approx(1.5)

    def test_a_size_whose_values_agree_takes_the_smallest_other_se(self):
        # Two trials each: SE 1/3 at the first two sizes, 0 at the third, so
        # all three weigh the same and the fit is ordinary least squares.
        sizes = [1000, 4000, 10000]
        fit = loglog_slope(sizes, [[2000, 1000], [4000, 8000], [20000, 20000]])
        x = [math.log(n) for n in sizes]
        y = [math.log(m) for m in (1500, 6000, 20000)]
        xm, ym = sum(x) / 3, sum(y) / 3
        ols = sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x)
        assert fit.slope == pytest.approx(ols)

    def test_scatter_beyond_the_se_widens_the_interval(self):
        # Every size has SE 0.001; the weighted SE alone is 0.001 / sqrt(Sxx),
        # and only a chi2/dof above 1 may widen it.
        sizes = [100, 200, 400, 800]
        x = [math.log(n) for n in sizes]
        xm = sum(x) / len(x)
        unscaled = 0.001 / math.sqrt(sum((a - xm) ** 2 for a in x))

        def tight(means):
            return [[m * 0.999, m * 1.001] for m in means]

        on_the_line = loglog_slope(sizes, tight([n * 2.0 for n in sizes]))
        assert on_the_line.stderr == pytest.approx(unscaled)
        zig_zag = loglog_slope(sizes, tight([100.0, 400.0, 400.0, 1600.0]))
        assert zig_zag.stderr > 10 * unscaled

    def test_three_scattered_sizes_take_the_t_quantile_at_one_dof(self):
        # The middle mean sits far off the line through the outer two, so
        # chi2/dof > 1 scales the SE, estimated from one residual: the
        # half-width is t(0.975, 1) = tan(0.475 pi) = 12.71 SEs, not 1.96.
        sizes = [1000, 4000, 10000]
        x = [math.log(n) for n in sizes]
        xm = sum(x) / len(x)
        unscaled = 0.01 / math.sqrt(sum((a - xm) ** 2 for a in x))
        fit = loglog_slope(sizes, [[990, 1010], [9900, 10100], [9900, 10100]])
        assert fit.stderr > 10 * unscaled
        t_one = math.tan(0.475 * math.pi)
        assert fit.high - fit.slope == pytest.approx(t_one * fit.stderr)
        assert fit.slope - fit.low == pytest.approx(t_one * fit.stderr)

    def test_two_sizes_take_the_normal_quantile(self):
        # Two sizes leave no residual to scale by: 1.96 SEs either side.
        fit = loglog_slope([1000, 4000], [[990, 1010], [3960, 4040]])
        assert fit.slope == pytest.approx(1.0)
        assert fit.high - fit.slope == pytest.approx(1.959964 * fit.stderr)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([8, 16], [[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError):
            loglog_slope([8, 8], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            loglog_slope([8, 16], [[1.0, 0.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            loglog_slope([8, 16], [[1.0, 2.0]])


class TestEmpiricalDistributions:
    def test_ecdf_monotone_and_ends_at_one(self):
        points = ecdf([3.0, 1.0, 2.0, 2.0])
        values = [p for _, p in points]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)
        # Ties are collapsed.
        assert len(points) == 3

    def test_quantiles(self):
        data = list(range(1, 11))  # 1..10
        assert empirical_quantile(data, 0.0) == 1
        assert empirical_quantile(data, 0.5) == 5
        assert empirical_quantile(data, 1.0) == 10

    def test_tail_mass(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert tail_mass(data, 2.5) == pytest.approx(0.5)
        assert tail_mass(data, 10.0) == 0.0

    def test_tail_mass_matches_geometric_tail(self):
        # Cross-check against the retransmission tail formula.
        from repro.network.retransmission import GeometricRetransmissionDelay, tail_probability

        rng = random.Random(8)
        dist = GeometricRetransmissionDelay(0.4)
        samples = dist.sample_many(rng, 30_000)
        assert tail_mass(samples, 3.0) == pytest.approx(tail_probability(0.4, 3), abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ecdf([])
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            tail_mass([], 1.0)
