"""Unit tests for estimators, confidence intervals and running aggregates."""

from __future__ import annotations

import math
import random
import statistics

import pytest

from repro.stats.confidence import _t_quantile, confidence_interval, relative_half_width
from repro.stats.estimators import (
    mean,
    sample_variance,
    standard_error,
    summarise,
)
from repro.stats.sequences import RunningMean, RunningStats


class TestEstimators:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_sample_variance_matches_statistics_module(self):
        data = [1.5, 2.7, 3.1, 0.4, 5.9]
        assert sample_variance(data) == pytest.approx(statistics.variance(data))

    def test_singleton_variance_is_zero(self):
        assert sample_variance([4.2]) == 0.0

    def test_standard_error(self):
        data = [2.0, 4.0, 6.0, 8.0]
        assert standard_error(data) == pytest.approx(
            math.sqrt(statistics.variance(data) / 4)
        )

    def test_summarise_fields(self):
        data = [1.0, 2.0, 3.0, 4.0]
        summary = summarise(data)
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.std == pytest.approx(math.sqrt(summary.variance))
        assert summary.sem == pytest.approx(summary.std / 2.0)
        assert "mean=2.5" in str(summary)

    def test_summarise_empty_raises(self):
        with pytest.raises(ValueError):
            summarise([])


class TestConfidenceIntervals:
    def test_interval_contains_true_mean_for_gaussian_samples(self):
        rng = random.Random(5)
        misses = 0
        for _ in range(50):
            data = [rng.gauss(10.0, 2.0) for _ in range(40)]
            interval = confidence_interval(data, confidence=0.95)
            if not interval.contains(10.0):
                misses += 1
        # 95% interval: expect about 2.5 misses in 50; allow generous slack.
        assert misses <= 8

    def test_interval_is_symmetric_around_estimate(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        interval = confidence_interval(data)
        assert interval.estimate - interval.lower == pytest.approx(
            interval.upper - interval.estimate
        )
        assert interval.half_width > 0

    def test_singleton_degenerates_to_point(self):
        interval = confidence_interval([3.5])
        assert interval.lower == interval.upper == interval.estimate == 3.5

    def test_higher_confidence_wider_interval(self):
        rng = random.Random(1)
        data = [rng.gauss(0, 1) for _ in range(30)]
        narrow = confidence_interval(data, confidence=0.90)
        wide = confidence_interval(data, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_more_samples_narrower_interval(self):
        rng = random.Random(2)
        small = confidence_interval([rng.gauss(0, 1) for _ in range(10)])
        large = confidence_interval([rng.gauss(0, 1) for _ in range(1000)])
        assert large.half_width < small.half_width

    def test_relative_half_width(self):
        data = [10.0, 10.5, 9.5, 10.2, 9.8]
        rel = relative_half_width(data)
        assert 0 < rel < 0.1

    def test_relative_half_width_zero_mean_is_infinite(self):
        assert relative_half_width([0.0, 0.0, 0.0]) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([])
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)

    def test_str_rendering(self):
        text = str(confidence_interval([1.0, 2.0, 3.0]))
        assert "95%" in text


#: Confidence levels of the columns of :data:`T_QUANTILES`.
T_CONFIDENCES = (0.80, 0.90, 0.95, 0.99, 0.999)

#: ``scipy.stats.t.ppf(0.5 + confidence / 2, df)`` from scipy 1.17.1, recorded
#: once (scipy is not imported here: the runtime computes its own quantile).
T_QUANTILES = {
    1: (3.0776835371752544, 6.313751514675037, 12.706204736174694,
        63.656741162871526, 636.6192487687897),
    2: (1.8856180831641272, 2.9199855803537242, 4.302652729749462,
        9.924843200918287, 31.599054576445365),
    3: (1.637744353696209, 2.3533634348018233, 3.1824463052837078,
        5.840909309733355, 12.923978636687961),
    4: (1.533206274058944, 2.1318467863266495, 2.7764451051977934,
        4.604094871349992, 8.610301581379522),
    5: (1.4758840488244815, 2.0150483733330233, 2.5705818356363146,
        4.032142983555228, 6.868826625881276),
    6: (1.4397557472651483, 1.9431802805153042, 2.4469118511449786,
        3.7074280213248065, 5.95881617881889),
    7: (1.4149239276505086, 1.8945786050900062, 2.364624251592784,
        3.4994832973504924, 5.407882520861828),
    8: (1.3968153097438654, 1.8595480375308973, 2.306004135204166,
        3.355387331333395, 5.041305433373456),
    9: (1.3830287383966329, 1.833112932656237, 2.262157162798205,
        3.249835541592126, 4.780912585931217),
    10: (1.372183641110336, 1.8124611228116756, 2.228138851986274,
         3.16927267261695, 4.586893858702708),
    11: (1.3634303180205407, 1.7958848187040433, 2.200985160091639,
         3.1058065155392804, 4.436979338234516),
    12: (1.356217334023205, 1.782287555649319, 2.1788128296672284,
         3.0545395893929013, 4.3177912836062475),
    13: (1.3501712887800552, 1.7709333959868725, 2.1603686564627913,
         3.012275838716578, 4.22083172770718),
    14: (1.345030374454651, 1.761310135774891, 2.144786687917804,
         2.9768427343708344, 4.140454112738259),
    15: (1.3406056078504558, 1.753050355692572, 2.131449545559776,
         2.946712883475238, 4.072765195903846),
    16: (1.3367571673273153, 1.7458836762762495, 2.1199052992212546,
         2.9207816224251, 4.014996327184108),
    17: (1.3333793897216268, 1.7396067260750725, 2.1098155778333156,
         2.8982305196774183, 3.965126272119082),
    18: (1.3303909435699093, 1.7340636066175388, 2.1009220402410382,
         2.8784404727386077, 3.9216458250852084),
    19: (1.3277282090267986, 1.7291328115213682, 2.0930240544083087,
         2.8609346064649794, 3.883405852592131),
    20: (1.3253407069850465, 1.7247182429207866, 2.085963447265864,
         2.8453397097861077, 3.8495162749308744),
    21: (1.3231878738651728, 1.720742902811878, 2.0796138447276795,
         2.83135955802305, 3.8192771642745096),
    22: (1.321236741613362, 1.7171443743802424, 2.0738730679040254,
         2.8187560606001423, 3.792130671698437),
    23: (1.3194602398161621, 1.713871527747048, 2.0686576104190486,
         2.807335683769999, 3.7676268043118246),
    24: (1.3178359336731498, 1.710882079909428, 2.0638985616280245,
         2.796939504774456, 3.745398619290096),
    25: (1.31634507267387, 1.7081407612518986, 2.0595385527532972,
         2.78743581367697, 3.725143949728693),
    26: (1.3149718642705175, 1.7056179197592727, 2.0555294386428735,
         2.778714533329683, 3.7066117434809525),
    27: (1.3137029128292737, 1.7032884457221265, 2.0518305164802846,
         2.770682957122211, 3.6895917134592784),
    28: (1.3125267815926664, 1.7011309342659313, 2.0484071417952454,
         2.763262455461444, 3.6739064007013176),
    29: (1.311433647301551, 1.6991270265334972, 2.045229642132703,
         2.756385903670605, 3.6594050194663748),
    30: (1.3104150253913955, 1.697260886593957, 2.0422724563012378,
         2.7499956535672254, 3.6459586350420627),
    40: (1.3030770526071949, 1.683851013335652, 2.021075390306273,
         2.7044592674331622, 3.550965760863349),
    60: (1.295821093515731, 1.6706488649046363, 2.0002978220142604,
         2.6602830288550368, 3.460200469196392),
    120: (1.288646233656378, 1.6576508993552352, 1.9799304050824402,
          2.6174211451068654, 3.373453768562533),
    1000: (1.2823987214609247, 1.6463788172854643, 1.9623390808264083,
           2.580754698065951, 3.300282648423944),
    10000: (1.2816362297304775, 1.645006018069243, 1.960201239890626,
            2.5763210466685282, 3.2914999659416355),
}


class TestStudentTQuantile:
    @pytest.mark.parametrize("df", sorted(T_QUANTILES))
    def test_matches_the_recorded_scipy_quantiles(self, df):
        for confidence, expected in zip(T_CONFIDENCES, T_QUANTILES[df]):
            computed = _t_quantile(0.5 + confidence / 2.0, df)
            assert computed == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_two_degrees_of_freedom_match_scipy_bit_for_bit(self):
        # The goldens of the three-trial experiments (E2, E3) pin these bits.
        for confidence, expected in zip(T_CONFIDENCES, T_QUANTILES[2]):
            if confidence in (0.90, 0.95, 0.99):
                assert _t_quantile(0.5 + confidence / 2.0, 2) == expected

    def test_three_degrees_of_freedom_are_correctly_rounded(self):
        # 3.18244630528370856... (mpmath, 60 digits); scipy 1.17.1 returns
        # 3.1824463052837078, two ulp lower.  test_e1_run_golden pins it.
        assert _t_quantile(0.975, 3) == 3.1824463052837086

    def test_increases_with_confidence(self):
        levels = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999)
        for df in (1, 2, 3, 4, 7, 30, 120, 499, 500, 1000, 10**4):
            values = [_t_quantile(0.5 + level / 2.0, df) for level in levels]
            assert all(a < b for a, b in zip(values, values[1:])), df

    def test_decreases_with_df_toward_the_normal_quantile(self):
        dfs = list(range(1, 41)) + [60, 120, 499, 500, 1000, 10**4, 10**6]
        for confidence in (0.5, 0.8, 0.95, 0.999, 0.9999):
            p = 0.5 + confidence / 2.0
            values = [_t_quantile(p, df) for df in dfs]
            assert all(a > b for a, b in zip(values, values[1:])), confidence
            normal = statistics.NormalDist().inv_cdf(p)
            assert normal < values[-1] < normal * (1 + 1e-5)

    def test_median_and_lower_quantiles(self):
        assert _t_quantile(0.5, 5) == 0.0
        for df in (1, 2, 3, 9, 600):
            assert _t_quantile(0.025, df) == pytest.approx(-_t_quantile(0.975, df), rel=1e-14)

    def test_confidence_interval_uses_the_quantile(self):
        data = [1.0, 2.0, 4.0, 8.0]
        interval = confidence_interval(data, confidence=0.95)
        sem = standard_error(data)
        assert interval.half_width == pytest.approx(3.1824463052837086 * sem, rel=1e-15)


class TestRunningAggregates:
    def test_running_mean_matches_batch_mean(self):
        data = [random.Random(3).uniform(0, 10) for _ in range(500)]
        running = RunningMean()
        for value in data:
            running.add(value)
        assert running.mean == pytest.approx(mean(data))
        assert running.count == 500

    def test_running_stats_match_batch_statistics(self):
        data = [random.Random(4).gauss(5, 2) for _ in range(500)]
        running = RunningStats()
        for value in data:
            running.add(value)
        assert running.mean == pytest.approx(mean(data))
        assert running.variance == pytest.approx(sample_variance(data), rel=1e-9)
        assert running.minimum == min(data)
        assert running.maximum == max(data)

    def test_running_stats_few_samples(self):
        stats = RunningStats()
        assert stats.variance == 0.0
        stats.add(1.0)
        assert stats.variance == 0.0
        assert stats.std == 0.0

    def test_empty_running_mean_is_zero(self):
        assert RunningMean().mean == 0.0
