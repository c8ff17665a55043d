"""Property-based tests (hypothesis) for the statistics toolkit."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.stats.confidence import confidence_interval
from repro.stats.distributions import ecdf, empirical_quantile, tail_mass
from repro.stats.estimators import mean, sample_variance, summarise
from repro.stats.sequences import RunningStats

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=200)
nonempty_positive = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)


@given(data=samples)
@settings(max_examples=200, deadline=None)
def test_mean_lies_between_min_and_max(data):
    m = mean(data)
    assert min(data) - 1e-9 <= m <= max(data) + 1e-9


@given(data=samples)
@settings(max_examples=200, deadline=None)
def test_variance_is_nonnegative_and_zero_for_constant_samples(data):
    assert sample_variance(data) >= 0.0
    constant = [data[0]] * len(data)
    assert sample_variance(constant) <= 1e-6 * max(1.0, data[0] * data[0])


@given(data=samples)
@settings(max_examples=200, deadline=None)
def test_running_stats_agree_with_batch(data):
    running = RunningStats()
    for value in data:
        running.add(value)
    assert math.isclose(running.mean, mean(data), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        running.variance, sample_variance(data), rel_tol=1e-6, abs_tol=1e-6
    )
    assert running.minimum == min(data)
    assert running.maximum == max(data)


@given(data=st.lists(finite_floats, min_size=2, max_size=100))
@settings(max_examples=200, deadline=None)
def test_confidence_interval_brackets_the_estimate(data):
    interval = confidence_interval(data)
    assert interval.lower <= interval.estimate <= interval.upper
    assert interval.contains(interval.estimate)
    summary = summarise(data)
    assert math.isclose(interval.estimate, summary.mean, rel_tol=1e-12, abs_tol=1e-9)


@given(data=nonempty_positive, threshold=st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_tail_mass_is_a_probability_and_monotone(data, threshold):
    value = tail_mass(data, threshold)
    assert 0.0 <= value <= 1.0
    # Raising the threshold can only shrink the tail.
    assert tail_mass(data, threshold + 1.0) <= value + 1e-12


@given(data=nonempty_positive)
@settings(max_examples=200, deadline=None)
def test_ecdf_is_monotone_and_reaches_one(data):
    points = ecdf(data)
    probabilities = [p for _, p in points]
    values = [v for v, _ in points]
    assert values == sorted(values)
    assert all(b >= a for a, b in zip(probabilities, probabilities[1:]))
    assert math.isclose(probabilities[-1], 1.0)


@given(data=nonempty_positive, q=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_quantiles_are_order_statistics(data, q):
    value = empirical_quantile(data, q)
    assert value in data
    assert empirical_quantile(data, 0.0) == min(data)
    assert empirical_quantile(data, 1.0) == max(data)
