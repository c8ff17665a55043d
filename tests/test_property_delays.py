"""Property-based tests (hypothesis) for delay distributions and model admission.

These check the structural invariants the rest of the library leans on:
samples are always non-negative and finite, declared means/bounds are
consistent with sampling, and the ABD -> ABE -> asynchronous admission
hierarchy holds for arbitrarily parameterised distributions.
"""

from __future__ import annotations

import math
import random
import statistics

from hypothesis import example, given, settings, strategies as st

from repro.models import ABDModel, ABEModel, AsynchronousModel, classify_delay
from repro.network.delays import (
    ConstantDelay,
    ErlangDelay,
    ExponentialDelay,
    LogNormalDelay,
    ParetoDelay,
    TruncatedDelay,
    UniformDelay,
    WeibullDelay,
)
from repro.network.retransmission import GeometricRetransmissionDelay
from repro.network.routing import DynamicRoutingDelay


positive_means = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def bounded_delays() -> st.SearchStrategy:
    constants = positive_means.map(ConstantDelay)
    uniforms = st.tuples(
        st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0)
    ).map(lambda pair: UniformDelay(min(pair), min(pair) + abs(pair[1] - pair[0]) + 1e-6))
    truncated = st.tuples(positive_means, st.floats(min_value=0.5, max_value=20.0)).map(
        lambda pair: TruncatedDelay(ExponentialDelay(pair[0]), cap=pair[1])
    )
    return st.one_of(constants, uniforms, truncated)


def unbounded_finite_mean_delays() -> st.SearchStrategy:
    exponentials = positive_means.map(ExponentialDelay)
    erlangs = st.tuples(st.integers(1, 5), positive_means).map(
        lambda pair: ErlangDelay(pair[0], pair[1])
    )
    paretos = st.tuples(
        st.floats(min_value=1.2, max_value=5.0), st.floats(min_value=0.1, max_value=5.0)
    ).map(lambda pair: ParetoDelay(alpha=pair[0], scale=pair[1]))
    lognormals = st.tuples(positive_means, st.floats(min_value=0.2, max_value=2.0)).map(
        lambda pair: LogNormalDelay(mean=pair[0], sigma=pair[1])
    )
    weibulls = st.tuples(
        st.floats(min_value=0.4, max_value=3.0), st.floats(min_value=0.1, max_value=5.0)
    ).map(lambda pair: WeibullDelay(shape=pair[0], scale=pair[1]))
    retransmissions = st.tuples(
        st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.1, max_value=3.0)
    ).map(lambda pair: GeometricRetransmissionDelay(pair[0], pair[1]))
    routings = st.tuples(
        st.integers(1, 5), st.floats(min_value=0.0, max_value=0.8), positive_means
    ).map(lambda triple: DynamicRoutingDelay(triple[0], triple[1], per_hop_mean=triple[2]))
    return st.one_of(
        exponentials, erlangs, paretos, lognormals, weibulls, retransmissions, routings
    )


any_delay = st.one_of(bounded_delays(), unbounded_finite_mean_delays())


@given(delay=any_delay, seed=seeds)
@settings(max_examples=150, deadline=None)
def test_samples_are_nonnegative_and_finite(delay, seed):
    rng = random.Random(seed)
    for _ in range(20):
        value = delay.sample(rng)
        assert value >= 0.0
        assert math.isfinite(value)


@given(delay=bounded_delays(), seed=seeds)
@settings(max_examples=100, deadline=None)
def test_bounded_delays_never_exceed_their_bound(delay, seed):
    rng = random.Random(seed)
    bound = delay.bound()
    assert bound is not None
    for _ in range(50):
        assert delay.sample(rng) <= bound + 1e-9


@given(delay=any_delay)
@settings(max_examples=150, deadline=None)
def test_declared_bound_implies_finite_mean(delay):
    # Hard bound => finite expectation (the ABD -> ABE inclusion at the level
    # of individual channels).
    if delay.is_bounded():
        assert delay.has_finite_mean()
        assert delay.mean() <= delay.bound() + 1e-9


@given(delay=any_delay)
@settings(max_examples=150, deadline=None)
def test_model_admission_hierarchy(delay):
    abe = ABEModel(expected_delay_bound=delay.mean() if delay.has_finite_mean() else 1.0)
    asynchronous = AsynchronousModel()
    if delay.is_bounded():
        abd = ABDModel(delay_bound=delay.bound())
        assert abd.admits_delay(delay)
        # Every ABD-admissible channel is admissible for the derived ABE model.
        assert abd.as_abe().admits_delay(delay)
    if delay.has_finite_mean():
        assert abe.admits_delay(delay)
    assert asynchronous.admits_delay(delay)


@given(delay=any_delay)
@settings(max_examples=150, deadline=None)
def test_classification_is_consistent_with_properties(delay):
    label = classify_delay(delay)
    if label == "synchronous":
        assert delay.is_bounded()
    if label == "abd":
        assert delay.is_bounded()
    if label == "abe":
        assert not delay.is_bounded() and delay.has_finite_mean()
    if label == "asynchronous":
        assert not delay.has_finite_mean()


@given(delay=unbounded_finite_mean_delays(), seed=seeds)
@example(delay=ParetoDelay(alpha=1.21875, scale=1.0), seed=703)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_sample_mean_is_in_the_right_ballpark(delay, seed):
    # A loose two-sided check (heavy-tailed distributions converge slowly):
    # the sample mean of 4000 draws lies within a factor 3 of the declared
    # mean.  This catches parameterisation mistakes by an order of magnitude
    # without being flaky.
    rng = random.Random(seed)
    count = 4000
    draws = [delay.sample(rng) for _ in range(count)]
    if isinstance(delay, ParetoDelay) and delay.alpha <= 2.0:
        # Infinite variance: no bound on the sample mean holds with useful
        # probability (the pinned example's mean reads 17.5 against 5.6).
        # Check the closed-form CDF at the sample median instead; by the DKW
        # inequality it leaves [0.45, 0.55] with probability about 4e-9.
        median = statistics.median(draws)
        cdf = 1.0 - (delay.scale / median) ** delay.alpha
        assert 0.45 <= cdf <= 0.55
        return
    empirical = sum(draws) / count
    declared = delay.mean()
    assert empirical < declared * 3.0
    assert empirical > declared / 3.0
