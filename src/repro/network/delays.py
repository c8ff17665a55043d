"""Message-delay distributions.

The whole point of the ABE model is a refinement of *what is known about
message delays*:

* **synchronous** networks: delay is exactly one round;
* **ABD** networks: a hard bound ``D`` on the delay is known;
* **ABE** networks: only a bound ``delta`` on the *expected* delay is known,
  individual delays may be arbitrarily large;
* **asynchronous** networks: delays are finite but nothing is known about them.

Every distribution in this module therefore reports three things about
itself: an exact or upper-bounded :meth:`~DelayDistribution.mean`, a hard
:meth:`~DelayDistribution.bound` (or ``None`` when unbounded), and whether the
mean is finite.  The model classes in :mod:`repro.models` use these to decide
whether a distribution is admissible for a given network model, mirroring the
paper's "a bound on the expected message delay is known" assumption.

All sampling goes through an explicitly passed :class:`random.Random`, so a
distribution object is stateless and can be shared across channels.
"""

from __future__ import annotations

import abc
import bisect
import math
import random
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "DelayDistribution",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "ErlangDelay",
    "ParetoDelay",
    "LogNormalDelay",
    "WeibullDelay",
    "HyperExponentialDelay",
    "MixtureDelay",
    "TruncatedDelay",
    "EmpiricalDelay",
]


class DelayDistribution(abc.ABC):
    """Abstract base class for message-delay distributions.

    Subclasses must be stateless with respect to sampling: all randomness is
    drawn from the :class:`random.Random` passed to :meth:`sample`, so the same
    distribution object can safely be shared between channels and trials.
    """

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one delay.  The result is always ``>= 0`` and finite."""

    @abc.abstractmethod
    def mean(self) -> float:
        """The expected delay.  ``math.inf`` if the expectation diverges."""

    def bound(self) -> Optional[float]:
        """A hard upper bound on the delay, or ``None`` if unbounded."""
        return None

    def is_bounded(self) -> bool:
        """Whether a hard upper bound on the delay exists (ABD admissible)."""
        return self.bound() is not None

    def has_finite_mean(self) -> bool:
        """Whether the expected delay is finite (ABE admissible)."""
        return math.isfinite(self.mean())

    def describe(self) -> str:
        """Human-readable one-line description used in experiment tables."""
        return repr(self)

    # Convenience -------------------------------------------------------------

    def sample_many(self, rng: random.Random, count: int) -> List[float]:
        """Draw ``count`` independent delays."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.sample(rng) for _ in range(count)]

    # Vectorized sampling -----------------------------------------------------
    #
    # Channels draw one delay per message through ``sample``.  Distributions
    # with a closed-form numpy sampler additionally implement ``sample_array``,
    # which the columnar election core (:mod:`repro.core.vector_core`) uses to
    # draw a whole block of delays per numpy call (a different, but still
    # seed-deterministic, stream).

    def supports_vectorized(self) -> bool:
        """Whether :meth:`sample_array` provides a numpy-vectorized sampler."""
        return False

    def sample_array(self, gen: Any, count: int):
        """Draw ``count`` delays from a :class:`numpy.random.Generator`.

        Only available when :meth:`supports_vectorized` is true; the numpy
        stream is distinct from the ``random.Random`` stream of
        :meth:`sample`, but deterministic for a deterministically seeded
        generator.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no vectorized sampler"
        )

    def empirical_mean(self, rng: random.Random, count: int = 10_000) -> float:
        """Monte-Carlo estimate of the mean (used by self-tests and examples)."""
        samples = self.sample_many(rng, count)
        return sum(samples) / len(samples) if samples else 0.0


class ConstantDelay(DelayDistribution):
    """Every message takes exactly ``value`` time units.

    This is the delay model of a synchronous network (``value = 1``) and the
    degenerate extreme of an ABD network.
    """

    def __init__(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"delay must be non-negative, got {value}")
        self.value = float(value)

    def sample(self, rng: random.Random) -> float:
        return self.value

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        import numpy as np

        return np.full(count, self.value)

    def mean(self) -> float:
        return self.value

    def bound(self) -> Optional[float]:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantDelay({self.value})"


class UniformDelay(DelayDistribution):
    """Delay uniformly distributed on ``[low, high]`` (bounded, hence ABD)."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0:
            raise ValueError("low must be non-negative")
        if high < low:
            raise ValueError("high must be >= low")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        return gen.uniform(self.low, self.high, count)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def bound(self) -> Optional[float]:
        return self.high

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class ExponentialDelay(DelayDistribution):
    """Exponentially distributed delay with the given mean.

    The canonical unbounded-but-bounded-expectation distribution: admissible
    for ABE networks, inadmissible for ABD networks.  Used as the default
    delay model throughout the experiments.
    """

    def __init__(self, mean: float = 1.0) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        return gen.exponential(self._mean, count)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self._mean})"


class ShiftedExponentialDelay(DelayDistribution):
    """A fixed propagation delay plus an exponential queueing component.

    ``delay = offset + Exp(mean=exp_mean)``.  Models a link with constant
    physical latency and random contention on top.
    """

    def __init__(self, offset: float, exp_mean: float) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if exp_mean <= 0:
            raise ValueError("exp_mean must be positive")
        self.offset = float(offset)
        self.exp_mean = float(exp_mean)

    def sample(self, rng: random.Random) -> float:
        return self.offset + rng.expovariate(1.0 / self.exp_mean)

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        return self.offset + gen.exponential(self.exp_mean, count)

    def mean(self) -> float:
        return self.offset + self.exp_mean

    def __repr__(self) -> str:
        return f"ShiftedExponentialDelay(offset={self.offset}, exp_mean={self.exp_mean})"


class ErlangDelay(DelayDistribution):
    """Erlang-``k`` delay: the sum of ``k`` iid exponential stages.

    Models a message that must traverse ``k`` store-and-forward stages, each
    with exponential service time.  Unbounded, finite mean ``k * stage_mean``.
    """

    def __init__(self, shape: int, stage_mean: float) -> None:
        if shape < 1:
            raise ValueError("shape must be >= 1")
        if stage_mean <= 0:
            raise ValueError("stage_mean must be positive")
        self.shape = int(shape)
        self.stage_mean = float(stage_mean)

    def sample(self, rng: random.Random) -> float:
        total = 0.0
        for _ in range(self.shape):
            total += rng.expovariate(1.0 / self.stage_mean)
        return total

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        return gen.gamma(self.shape, self.stage_mean, count)

    def mean(self) -> float:
        return self.shape * self.stage_mean

    def __repr__(self) -> str:
        return f"ErlangDelay(shape={self.shape}, stage_mean={self.stage_mean})"


class ParetoDelay(DelayDistribution):
    """Heavy-tailed (Pareto) delay: ``scale`` minimum, tail index ``alpha``.

    * ``alpha > 1``: the mean ``alpha * scale / (alpha - 1)`` is finite, so the
      distribution is ABE admissible despite its heavy tail.
    * ``alpha <= 1``: the mean diverges -- such a channel is *not* an ABE
      channel; the model classes reject it.  Including it lets the test suite
      demonstrate the boundary of the model.
    """

    def __init__(self, alpha: float, scale: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.alpha = float(alpha)
        self.scale = float(scale)

    def sample(self, rng: random.Random) -> float:
        # Inverse-CDF sampling: X = scale / U^{1/alpha}.
        u = rng.random()
        while u <= 0.0:  # pragma: no cover - random() is in [0, 1)
            u = rng.random()
        return self.scale / (u ** (1.0 / self.alpha))

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        # 1 - random() lies in (0, 1], avoiding the u == 0 singularity.
        u = 1.0 - gen.random(count)
        return self.scale / (u ** (1.0 / self.alpha))

    def mean(self) -> float:
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def __repr__(self) -> str:
        return f"ParetoDelay(alpha={self.alpha}, scale={self.scale})"


class LogNormalDelay(DelayDistribution):
    """Log-normally distributed delay parameterised by its (finite) mean.

    ``sigma`` controls the skew; the underlying normal's ``mu`` is solved from
    the requested mean so that distributions of different shape can be
    compared at equal expected delay (experiment E7).
    """

    def __init__(self, mean: float = 1.0, sigma: float = 1.0) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self._mean = float(mean)
        self.sigma = float(sigma)
        self.mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        return gen.lognormal(self.mu, self.sigma, count)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"LogNormalDelay(mean={self._mean}, sigma={self.sigma})"


class WeibullDelay(DelayDistribution):
    """Weibull-distributed delay (shape < 1 gives a heavy-ish tail, finite mean)."""

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0:
            raise ValueError("shape must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    def sample(self, rng: random.Random) -> float:
        return rng.weibullvariate(self.scale, self.shape)

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        return self.scale * gen.weibull(self.shape, count)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def __repr__(self) -> str:
        return f"WeibullDelay(shape={self.shape}, scale={self.scale})"


class HyperExponentialDelay(DelayDistribution):
    """Mixture of exponentials: with probability ``p_i`` draw from mean ``m_i``.

    The classic model for bimodal delays ("fast path most of the time, slow
    path occasionally"), e.g. local delivery vs cross-network routing.
    """

    def __init__(self, probabilities: Sequence[float], means: Sequence[float]) -> None:
        if len(probabilities) != len(means) or not probabilities:
            raise ValueError("probabilities and means must be equal-length, non-empty")
        if any(p < 0 for p in probabilities):
            raise ValueError("probabilities must be non-negative")
        total = sum(probabilities)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        if any(m <= 0 for m in means):
            raise ValueError("means must be positive")
        self.probabilities = [float(p) for p in probabilities]
        self.means = [float(m) for m in means]
        self._cumulative: List[float] = []
        acc = 0.0
        for p in self.probabilities:
            acc += p
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        index = min(index, len(self.means) - 1)
        return rng.expovariate(1.0 / self.means[index])

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        import numpy as np

        # One fixed-width row of uniforms per element (component choice, then
        # an inverse-CDF exponential), so the vectorized stream is independent
        # of how the caller chunks its requests.
        u = gen.random((count, 2))
        index = np.minimum(
            np.searchsorted(self._cumulative, u[:, 0], side="left"),
            len(self.means) - 1,
        )
        return -np.asarray(self.means)[index] * np.log1p(-u[:, 1])

    def mean(self) -> float:
        return sum(p * m for p, m in zip(self.probabilities, self.means))

    def __repr__(self) -> str:
        return f"HyperExponentialDelay(p={self.probabilities}, means={self.means})"


class MixtureDelay(DelayDistribution):
    """General finite mixture of arbitrary delay distributions."""

    def __init__(
        self, components: Sequence[Tuple[float, DelayDistribution]]
    ) -> None:
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = [w for w, _ in components]
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self.components: List[Tuple[float, DelayDistribution]] = [
            (w / total, dist) for w, dist in components
        ]
        self._cumulative: List[float] = []
        acc = 0.0
        for w, _ in self.components:
            acc += w
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> float:
        u = rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        index = min(index, len(self.components) - 1)
        return self.components[index][1].sample(rng)

    def supports_vectorized(self) -> bool:
        return all(dist.supports_vectorized() for _, dist in self.components)

    def sample_array(self, gen: Any, count: int):
        import numpy as np

        # Multi-pass draw (one choice pass, then one draw pass per component
        # in declaration order): deterministic per seed, but the stream
        # depends on how the caller chunks its requests.
        u = gen.random(count)
        index = np.minimum(
            np.searchsorted(self._cumulative, u, side="left"),
            len(self.components) - 1,
        )
        out = np.empty(count)
        for position, (_, dist) in enumerate(self.components):
            mask = index == position
            picked = int(mask.sum())
            if picked:
                out[mask] = dist.sample_array(gen, picked)
        return out

    def mean(self) -> float:
        total = 0.0
        for weight, dist in self.components:
            component_mean = dist.mean()
            if math.isinf(component_mean) and weight > 0:
                return math.inf
            total += weight * component_mean
        return total

    def bound(self) -> Optional[float]:
        bounds = [dist.bound() for _, dist in self.components]
        if any(b is None for b in bounds):
            return None
        return max(b for b in bounds if b is not None)

    def __repr__(self) -> str:
        inner = ", ".join(f"({w:.3g}, {d!r})" for w, d in self.components)
        return f"MixtureDelay([{inner}])"


class TruncatedDelay(DelayDistribution):
    """Rejection-truncate another distribution at a hard cap.

    Turns any unbounded ABE distribution into an ABD distribution, which is how
    the experiments construct "the closest ABD network" to a given ABE network
    when comparing the two models.

    The mean reported is an upper bound (the untruncated mean, clipped at the
    cap), which is all the ABE model requires ("a bound on the expected
    delay").
    """

    def __init__(self, inner: DelayDistribution, cap: float, max_rejects: int = 1000) -> None:
        if cap <= 0:
            raise ValueError("cap must be positive")
        if max_rejects < 1:
            raise ValueError("max_rejects must be >= 1")
        self.inner = inner
        self.cap = float(cap)
        self.max_rejects = int(max_rejects)

    def sample(self, rng: random.Random) -> float:
        for _ in range(self.max_rejects):
            value = self.inner.sample(rng)
            if value <= self.cap:
                return value
        return self.cap

    def supports_vectorized(self) -> bool:
        return self.inner.supports_vectorized()

    def sample_array(self, gen: Any, count: int):
        import numpy as np

        out = np.asarray(self.inner.sample_array(gen, count), dtype=float)
        # Per-element rejection rounds mirroring the scalar loop: every
        # element gets up to max_rejects inner draws before the cap applies.
        # The rounds make the draw multi-pass, so the vectorized stream
        # depends on how the caller chunks its requests (deterministic per
        # seed).
        for _ in range(self.max_rejects - 1):
            over = out > self.cap
            pending = int(over.sum())
            if not pending:
                return out
            out[over] = self.inner.sample_array(gen, pending)
        np.minimum(out, self.cap, out=out)
        return out

    def mean(self) -> float:
        return min(self.inner.mean(), self.cap)

    def bound(self) -> Optional[float]:
        return self.cap

    def __repr__(self) -> str:
        return f"TruncatedDelay({self.inner!r}, cap={self.cap})"


class EmpiricalDelay(DelayDistribution):
    """Resample delays from a fixed set of observed values.

    Useful for replaying measured latency traces through the simulator; the
    reported mean and bound are the sample mean and sample maximum.
    """

    def __init__(self, observations: Sequence[float]) -> None:
        values = [float(v) for v in observations]
        if not values:
            raise ValueError("observations must be non-empty")
        if any(v < 0 for v in values):
            raise ValueError("observations must be non-negative")
        self.observations = values
        self._mean = sum(values) / len(values)
        self._max = max(values)

    def sample(self, rng: random.Random) -> float:
        return rng.choice(self.observations)

    def supports_vectorized(self) -> bool:
        return True

    def sample_array(self, gen: Any, count: int):
        import numpy as np

        observations = np.asarray(self.observations)
        return observations[gen.integers(0, len(observations), count)]

    def mean(self) -> float:
        return self._mean

    def bound(self) -> Optional[float]:
        return self._max

    def __repr__(self) -> str:
        return f"EmpiricalDelay(n={len(self.observations)}, mean={self._mean:.4g})"
