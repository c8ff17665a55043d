"""Local clocks with bounded drift.

Definition 1(2) of the ABE model requires that known bounds
``0 < s_low <= s_high`` on the speed of local clocks exist: for every node *A*
and real times ``t1 < t2``

    s_low * (t2 - t1)  <=  C_A(t2) - C_A(t1)  <=  s_high * (t2 - t1).

This module models such clocks.  A :class:`LocalClock` maps *real* (simulator)
time to *local* time through a piecewise-linear, strictly increasing function
whose slopes are produced by a :class:`ClockDriftModel` and always clamped to
``[s_low, s_high]``.  The clock can also answer the inverse question -- how
much real time corresponds to a local duration -- which the election algorithm
needs in order to schedule its next local clock tick.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "ClockDriftModel",
    "ConstantRateDrift",
    "RandomWalkDrift",
    "SinusoidalDrift",
    "LocalClock",
    "ClockBoundsViolation",
]


class ClockBoundsViolation(ValueError):
    """Raised when a drift model produces a rate outside ``[s_low, s_high]``.

    In normal operation this never happens because :class:`LocalClock` clamps
    rates; the exception exists for the strict-validation mode used in tests.
    """


class ClockDriftModel(abc.ABC):
    """Strategy producing the clock rate for each successive local segment.

    A drift model is queried once per *segment* (a stretch of real time during
    which the rate is constant).  Models must be deterministic given their
    constructor arguments and the :class:`random.Random` they are handed.
    """

    @abc.abstractmethod
    def next_rate(self, segment_index: int, rng: random.Random) -> float:
        """Return the clock rate for segment ``segment_index`` (0-based)."""

    def segment_length(self, segment_index: int, rng: random.Random) -> float:
        """Real-time length of segment ``segment_index``.

        The default of ``1.0`` re-samples the rate once per real time unit;
        subclasses may override for slower or faster drift dynamics.
        """
        return 1.0


class ConstantRateDrift(ClockDriftModel):
    """A clock that runs at a fixed rate forever (possibly != 1)."""

    def __init__(self, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError(f"clock rate must be positive, got {rate}")
        self.rate = float(rate)

    def next_rate(self, segment_index: int, rng: random.Random) -> float:
        return self.rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstantRateDrift(rate={self.rate})"


class RandomWalkDrift(ClockDriftModel):
    """Rate performs a bounded random walk: ``r_{k+1} = r_k + U(-step, step)``.

    The walk models slowly varying oscillator frequency (temperature drift in
    sensor-node crystals).  Rates are clamped to ``[low, high]`` by the clock.
    """

    def __init__(self, initial_rate: float = 1.0, step: float = 0.05) -> None:
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        if step < 0:
            raise ValueError("step must be non-negative")
        self.initial_rate = float(initial_rate)
        self.step = float(step)
        self._current: Optional[float] = None

    def next_rate(self, segment_index: int, rng: random.Random) -> float:
        if segment_index == 0 or self._current is None:
            self._current = self.initial_rate
        else:
            self._current += rng.uniform(-self.step, self.step)
        return self._current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomWalkDrift(initial={self.initial_rate}, step={self.step})"


class SinusoidalDrift(ClockDriftModel):
    """Rate oscillates sinusoidally around a mean (periodic environmental drift)."""

    def __init__(
        self, mean_rate: float = 1.0, amplitude: float = 0.1, period: float = 50.0
    ) -> None:
        if mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if period <= 0:
            raise ValueError("period must be positive")
        self.mean_rate = float(mean_rate)
        self.amplitude = float(amplitude)
        self.period = float(period)

    def next_rate(self, segment_index: int, rng: random.Random) -> float:
        phase = 2.0 * math.pi * segment_index / self.period
        return self.mean_rate + self.amplitude * math.sin(phase)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SinusoidalDrift(mean={self.mean_rate}, amplitude={self.amplitude}, "
            f"period={self.period})"
        )


@dataclass
class _Segment:
    """One piece of the piecewise-linear real->local time map."""

    real_start: float
    real_end: float
    local_start: float
    rate: float

    @property
    def local_end(self) -> float:
        return self.local_start + self.rate * (self.real_end - self.real_start)

    def local_at(self, real_time: float) -> float:
        return self.local_start + self.rate * (real_time - self.real_start)


class LocalClock:
    """A drifting local clock whose rate always lies in ``[s_low, s_high]``.

    Parameters
    ----------
    s_low, s_high:
        The known bounds on the clock speed (Definition 1(2)).  Must satisfy
        ``0 < s_low <= s_high``.
    drift_model:
        Strategy producing raw rates (clamped into the bounds); defaults to a
        perfect clock (rate 1 if ``s_low <= 1 <= s_high``, otherwise the
        midpoint of the admissible interval).
    rng:
        Random stream driving the drift model.  Without one the clock seeds
        ``random.Random(0)`` when it maps its first segment; an identity clock
        (the default: rate 1 from time 0) maps none, so it never seeds one.
    start_real, start_local:
        Initial real and local times; both default to 0.

    Notes
    -----
    Segments are generated lazily and cached, so reading the clock at a real
    time far in the future is O(elapsed segments) the first time and O(log k)
    afterwards (binary search over cached segments).
    """

    def __init__(
        self,
        s_low: float = 1.0,
        s_high: float = 1.0,
        drift_model: Optional[ClockDriftModel] = None,
        rng: Optional[random.Random] = None,
        start_real: float = 0.0,
        start_local: float = 0.0,
    ) -> None:
        if s_low <= 0:
            raise ValueError(f"s_low must be positive, got {s_low}")
        if s_high < s_low:
            raise ValueError(f"s_high ({s_high}) must be >= s_low ({s_low})")
        self.s_low = float(s_low)
        self.s_high = float(s_high)
        if drift_model is None:
            default_rate = 1.0 if s_low <= 1.0 <= s_high else (s_low + s_high) / 2.0
            drift_model = ConstantRateDrift(default_rate)
        self.drift_model = drift_model
        self._rng: Optional[random.Random] = rng
        self._segments: List[_Segment] = []
        self._start_real = float(start_real)
        self._start_local = float(start_local)
        self._segment_index = 0
        # Identity fast path: a drift-free clock at rate exactly 1 starting at
        # (0, 0) maps real time to local time by the identity, *bit for bit*:
        # its segments are [k, k+1) with integer endpoints (sums of 1.0 are
        # exact), ``t - k`` is exact by Sterbenz's lemma for t in [k, k+1),
        # and ``k + (t - k)`` therefore rounds back to t.  The segment walk --
        # one segment per real time unit, plus a binary search per read --
        # dominated the election tick path, so the default configuration
        # (every experiment runs drift-free clocks) skips it entirely.  Rates
        # != 1, drifting models, clamping and non-zero starts keep the full
        # piecewise map.
        self._identity = (
            type(drift_model) is ConstantRateDrift
            and drift_model.rate == 1.0
            and self.s_low <= 1.0 <= self.s_high
            and self._start_real == 0.0
            and self._start_local == 0.0
        )

    # ------------------------------------------------------------ internals

    def _clamp(self, rate: float) -> float:
        return min(self.s_high, max(self.s_low, rate))

    def _extend_to(self, real_time: float) -> None:
        """Generate segments until the map covers ``real_time``."""
        if not self._segments:
            if self._rng is None:
                self._rng = random.Random(0)
            rate = self._clamp(self.drift_model.next_rate(0, self._rng))
            length = self.drift_model.segment_length(0, self._rng)
            self._segments.append(
                _Segment(
                    real_start=self._start_real,
                    real_end=self._start_real + length,
                    local_start=self._start_local,
                    rate=rate,
                )
            )
            self._segment_index = 1
        while self._segments[-1].real_end < real_time:
            last = self._segments[-1]
            rate = self._clamp(
                self.drift_model.next_rate(self._segment_index, self._rng)
            )
            length = self.drift_model.segment_length(self._segment_index, self._rng)
            self._segments.append(
                _Segment(
                    real_start=last.real_end,
                    real_end=last.real_end + length,
                    local_start=last.local_end,
                    rate=rate,
                )
            )
            self._segment_index += 1

    def _segment_for_real(self, real_time: float) -> _Segment:
        self._extend_to(real_time)
        lo, hi = 0, len(self._segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            seg = self._segments[mid]
            if real_time < seg.real_start:
                hi = mid - 1
            elif real_time >= seg.real_end and mid < len(self._segments) - 1:
                lo = mid + 1
            else:
                return seg
        return self._segments[lo]

    # ----------------------------------------------------------------- reads

    def local_time(self, real_time: float) -> float:
        """Local clock reading ``C_A(real_time)``."""
        if real_time < self._start_real:
            raise ValueError(
                f"real_time {real_time} precedes the clock start {self._start_real}"
            )
        if self._identity:
            return real_time
        return self._segment_for_real(real_time).local_at(real_time)

    def elapsed_local(self, real_t1: float, real_t2: float) -> float:
        """Local time elapsed between two real times (``C(t2) - C(t1)``)."""
        if real_t2 < real_t1:
            raise ValueError("real_t2 must not precede real_t1")
        return self.local_time(real_t2) - self.local_time(real_t1)

    def real_time_for_local(self, local_time: float) -> float:
        """Inverse map: the real time at which the local clock reads ``local_time``."""
        if local_time < self._start_local:
            raise ValueError(
                f"local_time {local_time} precedes the clock start {self._start_local}"
            )
        if self._identity:
            return local_time
        # Extend until the cached map covers the requested local time.  Each
        # segment advances local time by at least s_low * length, so this
        # terminates.
        self._extend_to(self._start_real)
        while self._segments[-1].local_end < local_time:
            self._extend_to(self._segments[-1].real_end + 1.0)
        lo, hi = 0, len(self._segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            seg = self._segments[mid]
            if local_time < seg.local_start:
                hi = mid - 1
            elif local_time > seg.local_end and mid < len(self._segments) - 1:
                lo = mid + 1
            else:
                return seg.real_start + (local_time - seg.local_start) / seg.rate
        seg = self._segments[lo]
        return seg.real_start + (local_time - seg.local_start) / seg.rate

    def reach(self, now: float, local_time: float) -> Tuple[float, bool]:
        """When the clock reads ``local_time`` (a reading after ``now``), lazily.

        Returns ``(instant, True)`` with the exact real time once the mapped
        segments cover ``local_time``.  Otherwise returns ``(instant, False)``
        with a wake-up instant strictly after ``now``: the later of the
        earliest instant the reading can be reached (``gap / s_high`` from
        now) and the end of the mapped horizon.  The map is never extended
        more than one segment past ``now``, so a caller that re-asks at each
        wake-up generates segments only as simulated time reaches them.
        Identity clocks answer exactly at once.
        """
        if self._identity:
            return local_time, True
        self._extend_to(math.nextafter(now, math.inf))
        last = self._segments[-1]
        if local_time <= last.local_end:
            return max(now, self.real_time_for_local(local_time)), True
        gap = local_time - self.local_time(now)
        return max(now + gap / self.s_high, last.real_end), False

    def real_duration_for_local(self, from_real: float, local_duration: float) -> float:
        """Real time needed, starting at ``from_real``, for the local clock to
        advance by ``local_duration``."""
        if local_duration < 0:
            raise ValueError("local_duration must be non-negative")
        if self._identity:
            # Exactly what the segment walk computes for the identity map --
            # including the float rounding of the round trip, which is why
            # this is written as two operations and not ``local_duration``.
            return (from_real + local_duration) - from_real
        target_local = self.local_time(from_real) + local_duration
        return self.real_time_for_local(target_local) - from_real

    # --------------------------------------------------------------- checks

    def verify_bounds(self, real_t1: float, real_t2: float) -> None:
        """Assert Definition 1(2) over ``[real_t1, real_t2]``.

        Raises :class:`ClockBoundsViolation` if the elapsed local time falls
        outside ``[s_low * dt, s_high * dt]`` (up to a small numerical slack).
        """
        if real_t2 <= real_t1:
            return
        dt = real_t2 - real_t1
        dc = self.elapsed_local(real_t1, real_t2)
        slack = 1e-9 * max(1.0, dt)
        if dc < self.s_low * dt - slack or dc > self.s_high * dt + slack:
            raise ClockBoundsViolation(
                f"clock advanced {dc} local units over {dt} real units; "
                f"bounds are [{self.s_low * dt}, {self.s_high * dt}]"
            )

    def rate_bounds(self) -> Tuple[float, float]:
        """Return ``(s_low, s_high)``."""
        return (self.s_low, self.s_high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalClock(s_low={self.s_low}, s_high={self.s_high}, "
            f"drift={self.drift_model!r})"
        )
