"""Synthetic load traces.

Stand-ins for the production request traces the original evaluation used.
A trace maps simulated time to an offered request rate (requests/second).
All stochastic traces draw from named RNG streams so experiments are
deterministic given the experiment seed.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

import numpy as np

#: Resolution (s) of a pre-simulated :class:`OUTrace` path.
OU_STEP = 10.0

_TWO_PI = 2 * math.pi


def require_finite(**params: float) -> None:
    """Raise ``ValueError`` naming the first parameter that is NaN or
    infinite.

    A range check such as ``base < 0`` is False for NaN, so without this
    a NaN parameter passes it and surfaces mid-run, if at all.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class LoadTrace(Protocol):
    """Offered load as a function of time.

    ``rate`` answers one instant (a model tick, a thinning bound's grid
    point); ``rates`` answers a whole array of them (thinning candidates)
    and must equal ``rate`` elementwise, bit for bit, so both paths see
    the same curve. ``rates`` returns a new array that the caller owns:
    never its input, and never one it hands out again, because arrival
    thinning scales the result in place.
    """

    def rate(self, t: float) -> float:
        """Request rate (req/s) at time ``t``; never negative."""
        ...

    def rates(self, ts: np.ndarray) -> np.ndarray:
        """``[rate(t) for t in ts]`` for a 1-D float array, bitwise, as a
        new array."""
        ...


def _elementwise(rate, ts: np.ndarray) -> np.ndarray:
    """``rate`` mapped over ``ts``: for exp-based curves, where ``np.exp``
    may differ from ``math.exp`` by an ulp."""
    return np.fromiter(map(rate, ts.tolist()), dtype=float, count=len(ts))


class ConstantTrace:
    """Fixed request rate."""

    def __init__(self, value: float):
        require_finite(value=value)
        if value < 0:
            raise ValueError("rate must be non-negative")
        self.value = float(value)

    def rate(self, t: float) -> float:
        return self.value

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), self.value)


class StepTrace:
    """Piecewise-constant rate defined by ``(start_time, rate)`` steps.

    Before the first step the rate is 0. Steps must be sorted by time.
    """

    def __init__(self, steps: Sequence[tuple[float, float]]):
        times = [s[0] for s in steps]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("step times must be finite")
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("steps must be sorted by time")
        if any(not math.isfinite(r) or r < 0 for _t, r in steps):
            raise ValueError("rates must be non-negative")
        self.steps = list(steps)
        self._times = [float(t) for t in times]
        # _table[bisect_right(_times, t)]: the rate before the first step,
        # then one per step. Duplicate step times: the last one wins,
        # matching the linear scan this replaced.
        self._table = [0.0] + [float(r) for _t, r in steps]
        self._times_arr = np.array(self._times, dtype=float)
        self._table_arr = np.array(self._table, dtype=float)

    def rate(self, t: float) -> float:
        return self._table[bisect.bisect_right(self._times, t)]

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return self._table_arr[np.searchsorted(self._times_arr, ts, side="right")]


class RampTrace:
    """Linear ramp from ``start_rate`` to ``end_rate`` over a window."""

    def __init__(
        self, start_time: float, end_time: float, start_rate: float, end_rate: float
    ):
        require_finite(
            start_time=start_time,
            end_time=end_time,
            start_rate=start_rate,
            end_rate=end_rate,
        )
        if end_time <= start_time:
            raise ValueError("end_time must be after start_time")
        self.start_time = start_time
        self.end_time = end_time
        self.start_rate = float(start_rate)
        self.end_rate = float(end_rate)

    def rate(self, t: float) -> float:
        if t <= self.start_time:
            return self.start_rate
        if t >= self.end_time:
            return self.end_rate
        frac = (t - self.start_time) / (self.end_time - self.start_time)
        return self.start_rate + frac * (self.end_rate - self.start_rate)

    def rates(self, ts: np.ndarray) -> np.ndarray:
        frac = (ts - self.start_time) / (self.end_time - self.start_time)
        out = self.start_rate + frac * (self.end_rate - self.start_rate)
        out = np.where(ts <= self.start_time, self.start_rate, out)
        return np.where(ts >= self.end_time, self.end_rate, out)


class DiurnalTrace:
    """Sinusoidal day/night pattern.

    ``rate(t) = base + amplitude * sin(2π (t - phase) / period)``, clipped
    at zero. Default period is 24 simulated hours.
    """

    def __init__(
        self,
        base: float,
        amplitude: float,
        *,
        period: float = 86_400.0,
        phase: float = 0.0,
    ):
        require_finite(base=base, amplitude=amplitude, period=period, phase=phase)
        if base < 0 or amplitude < 0 or period <= 0:
            raise ValueError("base/amplitude must be ≥ 0 and period > 0")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def rate(self, t: float) -> float:
        value = self.base + self.amplitude * math.sin(
            _TWO_PI * (t - self.phase) / self.period
        )
        # max(0.0, value), which returns 0.0 for a tie and for NaN.
        return value if value > 0.0 else 0.0

    def rates(self, ts: np.ndarray) -> np.ndarray:
        # ``rate``'s operations in its order, in one buffer; np.sin
        # matches libm's sin.
        out = ts - self.phase
        out *= _TWO_PI
        out /= self.period
        np.sin(out, out=out)
        out *= self.amplitude
        out += self.base
        return np.maximum(out, 0.0, out=out)


class FlashCrowdTrace:
    """A sudden spike: fast exponential rise, slower exponential decay.

    Models flash-crowd events (news link, sale start) layered on zero
    baseline; combine with :class:`CompositeTrace` for a realistic mix.
    """

    def __init__(
        self,
        start_time: float,
        peak_rate: float,
        *,
        rise: float = 30.0,
        decay: float = 600.0,
    ):
        require_finite(
            start_time=start_time, peak_rate=peak_rate, rise=rise, decay=decay
        )
        if peak_rate < 0 or rise <= 0 or decay <= 0:
            raise ValueError("peak_rate ≥ 0 and rise/decay > 0 required")
        self.start_time = start_time
        self.peak_rate = float(peak_rate)
        self.rise = float(rise)
        self.decay = float(decay)

    def rate(self, t: float) -> float:
        if t < self.start_time:
            return 0.0
        dt = t - self.start_time
        return self.peak_rate * (1 - math.exp(-dt / self.rise)) * math.exp(
            -dt / self.decay
        )

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return _elementwise(self.rate, ts)


class BurstyTrace:
    """Base rate with random bursts.

    Bursts arrive as a Poisson process (``burst_rate`` per second), each
    multiplying load by ``burst_factor`` for ``burst_duration`` seconds.
    Burst times are pre-drawn over ``horizon`` so rate() is a pure function
    of time.
    """

    def __init__(
        self,
        base: float,
        *,
        burst_factor: float = 3.0,
        burst_rate: float = 1 / 1800.0,
        burst_duration: float = 120.0,
        horizon: float = 86_400.0,
        rng: np.random.Generator,
    ):
        require_finite(
            base=base,
            burst_factor=burst_factor,
            burst_rate=burst_rate,
            burst_duration=burst_duration,
            horizon=horizon,
        )
        if base < 0 or burst_factor < 1 or burst_rate <= 0 or burst_duration <= 0:
            raise ValueError("invalid burst parameters")
        self.base = float(base)
        self.burst_factor = float(burst_factor)
        self.burst_duration = float(burst_duration)
        expected = max(1, int(burst_rate * horizon * 3))
        gaps = rng.exponential(1 / burst_rate, size=expected)
        times = np.cumsum(gaps)
        self.burst_times: list[float] = [float(t) for t in times if t < horizon]
        # Every burst lasts as long, so the latest start at or before t
        # decides: t is in a burst iff t < _ends[bisect_right(starts, t)].
        self._ends = [-math.inf] + [s + self.burst_duration for s in self.burst_times]
        self._starts_arr = np.array(self.burst_times, dtype=float)
        self._ends_arr = np.array(self._ends, dtype=float)

    def rate(self, t: float) -> float:
        in_burst = t < self._ends[bisect.bisect_right(self.burst_times, t)]
        return self.base * (self.burst_factor if in_burst else 1.0)

    def rates(self, ts: np.ndarray) -> np.ndarray:
        ends = self._ends_arr[np.searchsorted(self._starts_arr, ts, side="right")]
        return self.base * np.where(ts < ends, self.burst_factor, 1.0)


class NoisyTrace:
    """Multiplicative lognormal noise over another trace.

    Noise is drawn per fixed-width time bucket at construction, so the
    trace stays a deterministic function of time.
    """

    def __init__(
        self,
        base: LoadTrace,
        *,
        rel_std: float = 0.1,
        bucket: float = 60.0,
        horizon: float = 86_400.0,
        rng: np.random.Generator,
    ):
        require_finite(rel_std=rel_std, bucket=bucket, horizon=horizon)
        if rel_std < 0 or bucket <= 0 or horizon <= 0:
            raise ValueError("invalid noise parameters")
        self.base = base
        self.bucket = float(bucket)
        n = int(math.ceil(horizon / bucket)) + 1
        sigma = math.sqrt(math.log(1 + rel_std**2))
        self._noise = rng.lognormal(mean=-sigma**2 / 2, sigma=sigma, size=n)
        # Padded with the factor 1.0 that holds outside the horizon.
        self._noise_padded = np.concatenate(([1.0], self._noise, [1.0]))

    def rate(self, t: float) -> float:
        idx = int(t // self.bucket)
        noise = self._noise[idx] if 0 <= idx < len(self._noise) else 1.0
        return max(0.0, self.base.rate(t) * float(noise))

    def rates(self, ts: np.ndarray) -> np.ndarray:
        # np.floor_divide rounds exactly as Python's float ``//``.
        idx = np.clip(np.floor_divide(ts, self.bucket), -1, len(self._noise))
        noise = self._noise_padded[idx.astype(np.intp) + 1]
        return np.maximum(self.base.rates(ts) * noise, 0.0)


class CompositeTrace:
    """Sum of component traces."""

    def __init__(self, components: Sequence[LoadTrace]):
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)

    # Both sum left to right: Python 3.12's sum() compensates, which
    # numpy's elementwise add cannot reproduce.
    def rate(self, t: float) -> float:
        total = 0.0
        for c in self.components:
            total += c.rate(t)
        return total

    def rates(self, ts: np.ndarray) -> np.ndarray:
        total = np.zeros(len(ts))
        for c in self.components:
            total += c.rates(ts)
        return total


class ScaledTrace:
    """A trace multiplied by a constant factor."""

    def __init__(self, base: LoadTrace, factor: float):
        require_finite(factor=factor)
        if factor < 0:
            raise ValueError("factor must be non-negative")
        self.base = base
        self.factor = float(factor)

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.factor

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return self.base.rates(ts) * self.factor


class OUTrace:
    """Mean-reverting (Ornstein–Uhlenbeck) load.

    Real request traces are autocorrelated: load drifts rather than
    jumping independently per interval. The OU process gives exactly
    that — a mean level, a relaxation time, and a volatility — and is the
    standard synthetic stand-in when production traces are unavailable.

    The path is pre-simulated at :data:`OU_STEP` resolution over
    ``horizon`` so ``rate()`` stays a pure function of time.

    Parameters
    ----------
    mean:
        Long-run request rate the process reverts to.
    relaxation:
        Time constant (s) of mean reversion; larger = slower drift.
    volatility:
        Instantaneous standard deviation of the noise (req/s per √s).
    """

    def __init__(
        self,
        mean: float,
        *,
        relaxation: float = 600.0,
        volatility: float = 2.0,
        horizon: float = 86_400.0,
        rng: np.random.Generator,
    ):
        require_finite(
            mean=mean, relaxation=relaxation, volatility=volatility, horizon=horizon
        )
        if mean < 0 or relaxation <= 0 or volatility < 0:
            raise ValueError("invalid OU parameters")
        self.mean = float(mean)
        step = OU_STEP
        n = int(math.ceil(horizon / step)) + 1
        theta = 1.0 / relaxation
        path = np.empty(n)
        path[0] = mean
        noise = rng.normal(size=n - 1)
        sqrt_dt = math.sqrt(step)
        for i in range(1, n):
            drift = theta * (mean - path[i - 1]) * step
            path[i] = path[i - 1] + drift + volatility * sqrt_dt * noise[i - 1]
        self._path = np.maximum(path, 0.0)

    def rate(self, t: float) -> float:
        idx = int(t // OU_STEP)
        if idx < 0:
            return self._path[0]
        if idx >= len(self._path):
            return float(self._path[-1])
        return float(self._path[idx])

    def rates(self, ts: np.ndarray) -> np.ndarray:
        idx = np.clip(np.floor_divide(ts, OU_STEP), 0, len(self._path) - 1)
        return self._path[idx.astype(np.intp)]


class ReplayTrace:
    """Replay a recorded trace of ``(time, rate)`` samples.

    The substitute for production traces: export request rates from any
    monitoring system as rows and replay them with step interpolation.
    Times must be sorted; before the first sample the first rate holds,
    after the last the last rate holds. ``time_scale`` stretches the
    recording (e.g. replay a day in an hour) and ``rate_scale`` rescales
    amplitude to the simulated service's capacity range.
    """

    def __init__(
        self,
        samples: Sequence[tuple[float, float]],
        *,
        time_scale: float = 1.0,
        rate_scale: float = 1.0,
    ):
        if not samples:
            raise ValueError("need at least one sample")
        times = [s[0] for s in samples]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("sample times must be finite")
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("samples must be sorted by time")
        if any(not math.isfinite(r) or r < 0 for _t, r in samples):
            raise ValueError("rates must be non-negative")
        if time_scale <= 0 or rate_scale < 0:
            raise ValueError("invalid scales")
        self._times = [t * time_scale for t in times]
        rates = [r * rate_scale for _t, r in samples]
        # _table[bisect_right(_times, t)]: the first rate holds before the
        # first sample.
        self._table = rates[:1] + rates
        self._times_arr = np.array(self._times, dtype=float)
        self._table_arr = np.array(self._table, dtype=float)

    def rate(self, t: float) -> float:
        return self._table[bisect.bisect_right(self._times, t)]

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return self._table_arr[np.searchsorted(self._times_arr, ts, side="right")]
