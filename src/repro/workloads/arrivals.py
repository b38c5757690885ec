"""Open-loop arrival processes and correlated load surges.

:mod:`repro.workloads.traces` models *offered rate* as a function of
time; this module models the **arrival process** itself — the discrete,
randomly-timed request stream a web-scale service actually sees. The
distinction matters for realism: an open-loop process keeps arriving
regardless of how the service performs (no accidental back-pressure
from the load model), and its short-window statistics (burstiness,
inter-arrival variability, heavy-tailed request sizes) are what make
autoscalers earn their keep.

The pieces compose:

* :class:`PoissonArrivals` — a non-homogeneous Poisson process (NHPP)
  driven by any :class:`~repro.workloads.traces.LoadTrace` via Lewis &
  Shedler thinning.
* :class:`MMPPArrivals` — a Markov-modulated Poisson process: a hidden
  continuous-time Markov chain multiplies the driving trace's rate by a
  per-state factor, producing the over-dispersed (CV > 1) arrival
  streams real front-ends exhibit.
* :class:`ParetoSizes` — heavy-tailed request-size marks;
  :class:`MarkedArrivals` staples them onto any arrival process.
* :class:`CorrelatedSurge` — a coordinator that couples surge windows
  across *many* apps: one shared, seeded surge schedule, per-app lags
  and factors, so a "front page links everything" event hits the whole
  fleet at once.

Every stochastic object takes an explicit numpy ``Generator``. Use the
platform registry's named streams (``workload/<app>/arrivals``,
``workload/<app>/sizes``, ``workload/surge``) so experiments stay
deterministic under one seed — see docs/workloads.md for the naming
scheme.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

import numpy as np

from repro.workloads.traces import LoadTrace, require_finite

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "SizeDistribution",
    "ParetoSizes",
    "MarkedArrivals",
    "CorrelatedSurge",
    "trace_integral",
]

#: Mean seconds an MMPP state holds before the chain jumps.
MEAN_DWELL = 60.0


def trace_integral(
    trace: LoadTrace, t0: float, t1: float, *, step: float = 1.0
) -> float:
    """Numerically integrate ``trace.rate`` over ``[t0, t1)``.

    Left-Riemann at ``step`` resolution — exact for the piecewise-
    constant traces (Step/Replay) when ``step`` divides their segment
    boundaries, and the reference the statistical-validation tests
    compare empirical arrival counts against.
    """
    if t1 <= t0:
        return 0.0
    n = int(math.ceil((t1 - t0) / step))
    total = 0.0
    for i in range(n):
        a = t0 + i * step
        b = min(t0 + (i + 1) * step, t1)
        total += trace.rate(a) * (b - a)
    return total


class ArrivalProcess(Protocol):
    """Open-loop request arrivals.

    ``window(t0, t1)`` returns the sorted event times in ``[t0, t1)``.
    Simulation consumers call it with contiguous, non-overlapping
    windows (one per model tick); statistical consumers may ask for one
    large window. Either way the draw sequence is a pure function of
    the generator's seed and the sequence of windows requested.
    """

    def window(self, t0: float, t1: float) -> np.ndarray: ...


#: Safety factor on a window's grid-scanned peak rate when
#: :class:`PoissonArrivals` estimates its thinning bound.
BOUND_MARGIN = 1.25

#: Grid points of a :class:`PoissonArrivals` window's bound scan.
BOUND_SAMPLES = 9
#: Grid points of an :class:`MMPPArrivals` window's bound scan.
MMPP_BOUND_SAMPLES = 17


def _grid_peak(trace: LoadTrace, t0: float, t1: float, samples: int) -> float:
    """``max(trace.rates(np.linspace(t0, t1, samples)))`` for ``t1 > t0``
    and ``samples ≥ 2``.

    At 9 or 17 points numpy's fixed cost per call outweighs the
    arithmetic, so the scan calls ``trace.rate`` (bitwise equal to
    ``rates``) at the points ``linspace`` computes: ``i * step + t0``,
    and ``t1`` itself last. Rates are never NaN (trace parameters are
    finite), so a running maximum equals ``np.max``.
    """
    last = samples - 1
    step = (t1 - t0) / last
    if step == 0.0:
        # A subnormal width, where linspace scales by the width instead.
        return float(np.max(trace.rates(np.linspace(t0, t1, samples))))
    rate = trace.rate
    peak = rate(t1)
    for i in range(last):
        value = rate(i * step + t0)
        if value > peak:
            peak = value
    return peak


def _thin(rng: np.random.Generator, rates, t0: float, t1: float, bound: float):
    """Lewis & Shedler thinning of ``[t0, t1)`` against ``bound > 0``.

    Draws, in this order, the candidate count, the candidate times (sorted
    before anything else is drawn) and one acceptance draw per candidate;
    ``rates(times)`` gives the rate at each candidate as a new array.
    ``rng.random(n)`` yields the doubles ``rng.uniform(0.0, 1.0, n)``
    yields, from the same stream.
    """
    n = int(rng.poisson(bound * (t1 - t0)))
    if n == 0:
        return np.empty(0)
    times = rng.uniform(t0, t1, n)
    times.sort()
    accept = rng.random(n)
    accept *= bound
    # accept ≥ 0, so a negative rate rejects like a zero one.
    return times[accept < rates(times)]


class PoissonArrivals:
    """Non-homogeneous Poisson arrivals driven by a :class:`LoadTrace`.

    Thinning: candidates arrive homogeneously at an upper bound
    ``rate_bound`` and are accepted with probability
    ``rate(t) / rate_bound``. When ``rate_bound`` is ``None`` the bound
    is estimated per window from a :data:`BOUND_SAMPLES`-point grid scan
    times :data:`BOUND_MARGIN` — exact for traces whose within-window
    peak the grid sees (constant, monotone, or slowly-varying over a
    tick); pass an explicit bound for spiky traces. The grid scan calls
    ``trace.rate`` per point; the candidates are evaluated in one
    ``trace.rates`` call.

    Parameters
    ----------
    trace:
        Driving rate function (req/s).
    rng:
        Named numpy generator (``workload/<app>/arrivals``).
    rate_bound:
        Known global upper bound on the rate, or ``None`` to estimate
        per window.
    """

    def __init__(
        self,
        trace: LoadTrace,
        rng: np.random.Generator,
        *,
        rate_bound: float | None = None,
    ):
        if rate_bound is not None:
            require_finite(rate_bound=rate_bound)
            if rate_bound <= 0:
                raise ValueError("rate_bound must be positive")
        self.trace = trace
        self.rng = rng
        self.rate_bound = rate_bound

    def _bound(self, t0: float, t1: float) -> float:
        if self.rate_bound is not None:
            return self.rate_bound
        return _grid_peak(self.trace, t0, t1, BOUND_SAMPLES) * BOUND_MARGIN

    def window(self, t0: float, t1: float) -> np.ndarray:
        if t1 <= t0:
            return np.empty(0)
        bound = self._bound(t0, t1)
        if bound <= 0:
            return np.empty(0)
        return _thin(self.rng, self.trace.rates, t0, t1, bound)


class MMPPArrivals:
    """Markov-modulated Poisson arrivals.

    A hidden continuous-time Markov chain with exponentially-distributed
    dwell times multiplies the driving trace's rate by the current
    state's ``factor``. With factors above and below 1 the resulting
    stream is over-dispersed (inter-arrival CV > 1): calm stretches and
    bursts, which is what production request logs look like and what
    plain Poisson cannot express.

    The state path is pre-drawn over ``horizon`` at construction, so
    the modulation is a pure function of time and the process stays
    deterministic under any window query pattern.

    A window thins against the modulated rate, whose bound comes from a
    :data:`MMPP_BOUND_SAMPLES`-point grid scan. Most windows see no state
    switch; there one factor ``f`` holds, and since ``x ↦ fl(x·f)`` never
    decreases for a finite ``f ≥ 0``, the scan and the candidate rates
    take the driving trace's values and multiply by ``f`` once, with the
    floats the general path gives.
    """

    def __init__(
        self,
        trace: LoadTrace,
        rng: np.random.Generator,
        *,
        factors: Sequence[float] = (0.4, 1.0, 2.4),
        horizon: float = 86_400.0,
    ):
        if len(factors) < 2:
            raise ValueError("need at least two MMPP states")
        if not all(math.isfinite(f) for f in factors):
            raise ValueError(f"factors must be finite, got {tuple(factors)!r}")
        if any(f < 0 for f in factors):
            raise ValueError("state factors must be non-negative")
        require_finite(horizon=horizon)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.trace = trace
        self.rng = rng
        self.factors = tuple(float(f) for f in factors)
        self.horizon = float(horizon)
        # Pre-draw the state path: (switch_times, state_index_after).
        switch_times = [0.0]
        states = [int(rng.integers(len(self.factors)))]
        t = 0.0
        while t < horizon:
            t += float(rng.exponential(MEAN_DWELL))
            # Jump to a uniformly-chosen *other* state.
            step = 1 + int(rng.integers(len(self.factors) - 1))
            states.append((states[-1] + step) % len(self.factors))
            switch_times.append(t)
        self._switch_times = switch_times
        # _factor_table[bisect_right(_switch_times, t)]: the first state
        # also holds before time 0.
        factor_path = [self.factors[s] for s in states]
        self._factor_table = factor_path[:1] + factor_path
        self._switch_arr = np.array(switch_times)
        self._factor_arr = np.array(self._factor_table)

    def factor_at(self, t: float) -> float:
        """State multiplier in effect at time ``t`` (last state holds
        beyond the pre-drawn horizon)."""
        return self._factor_table[bisect.bisect_right(self._switch_times, t)]

    def rate(self, t: float) -> float:
        """Effective (modulated) arrival rate at ``t``."""
        return max(0.0, self.trace.rate(t)) * self.factor_at(t)

    def rates(self, ts: np.ndarray) -> np.ndarray:
        factors = self._factor_arr[np.searchsorted(self._switch_arr, ts, side="right")]
        return np.maximum(self.trace.rates(ts), 0.0) * factors

    def window(self, t0: float, t1: float) -> np.ndarray:
        if t1 <= t0:
            return np.empty(0)
        # The bound scan reads the factor at t1 too, so the window is
        # steady when [t0, t1] holds no switch.
        state = bisect.bisect_right(self._switch_times, t0)
        if state != bisect.bisect_right(self._switch_times, t1):
            # The modulated rate is itself a LoadTrace: thin against it.
            bound = _grid_peak(self, t0, t1, MMPP_BOUND_SAMPLES) * BOUND_MARGIN
            rates = self.rates
        else:
            factor = self._factor_table[state]
            peak = _grid_peak(self.trace, t0, t1, MMPP_BOUND_SAMPLES)
            bound = (peak if peak > 0.0 else 0.0) * factor * BOUND_MARGIN
            trace_rates = self.trace.rates

            def rates(ts: np.ndarray) -> np.ndarray:
                out = trace_rates(ts)
                np.maximum(out, 0.0, out=out)
                out *= factor
                return out

        if bound <= 0:
            return np.empty(0)
        return _thin(self.rng, rates, t0, t1, bound)


# -- request-size marks ---------------------------------------------------------


class SizeDistribution(Protocol):
    """Per-request size marks (work multipliers, mean-normalizable)."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray: ...

    def mean(self) -> float: ...


class ParetoSizes:
    """Pareto(α, 1) request sizes — the heavy tail of the web.

    ``alpha`` is the tail index (smaller = heavier; α ≤ 1 has infinite
    mean and is rejected); the smallest size is 1. The statistical
    suite recovers ``alpha`` from samples with a Hill estimator.
    """

    def __init__(self, alpha: float = 1.6):
        require_finite(alpha=alpha)
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (finite mean)")
        self.alpha = float(alpha)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        sizes = rng.pareto(self.alpha, size=n)
        sizes += 1.0
        return sizes

    def mean(self) -> float:
        return self.alpha / (self.alpha - 1.0)


class MarkedArrivals:
    """An arrival process with a size mark stapled to every event.

    ``window_marked`` returns ``(times, sizes)``; ``window`` delegates
    to the underlying process so a marked process still satisfies the
    plain :class:`ArrivalProcess` protocol. Sizes draw from their own
    generator (``workload/<app>/sizes``) so arming marks never shifts
    the arrival-time stream.
    """

    def __init__(
        self,
        process: ArrivalProcess,
        sizes: SizeDistribution,
        rng: np.random.Generator,
    ):
        self.process = process
        self.sizes = sizes
        self.rng = rng

    def window(self, t0: float, t1: float) -> np.ndarray:
        return self.process.window(t0, t1)

    def window_marked(
        self, t0: float, t1: float
    ) -> tuple[np.ndarray, np.ndarray]:
        times = self.process.window(t0, t1)
        return times, self.sizes.sample(self.rng, len(times))

    def mean_size(self) -> float:
        return self.sizes.mean()


# -- correlated multi-app surges ------------------------------------------------


class CorrelatedSurge:
    """Couples surge windows across many applications.

    One shared schedule of surge windows is drawn at construction
    (Poisson starts over ``horizon``, fixed ``duration``); every trace
    attached via :meth:`attach` is multiplied by its ``factor`` during
    those windows, optionally shifted by a per-app ``lag`` (drawn
    uniformly from ``[0, max_lag]`` when not given). Because all apps
    share the schedule, surges are *correlated* — the cluster-level
    demand spike an autoscaler cannot absorb by borrowing from idle
    neighbours, which is exactly what per-app rate curves fail to model.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        horizon: float,
        mean_interval: float = 600.0,
        duration: float = 90.0,
        factor: float = 3.0,
        max_lag: float = 0.0,
    ):
        require_finite(
            horizon=horizon,
            mean_interval=mean_interval,
            duration=duration,
            factor=factor,
            max_lag=max_lag,
        )
        if horizon <= 0 or mean_interval <= 0 or duration <= 0:
            raise ValueError("horizon/mean_interval/duration must be positive")
        if factor < 1.0:
            raise ValueError("surge factor must be ≥ 1")
        if max_lag < 0:
            raise ValueError("max_lag must be non-negative")
        self.rng = rng
        self.duration = float(duration)
        self.factor = float(factor)
        self.max_lag = float(max_lag)
        starts: list[float] = []
        t = float(rng.exponential(mean_interval))
        while t < horizon:
            starts.append(t)
            t += float(rng.exponential(mean_interval))
        self.starts = starts
        self.attached: list[str] = []
        # The end of the latest window starting at or before each point:
        # _ends[searchsorted(starts, t - lag, "right")].
        self._starts_arr = np.array(starts, dtype=float)
        self._ends_arr = np.array(
            [-math.inf] + [s + self.duration for s in starts], dtype=float
        )

    def windows(self) -> list[tuple[float, float]]:
        """The shared surge windows ``[(start, end), ...]``."""
        return [(s, s + self.duration) for s in self.starts]

    def active(self, t: float, *, lag: float = 0.0) -> bool:
        idx = bisect.bisect_right(self.starts, t - lag) - 1
        if idx < 0:
            return False
        return t - lag < self.starts[idx] + self.duration

    def attach(
        self,
        trace: LoadTrace,
        *,
        name: str = "",
        factor: float | None = None,
        lag: float | None = None,
    ) -> "LoadTrace":
        """Wrap ``trace`` so it surges on the shared schedule.

        ``lag`` defaults to a uniform draw from ``[0, max_lag]`` (one
        draw per attach, in attach order — attach apps in a stable
        order for reproducibility).
        """
        if factor is None:
            factor = self.factor
        if lag is None:
            lag = (
                float(self.rng.uniform(0.0, self.max_lag))
                if self.max_lag > 0
                else 0.0
            )
        require_finite(factor=factor, lag=lag)
        self.attached.append(name)
        return _SurgedTrace(trace, self, factor=float(factor), lag=float(lag))


class _SurgedTrace:
    """A trace multiplied by the coordinator's factor during surges."""

    def __init__(
        self,
        base: LoadTrace,
        surge: CorrelatedSurge,
        *,
        factor: float,
        lag: float,
    ):
        self.base = base
        self.surge = surge
        self.factor = factor
        self.lag = lag

    def rate(self, t: float) -> float:
        value = self.base.rate(t)
        if self.surge.active(t, lag=self.lag):
            value *= self.factor
        return value

    def rates(self, ts: np.ndarray) -> np.ndarray:
        shifted = ts - self.lag
        surge = self.surge
        ends = surge._ends_arr[
            np.searchsorted(surge._starts_arr, shifted, side="right")
        ]
        values = self.base.rates(ts)
        return np.where(shifted < ends, values * self.factor, values)
