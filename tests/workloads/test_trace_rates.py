"""``LoadTrace.rates`` equals ``rate`` elementwise, bit for bit.

Arrival thinning evaluates the vector half of the protocol while
microservice ticks evaluate the scalar half, so the two must describe
the same curve exactly — an ulp apart is enough to flip an acceptance
decision and change a seeded stream. Every trace is probed where a
vectorized lookup is most likely to slip: on step and sample times and
their float neighbours, on surge window edges (with and without lag),
on MMPP switch times, before time 0, and past the horizon or the last
sample. A derandomized hypothesis property adds arbitrary times; it also
catches a numpy build whose ``np.sin`` is not bit-identical to libm.
Every ``rates`` must also return a new array that the caller owns, since
MMPP thinning scales the driving trace's answer in place.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import arrivals, traces
from repro.workloads.arrivals import CorrelatedSurge, MMPPArrivals
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    NoisyTrace,
    OUTrace,
    RampTrace,
    ReplayTrace,
    ScaledTrace,
    StepTrace,
)

HORIZON = 900.0


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _around(points) -> list[float]:
    """Each point and its float neighbours on either side."""
    out = []
    for p in points:
        p = float(p)
        out += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return out


def _surge() -> CorrelatedSurge:
    return CorrelatedSurge(
        _rng(3), horizon=HORIZON, mean_interval=120.0, duration=45.0, factor=3.0
    )


STEPS = [(60.0, 30.0), (60.0, 35.0), (200.5, 10.0), (480.0, 0.0), (700.0, 55.0)]
SAMPLES = [(0.0, 8.0), (45.5, 20.0), (300.0, 20.0), (300.0, 70.0), (650.25, 3.0)]


def _cases():
    """(name, trace, probe points) for every trace class."""
    diurnal = DiurnalTrace(50.0, 45.0, period=600.0, phase=30.0)
    replay = ReplayTrace(SAMPLES, time_scale=1.3, rate_scale=0.7)
    step = StepTrace(STEPS)
    bursty = BurstyTrace(
        20.0, burst_rate=1 / 90.0, burst_duration=25.0, horizon=HORIZON, rng=_rng(1)
    )
    noisy = NoisyTrace(diurnal, rel_std=0.4, bucket=30.0, horizon=HORIZON, rng=_rng(2))
    ou = OUTrace(40.0, volatility=6.0, horizon=HORIZON, rng=_rng(4))
    mmpp = MMPPArrivals(replay, _rng(5), horizon=HORIZON)
    surge = _surge()
    windows = [edge for window in surge.windows() for edge in window]
    lag = 11.5
    return [
        ("constant", ConstantTrace(17.5), [0.0, 1.0]),
        ("step", step, [t for t, _r in STEPS]),
        ("ramp", RampTrace(100, 400, 5.0, 95.0), [100.0, 250.0, 400.0]),
        ("diurnal", diurnal, [30.0, 180.0, 330.0, 480.0]),
        ("flash", FlashCrowdTrace(150.0, 300.0, rise=20.0), [150.0, 170.0]),
        ("bursty", bursty, [s + d for s in bursty.burst_times for d in (0, 25.0)]),
        ("noisy", noisy, [30.0 * k for k in range(32)]),
        ("composite", CompositeTrace([step, diurnal, replay, bursty]), [60.0]),
        ("scaled", ScaledTrace(replay, 2.5), [t * 1.3 for t, _r in SAMPLES]),
        ("ou", ou, [10.0 * k for k in range(0, 92, 7)]),
        ("replay", replay, [t * 1.3 for t, _r in SAMPLES]),
        ("mmpp", mmpp, mmpp._switch_times),
        ("surged", surge.attach(diurnal, lag=0.0), windows),
        (
            "surged-lagged",
            surge.attach(replay, lag=lag),
            windows + [w + lag for w in windows],
        ),
    ]


CASES = _cases()
#: Points every trace is probed at: before 0, at 0, and past the horizon.
COMMON = [-1e9, -600.0, -0.5, -0.0, 0.0, 1.0, HORIZON, HORIZON + 7.0, 1e7]


@pytest.mark.parametrize(
    "name,trace,points", CASES, ids=[name for name, _t, _p in CASES]
)
def test_rates_equal_rate_at_edges(name, trace, points):
    ts = np.array(sorted(_around(points + COMMON)))
    scalar = np.array([trace.rate(float(t)) for t in ts], dtype=float)
    assert np.array_equal(trace.rates(ts), scalar)


@pytest.mark.parametrize(
    "name,trace,points", CASES, ids=[name for name, _t, _p in CASES]
)
def test_rates_of_an_empty_array(name, trace, points):
    assert trace.rates(np.empty(0)).shape == (0,)


@pytest.mark.parametrize(
    "name,trace,points", CASES, ids=[name for name, _t, _p in CASES]
)
def test_rates_returns_a_new_array(name, trace, points):
    ts = np.array(sorted(_around(points + COMMON)))
    probe = ts.copy()
    first = trace.rates(ts)
    second = trace.rates(ts)
    assert not np.shares_memory(first, ts)
    assert not np.shares_memory(first, second)
    # Writing into an answer changes neither the input nor a later answer.
    expected = second.copy()
    first[:] = -1.0
    second[:] = -2.0
    assert np.array_equal(ts, probe)
    assert np.array_equal(trace.rates(ts), expected)


def test_every_trace_class_has_both_halves():
    classes = [
        cls
        for module in (traces, arrivals)
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and "rate" in vars(cls)
        and cls is not traces.LoadTrace
    ]
    assert len(classes) >= 13
    for cls in classes:
        assert "rates" in vars(cls), f"{cls.__name__} lacks rates()"
    covered = {type(trace) for _name, trace, _points in CASES}
    assert set(classes) <= covered


@given(
    ts=st.lists(
        st.floats(min_value=-2 * HORIZON, max_value=3 * HORIZON, allow_nan=False),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rates_equal_rate_property(ts):
    arr = np.array(ts, dtype=float)
    for _name, trace, _points in CASES:
        scalar = np.array([trace.rate(t) for t in ts], dtype=float)
        assert np.array_equal(trace.rates(arr), scalar)
