"""Arrival windows against the thinning code they replaced.

``PoissonArrivals.window`` and ``MMPPArrivals.window`` scan a window's
bound with scalar ``trace.rate`` calls at the points ``np.linspace``
gives and thin through one ``_thin``, which sorts its candidates in place
and scales its acceptance draws in place. An MMPP window that sees no
state switch multiplies the driving trace's values by its one factor.
``DiurnalTrace.rates`` runs in one buffer, ``ParetoSizes.sample`` adds 1
in place, and a microservice takes its size factor as ``sum / n``. This
module keeps the previous code as the reference: the bound from
``np.max(trace.rates(np.linspace(...)))``, a sorted copy of the
candidates, acceptance draws from ``uniform(0.0, 1.0)``, every MMPP
window thinned against ``MMPPArrivals.rates``, and ``np.mean`` for the
size factor.

Every window of the arena's two arrival scenarios (at the arena's 450 s
and at the pack horizon), of the fuzz episodes (run seed 7) whose
microservices draw arrivals, and of the correlated-surge entry under
Poisson and MMPP arrivals (surged traces with per-app lags; the surged
fuzz episodes deploy no microservice) runs on both paths. Per window the
thinning bound, the accepted times, the sizes, the ``(offered,
size_factor)`` pair and both generators' states must agree bit for bit.
Edge windows cover MMPP switches inside a window and on either end, a
zero factor, zero-rate and all-rejected windows, empty and inverted
windows, half-second windows, one three-hour window and one of subnormal
width.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.scenarios import load_scenario
from repro.scenarios.spec import build_platform
from repro.verify.fuzzer import generate_scenario
from repro.workloads import arrivals as arrivals_module
from repro.workloads.arrivals import (
    BOUND_MARGIN,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
)
from repro.workloads.microservice import Microservice
from repro.workloads.traces import (
    ConstantTrace,
    DiurnalTrace,
    ReplayTrace,
    StepTrace,
)

# -- the reference: thinning before the scalar scan --------------------------------


def ref_bound(trace, t0, t1, samples):
    if samples < 2:
        samples = 2
    peak = float(np.max(trace.rates(np.linspace(t0, t1, samples))))
    return peak * BOUND_MARGIN


def ref_diurnal_rates(self, ts):
    value = self.base + self.amplitude * np.sin(
        2 * math.pi * (ts - self.phase) / self.period
    )
    return np.maximum(value, 0.0)


def ref_mmpp_rates(self, ts):
    factors = self._factor_arr[np.searchsorted(self._switch_arr, ts, side="right")]
    return np.maximum(self.trace.rates(ts), 0.0) * factors


def ref_pareto_sample(self, rng, n):
    return 1.0 + rng.pareto(self.alpha, size=n)


def ref_offered_from_arrivals(self, dt, now):
    if self._marked:
        times, sizes = self.arrivals.window_marked(now - dt, now)
        if len(times) == 0:
            return 0.0, 1.0
        mean = self.arrivals.mean_size()
        factor = float(np.mean(sizes)) / mean if mean > 0 else 1.0
        return len(times) / dt, max(factor, 1e-6)
    events = self.arrivals.window(now - dt, now)
    return len(events) / dt, 1.0


def _reference(mp, log):
    """Patch the reference in; it logs each thinning bound to ``log``."""

    def thin(rng, trace, rate_bound, samples, t0, t1):
        if t1 <= t0:
            return np.empty(0)
        if rate_bound is not None:
            bound = rate_bound
        else:
            bound = ref_bound(trace, t0, t1, samples)
        if bound <= 0:
            return np.empty(0)
        log.append(("bound", float(t0).hex(), float(t1).hex(), float(bound).hex()))
        n = int(rng.poisson(bound * (t1 - t0)))
        if n == 0:
            return np.empty(0)
        times = np.sort(rng.uniform(t0, t1, size=n))
        accept_u = rng.uniform(0.0, 1.0, size=n)
        return times[accept_u * bound < trace.rates(times)]

    def poisson_window(self, t0, t1):
        return thin(self.rng, self.trace, self.rate_bound, 9, t0, t1)

    def mmpp_window(self, t0, t1):
        return thin(self.rng, self, None, 17, t0, t1)

    mp.setattr(PoissonArrivals, "window", poisson_window)
    mp.setattr(MMPPArrivals, "window", mmpp_window)
    mp.setattr(MMPPArrivals, "rates", ref_mmpp_rates)
    mp.setattr(DiurnalTrace, "rates", ref_diurnal_rates)
    mp.setattr(ParetoSizes, "sample", ref_pareto_sample)
    mp.setattr(Microservice, "_offered_from_arrivals", ref_offered_from_arrivals)


def _fast(mp, log):
    """Log each thinning bound the current code passes to ``_thin``."""
    thin = arrivals_module._thin

    def logged(rng, rates, t0, t1, bound):
        log.append(("bound", float(t0).hex(), float(t1).hex(), float(bound).hex()))
        return thin(rng, rates, t0, t1, bound)

    mp.setattr(arrivals_module, "_thin", logged)


def _state(rng) -> dict | None:
    return None if rng is None else rng.bit_generator.state


# -- whole scenarios ------------------------------------------------------------------


def _instrument(platform, log) -> int:
    """Log every arrival window of the platform's microservices; returns
    how many microservices draw arrivals."""
    drawing = 0
    for app in platform.apps.values():
        if getattr(app, "arrivals", None) is None:
            continue
        drawing += 1
        arrivals = app.arrivals
        marked = isinstance(arrivals, MarkedArrivals)
        process = arrivals.process if marked else arrivals
        size_rng = arrivals.rng if marked else None

        def window(t0, t1, name=app.name, inner=process.window):
            times = inner(t0, t1)
            log.append((name, "times", times.dtype.str, times.tobytes()))
            return times

        process.window = window
        if marked:

            def sample(rng, n, name=app.name, inner=arrivals.sizes.sample):
                sizes = inner(rng, n)
                log.append((name, "sizes", sizes.dtype.str, sizes.tobytes()))
                return sizes

            arrivals.sizes.sample = sample

        def offered_from(
            dt,
            now,
            name=app.name,
            inner=app._offered_from_arrivals,
            rng=process.rng,
            size_rng=size_rng,
        ):
            offered, factor = inner(dt, now)
            log.append(
                (
                    name,
                    "offered",
                    float(now).hex(),
                    float(offered).hex(),
                    float(factor).hex(),
                    _state(rng),
                    _state(size_rng),
                )
            )
            return offered, factor

        app._offered_from_arrivals = offered_from
    return drawing


def _replay(spec, *, reference: bool, monkeypatch) -> list:
    log: list = []
    with monkeypatch.context() as mp:
        (_reference if reference else _fast)(mp, log)
        platform = build_platform(spec)
        assert _instrument(platform, log) > 0
        platform.run(spec.horizon)
    return log


def _pack(name, horizon=None, **changes):
    spec = load_scenario(name).spec
    if horizon is not None:
        changes["horizon"] = horizon
    return replace(spec, **changes)


def _fuzz_with_arrivals() -> list:
    """Run seed 7's episodes whose microservices draw arrivals."""
    specs = []
    for index in range(36):
        spec = generate_scenario(7, index)
        if spec.arrival_model != "rate" and any(
            w.kind == "micro" for w in spec.workloads
        ):
            specs.append(pytest.param(spec, id=f"fuzz-7-{index}"))
    return specs


SCENARIOS = [
    pytest.param(_pack("diurnal-replay", 450.0), id="diurnal-replay-450"),
    pytest.param(_pack("diurnal-replay"), id="diurnal-replay"),
    pytest.param(_pack("heavy-tail", 450.0), id="heavy-tail-450"),
    pytest.param(_pack("heavy-tail"), id="heavy-tail"),
    pytest.param(
        _pack("correlated-surge", 450.0, arrival_model="poisson"),
        id="correlated-surge-poisson",
    ),
    pytest.param(
        _pack("correlated-surge", 450.0, arrival_model="mmpp", heavy_tail=True),
        id="correlated-surge-mmpp",
    ),
    *_fuzz_with_arrivals(),
]


@pytest.mark.parametrize("spec", SCENARIOS)
def test_every_window_matches_reference(spec, monkeypatch):
    fast = _replay(spec, reference=False, monkeypatch=monkeypatch)
    ref = _replay(spec, reference=True, monkeypatch=monkeypatch)
    assert len(fast) == len(ref)
    for i, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"record {i} differs: {got[:3]} vs {want[:3]}"
    # Windows were drawn, thinned and, for marked arrivals, sized.
    kinds = {record[0] if record[0] == "bound" else record[1] for record in fast}
    assert {"bound", "times", "offered"} <= kinds
    if spec.heavy_tail:
        assert "sizes" in kinds


def test_the_fuzz_replay_covers_arrival_episodes():
    # Seed 7 arms arrivals in 10 of 36 episodes; 4 deploy a microservice.
    assert len(_fuzz_with_arrivals()) == 4


def test_heavy_tail_windows_take_both_mmpp_paths():
    spec = _pack("heavy-tail")
    platform = build_platform(spec)
    steady = straddling = 0
    for app in platform.apps.values():
        process = app.arrivals.process
        switches = process._switch_times
        for now in range(1, int(spec.horizon) + 1):
            t0, t1 = now - 1.0, float(now)
            if bisect.bisect_right(switches, t0) == bisect.bisect_right(switches, t1):
                steady += 1
            else:
                straddling += 1
    assert straddling > 0 and steady > 10 * straddling


# -- edge windows --------------------------------------------------------------------


def _windows(make, windows, monkeypatch) -> tuple[list, list]:
    """Each window on a fresh process per path: (fast log, reference log)."""
    logs = []
    for reference in (False, True):
        log: list = []
        with monkeypatch.context() as mp:
            (_reference if reference else _fast)(mp, log)
            process = make()
            for t0, t1 in windows:
                times = process.window(t0, t1)
                log.append(
                    (
                        float(t0).hex(),
                        float(t1).hex(),
                        times.dtype.str,
                        times.tobytes(),
                        _state(process.rng),
                    )
                )
        logs.append(log)
    return logs[0], logs[1]


def _assert_same(make, windows, monkeypatch) -> tuple[list, list]:
    """Both paths agree; returns the (bounds, windows) records."""
    fast, ref = _windows(make, windows, monkeypatch)
    assert fast == ref
    bounds = [record for record in fast if record[0] == "bound"]
    return bounds, [record for record in fast if record[0] != "bound"]


def _diurnal(base=40.0, amplitude=30.0):
    return DiurnalTrace(base=base, amplitude=amplitude, period=300.0, phase=20.37)


def _poisson(trace=None, seed=5):
    return PoissonArrivals(trace or _diurnal(), np.random.default_rng(seed))


def _mmpp(trace=None, factors=(0.3, 1.0, 3.0)):
    return MMPPArrivals(
        trace or _diurnal(),
        np.random.default_rng(31),
        factors=factors,
        horizon=900.0,
    )


SWITCHES = _mmpp()._switch_times
SWITCH = SWITCHES[3]
BEFORE = float(np.nextafter(SWITCH, -np.inf))


@pytest.mark.parametrize(
    "t0, t1, steady",
    [
        pytest.param(SWITCH - 0.5, SWITCH + 0.5, False, id="straddling"),
        pytest.param(SWITCH, SWITCH + 1.0, True, id="starting-on-a-switch"),
        pytest.param(SWITCH - 1.0, SWITCH, False, id="ending-on-a-switch"),
        pytest.param(BEFORE - 1.0, BEFORE, True, id="ending-just-before"),
    ],
)
def test_mmpp_windows_at_a_switch(t0, t1, steady, monkeypatch):
    # The window is steady when [t0, t1] holds no switch: the grid reads t1.
    assert steady == (
        bisect.bisect_right(SWITCHES, t0) == bisect.bisect_right(SWITCHES, t1)
    )
    bounds, draws = _assert_same(_mmpp, [(t0, t1), (t1, t1 + 1.0)], monkeypatch)
    assert len(bounds) == 2 and draws[0][3] != b""


def test_mmpp_with_a_zero_factor(monkeypatch):
    windows = [(float(i), i + 1.0) for i in range(300)]
    bounds, _ = _assert_same(lambda: _mmpp(factors=(0.0, 2.0)), windows, monkeypatch)
    # Windows in the zero state draw nothing.
    assert 0 < len(bounds) < len(windows)


def test_half_second_windows(monkeypatch):
    windows = [(i * 0.5, (i + 1) * 0.5) for i in range(600)]
    for make in (_poisson, _mmpp):
        _assert_same(make, windows, monkeypatch)


def test_one_three_hour_window(monkeypatch):
    low = _diurnal(base=4.0, amplitude=3.0)
    for make in (
        lambda: _poisson(low, seed=6),
        lambda: _poisson(ReplayTrace([(0.0, 1.5), (3_600.0, 4.0)]), seed=7),
        lambda: _mmpp(low),
    ):
        _, draws = _assert_same(make, [(0.0, 10_800.0)], monkeypatch)
        assert len(draws[0][3]) > 8 * 10_000


def test_zero_rate_window_draws_nothing(monkeypatch):
    bounds, draws = _assert_same(
        lambda: _poisson(ConstantTrace(0.0), seed=8),
        [(0.0, 1.0), (1.0, 2.0)],
        monkeypatch,
    )
    assert bounds == [] and all(record[3] == b"" for record in draws)
    assert draws[-1][4] == _state(np.random.default_rng(8))


def test_every_candidate_rejected(monkeypatch):
    # The grid sees the step at t1; every candidate in [9, 10) has rate 0.
    bounds, draws = _assert_same(
        lambda: _poisson(StepTrace([(10.0, 500.0)]), seed=9),
        [(9.0, 10.0)],
        monkeypatch,
    )
    assert len(bounds) == 1 and draws[0][3] == b""
    assert draws[0][4] != _state(np.random.default_rng(9))


@pytest.mark.parametrize("t0, t1", [(5.0, 5.0), (6.0, 5.0)])
def test_empty_and_inverted_windows(t0, t1, monkeypatch):
    for make in (_poisson, _mmpp):
        bounds, draws = _assert_same(make, [(t0, t1)], monkeypatch)
        assert bounds == [] and draws[0][3] == b""


def test_subnormal_window(monkeypatch):
    # (t1 - t0) / 8 underflows to 0, and linspace then scales i / 8 by the
    # width: its grid, unlike i * step + t0, reaches the spike at 5e-324.
    spike = StepTrace([(0.0, 5.0), (5e-324, 1_000.0), (1e-323, 5.0)])
    bounds, _ = _assert_same(
        lambda: _poisson(spike, seed=11), [(0.0, 1.5e-323)], monkeypatch
    )
    assert bounds[0][3] == (1_000.0 * BOUND_MARGIN).hex()
