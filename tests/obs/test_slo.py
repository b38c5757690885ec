"""Unit tests for the SLO engine (specs, burn windows, alert lifecycle)."""

import math

import pytest

from repro.metrics.collector import SCRAPE_INTERVAL
from repro.obs.registry import MetricsRegistry, lint_names
from repro.obs.slo import (
    BURN_THRESHOLD,
    FAST_WINDOW,
    SLOW_WINDOW,
    SLOEngine,
    SLOSpec,
)

TICK = SCRAPE_INTERVAL
TARGET = 0.9
#: Scrape ticks each burn window holds.
FAST_TICKS = round(FAST_WINDOW / TICK)
SLOW_TICKS = round(SLOW_WINDOW / TICK)
#: Consecutive bad ticks after which both windows burn at the threshold:
#: the slow window is the last to get there.
TICKS_TO_FIRE = math.ceil(BURN_THRESHOLD * (1 - TARGET) * SLOW_TICKS)


class FakeCollector:
    """Minimal stand-in: the engine declares its series, then reads
    latest."""

    def __init__(self):
        self.values: dict[str, float | None] = {}
        self.declared: set[str] = set()

    def declare(self, *names: str) -> None:
        self.declared.update(names)

    def latest(self, series: str):
        assert series in self.declared, f"{series} read but never declared"
        return self.values.get(series)


def make_spec(**overrides) -> SLOSpec:
    kwargs = dict(
        name="web_latency",
        series="app/web/latency",
        objective=0.05,
        comparator="le",
        target=TARGET,
        warmup=0.0,
        kind="latency",
    )
    kwargs.update(overrides)
    return SLOSpec(**kwargs)


class TestSLOSpec:
    def test_good_le_and_ge(self):
        le = make_spec(comparator="le", objective=1.0)
        assert le.good(1.0) and le.good(0.5) and not le.good(1.1)
        ge = make_spec(comparator="ge", objective=1.0)
        assert ge.good(1.0) and ge.good(2.0) and not ge.good(0.9)

    @pytest.mark.parametrize("overrides", [
        {"name": "Bad-Name"},
        {"name": "has/slash"},
        {"comparator": "lt"},
        {"target": 1.0},
        {"target": -0.1},
        {"warmup": -1.0},
        {"kind": "nonsense"},
    ])
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_spec(**overrides)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine(
                FakeCollector(), [make_spec(), make_spec()],
                registry=MetricsRegistry(),
            )


class TestEvaluation:
    def _engine(self, **overrides):
        collector = FakeCollector()
        engine = SLOEngine(
            collector, [make_spec(**overrides)], registry=MetricsRegistry()
        )
        return collector, engine, engine.states["web_latency"]

    def test_warmup_ticks_skipped(self):
        collector, engine, state = self._engine(warmup=60.0)
        collector.values["app/web/latency"] = 1.0  # would be bad
        engine.on_scrape(55.0)
        assert state.observed_ticks == 0 and state.bad_ticks == 0
        engine.on_scrape(60.0)
        assert state.bad_ticks == 1

    def test_missing_sample_is_unobserved_not_bad(self):
        collector, engine, state = self._engine()
        engine.on_scrape(5.0)  # series never sampled
        assert state.missing_ticks == 1
        assert state.observed_ticks == 0
        assert state.attainment() == 1.0

    def test_attainment_and_budget_ledger(self):
        collector, engine, state = self._engine()
        for i, value in enumerate((0.01, 0.01, 0.2, 0.01)):
            collector.values["app/web/latency"] = value
            engine.on_scrape(5.0 * (i + 1))
        assert state.good_ticks == 3 and state.bad_ticks == 1
        summary = engine.summary()["web_latency"]
        assert summary["attainment"] == pytest.approx(0.75)
        assert summary["observed_s"] == pytest.approx(20.0)
        # target 0.9 → 10% error budget of 20 observed seconds.
        assert summary["budget_s"] == pytest.approx(2.0)
        assert summary["budget_spent_s"] == pytest.approx(5.0)
        assert summary["budget_remaining_s"] == pytest.approx(-3.0)
        assert summary["first_bad_at"] == 15.0

    def test_burn_fraction_uses_window_capacity(self):
        # One bad tick is 1/capacity of each window even while the window
        # is still filling — never "1/1 = 100% bad".
        collector, engine, state = self._engine()
        collector.values["app/web/latency"] = 1.0
        engine.on_scrape(5.0)
        assert state.fast.bad_fraction() == pytest.approx(1 / FAST_TICKS)
        assert state.slow.bad_fraction() == pytest.approx(1 / SLOW_TICKS)


class TestAlertLifecycle:
    def _run(self, engine, collector, values, start=5.0):
        now = start
        for value in values:
            collector.values["app/web/latency"] = value
            engine.on_scrape(now)
            now += 5.0
        return now

    def test_fires_only_when_both_windows_burn(self):
        collector = FakeCollector()
        engine = SLOEngine(collector, [make_spec()], registry=MetricsRegistry())
        state = engine.states["web_latency"]
        # One tick short: the fast window burns past the threshold, but
        # the slow window holds the alert back.
        now = self._run(engine, collector, [1.0] * (TICKS_TO_FIRE - 1))
        assert state.burn(state.fast) >= BURN_THRESHOLD
        assert state.burn(state.slow) < BURN_THRESHOLD
        assert not state.firing and state.alerts == []
        # One more consecutive bad tick pushes slow to the threshold.
        self._run(engine, collector, [1.0], start=now)
        assert state.firing
        assert len(state.alerts) == 1
        alert = state.alerts[0]
        assert alert.fired_at == now and alert.active
        assert alert.burn_fast >= BURN_THRESHOLD
        assert alert.burn_slow >= BURN_THRESHOLD

    def test_resolves_when_fast_window_clears(self):
        collector = FakeCollector()
        engine = SLOEngine(collector, [make_spec()], registry=MetricsRegistry())
        state = engine.states["web_latency"]
        now = self._run(engine, collector, [1.0] * TICKS_TO_FIRE)
        assert state.firing
        # Good ticks age the bad ones out of the fast window; the slow
        # window still burns but resolution follows fast only.
        now = self._run(engine, collector, [0.01] * FAST_TICKS, start=now)
        assert not state.firing
        assert state.burn(state.slow) >= BURN_THRESHOLD
        assert state.alerts[0].resolved_at is not None
        # A fresh burst opens a second alert rather than reusing the old.
        self._run(engine, collector, [1.0] * FAST_TICKS, start=now)
        assert len(state.alerts) == 2

    def test_alerts_listing_sorted_across_slos(self):
        collector = FakeCollector()
        engine = SLOEngine(collector, [
            make_spec(name="a", series="s/a"),
            make_spec(name="b", series="s/b"),
        ], registry=MetricsRegistry())
        collector.values = {"s/a": 1.0, "s/b": 1.0}
        fire_at = TICK * TICKS_TO_FIRE
        for k in range(TICKS_TO_FIRE):
            engine.on_scrape(TICK * (k + 1))
        alerts = engine.alerts()
        assert [a.slo for a in alerts] == ["a", "b"]
        assert all(a.fired_at == fire_at for a in alerts)


class TestGaugeExport:
    def test_slo_gauges_registered_and_lint_clean(self):
        registry = MetricsRegistry()
        collector = FakeCollector()
        engine = SLOEngine(collector, [make_spec()], registry=registry)
        names = registry.names()
        assert {
            "slo/web_latency/attainment",
            "slo/web_latency/burn_fast",
            "slo/web_latency/burn_slow",
            "slo/web_latency/firing",
        } <= set(names)
        assert lint_names(list(registry.sample_metrics(0.0))) == []
        # Attainment starts optimistic; firing starts clear.
        engine.sync_gauges()
        out = registry.sample_metrics(0.0)
        assert out["slo/web_latency/attainment"] == 1.0
        assert out["slo/web_latency/firing"] == 0.0

    def test_gauges_track_state(self):
        registry = MetricsRegistry()
        collector = FakeCollector()
        engine = SLOEngine(collector, [make_spec()], registry=registry)
        collector.values["app/web/latency"] = 1.0
        for k in range(TICKS_TO_FIRE):
            engine.on_scrape(TICK * (k + 1))
        engine.sync_gauges()
        out = registry.sample_metrics(TICK * TICKS_TO_FIRE)
        assert out["slo/web_latency/firing"] == 1.0
        assert out["slo/web_latency/attainment"] == 0.0
        assert out["slo/web_latency/burn_fast"] >= BURN_THRESHOLD
