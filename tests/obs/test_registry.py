"""Unit tests for the self-metrics registry."""

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    REGISTERED_NAMESPACES,
    Histogram,
    MetricsRegistry,
    lint_names,
    lint_namespaces,
    validate_name,
)


class TestNaming:
    def test_valid_names_pass(self):
        for name in ("decisions_total", "a", "x9/y_z", "wal_appends_total"):
            assert validate_name(name) == name

    def test_invalid_names_rejected(self):
        for name in ("Decisions", "9lives", "_x", "a-b", "a.b", "", "a b"):
            with pytest.raises(ValueError):
                validate_name(name)

    def test_lint_names_returns_offenders(self):
        assert lint_names(["ok_name", "Bad", "also/ok", "no-good"]) == [
            "Bad", "no-good",
        ]

    def test_registry_rejects_bad_name(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("NotSnake")


class TestNamespaceLint:
    def test_registered_namespaces_pass(self):
        names = [f"{ns}/thing_total" for ns in REGISTERED_NAMESPACES]
        assert lint_namespaces(names) == []

    def test_unregistered_prefix_flagged(self):
        assert lint_namespaces([
            "sched/shed_total",
            "widget/count",          # unregistered namespace
            "dp/stream/lag_events",  # nested segments are fine
            "typo/into/the_void",
        ]) == ["widget/count", "typo/into/the_void"]

    def test_flat_names_are_exempt(self):
        # Legacy un-namespaced instruments (decisions_total, scrapes)
        # carry no prefix to validate.
        assert lint_namespaces(["decisions_total", "scrapes"]) == []

    def test_telemetry_instruments_pass_the_namespace_lint(self):
        # Every namespaced instrument Telemetry pre-registers must use
        # a declared namespace — the CI entry point fails otherwise.
        from repro.obs.telemetry import Telemetry
        from repro.sim.engine import Engine

        telemetry = Telemetry(Engine())
        namespaced = [n for n in telemetry.registry.names() if "/" in n]
        assert namespaced, "expected sched/dp/store instruments"
        assert lint_namespaces(telemetry.registry.names()) == []


class TestCounterGauge:
    def test_counter_increments(self):
        c = MetricsRegistry().counter("hits_total")
        c.inc()
        c.inc(3)
        assert c.value == 4.0

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(2)
        g.inc(-4)
        assert g.value == 3.0

    def test_duplicate_registration_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError):
            r.gauge("x_total")


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_observations_land_in_buckets(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 0.9, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # [≤1, ≤10, +inf]
        assert h.count == 4
        assert h.sum == pytest.approx(56.4)
        assert h.mean == pytest.approx(14.1)

    def test_empty_histogram_has_no_quantile(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.quantile(50) is None
        assert h.mean is None

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(10.0, 20.0))
        for _ in range(10):
            h.observe(15.0)  # all in (10, 20]
        # Rank q% of 10 observations falls q% of the way through the
        # second bucket: lower + fraction * (upper - lower).
        assert h.quantile(50) == pytest.approx(15.0)
        assert h.quantile(100) == pytest.approx(20.0)

    def test_overflow_reports_top_finite_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        for _ in range(10):
            h.observe(99.0)
        assert h.quantile(99) == 2.0

    def test_quantile_range_checked(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(101)

    def test_default_buckets_are_valid(self):
        Histogram("h", buckets=DEFAULT_BUCKETS)


class TestSampleMetrics:
    def test_flattens_all_instrument_kinds(self):
        r = MetricsRegistry()
        r.counter("ops_total").inc(7)
        r.gauge("queue_depth").set(3)
        h = r.histogram("latency", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        out = r.sample_metrics(0.0)
        assert out["ops_total"] == 7.0
        assert out["queue_depth"] == 3.0
        assert out["latency/count"] == 2.0
        assert out["latency/sum"] == pytest.approx(5.5)
        assert set(out) >= {"latency/p50", "latency/p95", "latency/p99"}

    def test_empty_histogram_exports_count_only(self):
        r = MetricsRegistry()
        r.histogram("latency", buckets=(1.0,))
        out = r.sample_metrics(0.0)
        assert out["latency/count"] == 0.0
        assert "latency/p50" not in out

    def test_exported_names_obey_naming_law(self):
        r = MetricsRegistry()
        r.counter("a_total")
        r.histogram("b", buckets=(1.0,)).observe(0.5)
        assert lint_names(list(r.sample_metrics(0.0))) == []

    def test_prefix_is_ctrl(self):
        assert MetricsRegistry().metric_prefix() == "ctrl"


def test_standard_instrument_lint_entry_point():
    from repro.obs.registry import _lint_standard_instruments

    assert _lint_standard_instruments() == 0
