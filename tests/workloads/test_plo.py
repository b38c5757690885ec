"""Unit tests for PLOs and violation tracking."""

import pytest

from repro.workloads.plo import (
    DeadlinePLO,
    LatencyPLO,
    PLOStatus,
    ThroughputPLO,
    ViolationTracker,
)


@pytest.fixture(autouse=True)
def declared(collector):
    collector.declare("app/svc/latency", "app/svc/throughput", "app/job/progress")


class TestLatencyPLO:
    def test_unknown_without_series(self, engine, collector):
        plo = LatencyPLO(0.1)
        status = plo.evaluate(collector, "svc", 100.0)
        assert status.measured is None
        assert not status.violated

    def test_violation_and_error_sign(self, engine, collector):
        plo = LatencyPLO(0.1, window=30)
        engine.run_until(10.0)
        collector.record("app/svc/latency", 0.2)
        status = plo.evaluate(collector, "svc", 10.0)
        assert status.violated
        assert status.ratio == pytest.approx(2.0)
        assert status.error == pytest.approx(1.0)

    def test_overachieving_negative_error(self, engine, collector):
        plo = LatencyPLO(0.1)
        engine.run_until(5.0)
        collector.record("app/svc/latency", 0.05)
        status = plo.evaluate(collector, "svc", 5.0)
        assert not status.violated
        assert status.error == pytest.approx(-0.5)

    def test_percentile_uses_tail(self, engine, collector):
        plo = LatencyPLO(0.1, percentile=99, window=100)
        for i in range(49):
            engine.run_until(float(i + 1))
            collector.record("app/svc/latency", 0.05)
        engine.run_until(50.0)
        collector.record("app/svc/latency", 0.5)
        # Nearest-rank p99 of 50 samples picks the maximum.
        status = plo.evaluate(collector, "svc", 50.0)
        assert status.violated

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            LatencyPLO(0)


class TestThroughputPLO:
    def test_underdelivering_violates(self, engine, collector):
        plo = ThroughputPLO(100)
        engine.run_until(5.0)
        collector.record("app/svc/throughput", 50.0)
        status = plo.evaluate(collector, "svc", 5.0)
        assert status.violated
        assert status.ratio == pytest.approx(2.0)

    def test_meeting_target_ok(self, engine, collector):
        plo = ThroughputPLO(100)
        engine.run_until(5.0)
        collector.record("app/svc/throughput", 150.0)
        status = plo.evaluate(collector, "svc", 5.0)
        assert not status.violated
        assert status.error < 0

    def test_zero_measured_is_infinite_ratio(self, engine, collector):
        plo = ThroughputPLO(100)
        engine.run_until(5.0)
        collector.record("app/svc/throughput", 0.0)
        status = plo.evaluate(collector, "svc", 5.0)
        assert status.violated
        assert status.ratio == float("inf")


class TestDeadlinePLO:
    def test_on_track_not_violated(self, engine, collector):
        plo = DeadlinePLO(100.0)
        engine.run_until(50.0)
        collector.record("app/job/progress", 0.6)  # projected finish ≈ 83s
        status = plo.evaluate(collector, "job", 50.0)
        assert not status.violated

    def test_behind_schedule_violates(self, engine, collector):
        plo = DeadlinePLO(100.0)
        engine.run_until(50.0)
        collector.record("app/job/progress", 0.2)  # projected finish 250s
        status = plo.evaluate(collector, "job", 50.0)
        assert status.violated
        assert status.ratio == pytest.approx(2.5)

    def test_zero_progress_is_infinite(self, engine, collector):
        plo = DeadlinePLO(100.0)
        engine.run_until(10.0)
        collector.record("app/job/progress", 0.0)
        status = plo.evaluate(collector, "job", 10.0)
        assert status.violated

    def test_finished_job_not_violating(self, engine, collector):
        plo = DeadlinePLO(100.0)
        engine.run_until(80.0)
        collector.record("app/job/progress", 1.0)
        status = plo.evaluate(collector, "job", 150.0)
        assert not status.violated

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            DeadlinePLO(5.0, start_time=10.0)


class TestViolationTracker:
    def test_integrates_violation_time(self):
        tracker = ViolationTracker()
        ok = PLOStatus(0.05, 0.1, 0.5, -0.5, False)
        bad = PLOStatus(0.2, 0.1, 2.0, 1.0, True)
        tracker.observe(0.0, ok)
        tracker.observe(10.0, bad)   # 10s observed, violating
        tracker.observe(20.0, ok)    # 10s observed, ok
        assert tracker.observed_seconds == 20.0
        assert tracker.violation_seconds == 10.0
        assert tracker.violation_fraction == pytest.approx(0.5)

    def test_worst_and_mean_ratio(self):
        tracker = ViolationTracker()
        tracker.observe(0.0, PLOStatus(0.1, 0.1, 1.0, 0.0, False))
        tracker.observe(5.0, PLOStatus(0.3, 0.1, 3.0, 2.0, True))
        assert tracker.worst_ratio == 3.0
        assert tracker.mean_ratio == pytest.approx(2.0)

    def test_unknown_status_ignored_in_ratio(self):
        tracker = ViolationTracker()
        tracker.observe(0.0, PLOStatus.unknown(0.1))
        assert tracker.mean_ratio is None
        assert tracker.violation_fraction == 0.0

    def test_empty_tracker(self):
        tracker = ViolationTracker()
        assert tracker.violation_fraction == 0.0
        assert tracker.mean_ratio is None
