"""Unit tests for per-fault-episode recovery analysis."""

import pytest

from repro.analysis.recovery import (
    error_series,
    fault_recovery_report,
    reconvergence_time,
    summarize,
)
from repro.cluster.chaos import FaultLog


@pytest.fixture(autouse=True)
def declared(collector):
    collector.declare(*map(error_series, ("svc", "ghost", "a", "b")))


def put(collector, app, samples):
    series = collector.series(f"control/{app}/error")
    for t, value in samples:
        series.append(t, value)


class TestReconvergenceTime:
    def test_settles_after_consecutive_run(self, collector):
        put(collector, "svc", [
            (10.0, 1.0), (20.0, 0.8), (30.0, 0.1),
            (40.0, 0.05), (50.0, 0.0), (60.0, 0.0),
        ])
        # Run of three at t=30,40,50 → settled at 50, measured from 25.
        assert reconvergence_time(collector, "svc", 25.0) == pytest.approx(25.0)

    def test_overachieving_error_counts_as_settled(self, collector):
        """Negative error means the PLO is overachieved — that is
        converged, not a violation (the convention is one-sided)."""
        put(collector, "svc", [(10.0, -0.5), (20.0, -0.6), (30.0, -0.4)])
        assert reconvergence_time(collector, "svc", 5.0) == pytest.approx(25.0)

    def test_violation_resets_the_run(self, collector):
        put(collector, "svc", [
            (10.0, 0.0), (20.0, 0.0), (30.0, 2.0),
            (40.0, 0.0), (50.0, 0.0), (60.0, 0.0),
        ])
        assert reconvergence_time(collector, "svc", 0.0) == pytest.approx(60.0)

    def test_never_settles_returns_none(self, collector):
        put(collector, "svc", [(10.0, 1.0), (20.0, 2.0)])
        assert reconvergence_time(collector, "svc", 0.0) is None

    def test_absent_series_returns_none(self, collector):
        assert reconvergence_time(collector, "ghost", 0.0) is None

    def test_horizon_cuts_off_late_settling(self, collector):
        put(collector, "svc", [
            (100.0, 0.0), (110.0, 0.0), (120.0, 0.0),
        ])
        assert reconvergence_time(collector, "svc", 0.0, horizon=50.0) is None
        assert reconvergence_time(
            collector, "svc", 0.0, horizon=150.0
        ) == pytest.approx(120.0)

    def test_samples_before_start_ignored(self, collector):
        put(collector, "svc", [
            (10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 1.0),
            (50.0, 0.0), (60.0, 0.0), (70.0, 0.0),
        ])
        # The pre-start run at 10..30 must not count toward settling.
        assert reconvergence_time(collector, "svc", 35.0) == pytest.approx(35.0)

    def test_settle_validation(self, collector):
        with pytest.raises(ValueError):
            reconvergence_time(collector, "svc", 0.0, settle=0)


class TestReport:
    def make_log(self):
        log = FaultLog()
        crash = log.open("node-crash", "node-0", 100.0)
        log.close(crash, 160.0)
        log.record("scrape-drop", "*", 300.0, 330.0)
        log.open("node-crash", "node-1", 500.0)  # never healed
        return log

    def test_one_report_per_episode(self, collector):
        put(collector, "svc", [(t, 0.0) for t in range(110, 200, 10)])
        reports = fault_recovery_report(self.make_log(), collector, ["svc"])
        assert len(reports) == 3
        assert reports[0].mttr == pytest.approx(60.0)
        assert reports[0].reconvergence["svc"] == pytest.approx(30.0)
        assert reports[2].mttr is None  # still-active episode

    def test_kinds_filter(self, collector):
        reports = fault_recovery_report(
            self.make_log(), collector, ["svc"], kinds=["scrape-drop"],
        )
        assert [r.episode.kind for r in reports] == ["scrape-drop"]

    def test_worst_reconvergence_none_when_any_app_unsettled(self, collector):
        put(collector, "a", [(t, 0.0) for t in range(110, 150, 10)])
        put(collector, "b", [(t, 9.0) for t in range(110, 150, 10)])
        reports = fault_recovery_report(
            self.make_log(), collector, ["a", "b"], kinds=["node-crash"],
        )
        assert reports[0].reconvergence["a"] is not None
        assert reports[0].worst_reconvergence() is None

    def test_summarize_aggregates(self, collector):
        put(collector, "svc", [(t, 0.0) for t in range(110, 400, 10)])
        stats = summarize(
            fault_recovery_report(self.make_log(), collector, ["svc"])
        )
        assert stats.episodes == 3
        assert stats.healed == 2  # the open node-1 crash has no MTTR
        assert stats.mean_mttr == pytest.approx((60.0 + 30.0) / 2)
        assert stats.max_mttr == pytest.approx(60.0)
        # Episodes at 100 and 300 settle; the one at 500 never does.
        assert stats.unconverged == 1
        assert stats.max_reconvergence is not None

    def test_summarize_empty(self):
        stats = summarize([])
        assert stats.episodes == 0
        assert stats.mean_mttr is None
        assert stats.unconverged == 0
