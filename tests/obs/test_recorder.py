"""Flight-recorder tests: RunReport assembly, ledgers, instrumentation.

Uses the report scenarios (``src/repro/scenarios/report/``) at shortened
horizons — the same platforms ``repro report`` and R-T12 run — so the
report is exercised against real admission/brownout/data-plane state,
not mocks.
"""

import json
from dataclasses import replace

import pytest

from repro.obs.recorder import (
    RUN_REPORT_SCHEMA,
    build_run_report,
    write_run_report,
)
from repro.scenarios import build_platform, load_report, report_names


def build_scenario(name: str, duration: float | None = None):
    """A report scenario's platform (not yet run) and its horizon."""
    spec = load_report(name).spec
    if duration is not None:
        spec = replace(spec, horizon=duration)
    return build_platform(spec), spec.horizon


@pytest.fixture(scope="module")
def overload_report():
    platform, _ = build_scenario("overload", duration=420.0)
    platform.collector.declare(
        "ctrl/sched/shed_total",
        "ctrl/sched/shed/best_effort",
        "ctrl/sched/shed_pending_age/count",
        "ctrl/sched/brownout/entries_total",
    )
    platform.run(420.0)
    return platform, build_run_report(platform)


@pytest.fixture(scope="module")
def datafault_report():
    platform, _ = build_scenario("data-fault", duration=420.0)
    platform.collector.declare(
        "ctrl/dp/executor_losses_total",
        "ctrl/dp/stream/checkpoints_total",
        "ctrl/store/repair_traffic_mb",
    )
    platform.run(420.0)
    return platform, build_run_report(platform)


class TestPresets:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("nope")

    def test_presets_wire_slo_engine_and_telemetry(self):
        for name in report_names():
            platform, duration = build_scenario(name)
            assert duration > 0
            assert platform.telemetry is not None, name
            assert platform.slo_engine is not None, name
            assert platform.slo_engine.specs, name


class TestRunReportSchema:
    def test_top_level_schema(self, overload_report):
        _, report = overload_report
        data = report.as_dict()
        assert data["schema"] == RUN_REPORT_SCHEMA
        assert set(data) == {
            "schema", "meta", "slos", "slo_summary", "alert_timeline",
            "ledgers", "critical_paths",
        }
        meta = data["meta"]
        assert meta["seed"] == load_report("overload").spec.seed
        assert meta["duration"] == pytest.approx(420.0)
        assert meta["telemetry"] is True
        assert "web" in meta["apps"]
        assert meta["slo_count"] == 3

    def test_report_is_json_serializable(self, overload_report):
        _, report = overload_report
        round_trip = json.loads(report.to_json())
        assert round_trip == report.as_dict()

    def test_write_run_report(self, overload_report, tmp_path):
        _, report = overload_report
        path = tmp_path / "report.json"
        write_run_report(report, str(path))
        assert json.loads(path.read_text()) == report.as_dict()


class TestOverloadReport:
    def test_shed_and_brownout_budgets_burn(self, overload_report):
        _, report = overload_report
        assert report.slos["shed_free"]["budget_spent_s"] > 0
        assert report.slos["brownout_free"]["budget_spent_s"] > 0
        assert report.overall_attainment() < 1.0

    def test_alert_timeline_merges_slos_and_faults(self, overload_report):
        _, report = overload_report
        timeline = report.as_dict()["alert_timeline"]
        types = {entry["type"] for entry in timeline}
        assert types == {"slo", "fault"}
        starts = [entry["start"] for entry in timeline]
        assert starts == sorted(starts)
        assert report.alerts, "no SLO alert in an overloaded run"

    def test_resilience_ledgers_conserve(self, overload_report):
        _, report = overload_report
        ledgers = report.ledgers
        assert {"admission", "backpressure", "brownout"} <= set(ledgers)
        assert report.ledgers_ok()
        adm = ledgers["admission"]
        assert adm["shed_total"] > 0
        assert adm["shed_total"] == (
            adm["rejected_pending"] + adm["evicted_running"]
        )

    def test_brownout_ledger_counts_live_brownouts(self):
        # A brownout set behind the control loop's back has no entry to
        # balance it, so the ledger must stop balancing.
        platform, _ = build_scenario("overload", duration=120.0)
        platform.run(120.0)
        assert build_run_report(platform).ledgers["brownout"]["ok"]
        app = next(
            app for app in platform.apps.values()
            if getattr(app, "brownout_capable", False)
            and not app.brownout_active
        )
        app.brownout_active = True
        ledger = build_run_report(platform).ledgers["brownout"]
        assert ledger["active"] == 1 + ledger["entries"] - ledger["exits"]
        assert ledger["residual"] == -1
        assert not ledger["ok"]

    def test_critical_paths_reach_back_to_scrapes(self, overload_report):
        _, report = overload_report
        paths = report.as_dict()["critical_paths"]
        assert paths
        for p in paths:
            assert p["path"][0]["name"] == "scrape"
            assert p["path"][-1]["name"] == "actuate"
            assert p["latency"] >= 0.0

    def test_sched_instrumentation_series_live(self, overload_report):
        platform, _ = overload_report
        latest = platform.collector.latest
        assert latest("ctrl/sched/shed_total") > 0
        assert latest("ctrl/sched/shed/best_effort") > 0
        assert latest("ctrl/sched/shed_pending_age/count") > 0
        assert latest("ctrl/sched/brownout/entries_total") > 0
        # Shed decisions appear as spans causally under admit cycles.
        trace = platform.telemetry.trace
        sheds = trace.by_name("shed")
        assert sheds
        admits = {s.id for s in trace.by_name("admit")}
        assert all(s.parent_id in admits for s in sheds)


class TestDataFaultReport:
    def test_dataplane_ledgers_conserve(self, datafault_report):
        _, report = datafault_report
        ledgers = report.ledgers
        assert {"dataplane", "streams", "storage"} <= set(ledgers)
        assert report.ledgers_ok()
        assert "t11-job" in ledgers["dataplane"]["jobs"]
        assert "t11-stream" in ledgers["streams"]["streams"]

    def test_fault_timeline_attributes_domains(self, datafault_report):
        _, report = datafault_report
        faults = [
            e for e in report.as_dict()["alert_timeline"]
            if e["type"] == "fault"
        ]
        assert faults, "harsh schedule produced no fault episodes"

    def test_dp_and_store_instrumentation_series_live(
        self, datafault_report
    ):
        platform, _ = datafault_report
        latest = platform.collector.latest
        assert latest("ctrl/dp/executor_losses_total") > 0
        assert latest("ctrl/dp/stream/checkpoints_total") > 0
        assert latest("ctrl/store/repair_traffic_mb") > 0
        trace = platform.telemetry.trace
        assert trace.by_name("executor_loss")
        assert trace.by_name("stream_checkpoint")
        assert trace.by_name("repair_cycle")
