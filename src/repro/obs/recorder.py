"""The flight recorder: one ``RunReport`` artifact per run.

Where a ``BENCH_<exp>.json`` answers "how fast", the RunReport answers
"what happened": per-SLO attainment and error-budget burn, the merged
alert timeline (SLO burn-rate alerts interleaved with FaultLog episodes,
attributed to the chaos domain that injected them), the conservation
status of every ledger the resilience and data-plane layers maintain,
and the top-k slowest scrape→actuation critical paths from the causal
trace. It is assembled entirely from state the platform already holds —
building a report never perturbs the run.

Schema (``repro.run_report/v1``)::

    {
      "schema": "repro.run_report/v1",
      "meta":   {seed, duration, scheduler, policy, apps, slo_count},
      "slos":   {<name>: {attainment, budget_*, alerts, ...}},
      "slo_summary": {overall_attainment, total_alerts, unresolved_alerts,
                      total_budget_spent_s},
      "alert_timeline": [{type: "slo"|"fault", name, target, start, end,
                          domain?, burn_fast?, burn_slow?}, ...],
      "ledgers": {admission?, backpressure?, brownout?, dataplane?,
                  streams?, storage?},   # each with an "ok" verdict
      "critical_paths": [{app, latency, actuated_at, path}, ...],
    }

Produced by ``repro report`` and by the benchmark runner (written as
``REPORT_<exp>.json`` next to the bench payload).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.traces import top_reaction_paths

#: Schema identifier stamped into every report.
RUN_REPORT_SCHEMA = "repro.run_report/v1"

#: Absolute tolerance (cpu-seconds / events / MB) for float ledgers.
_LEDGER_TOL = 1e-6


@dataclass
class RunReport:
    """One run's observability artifact (see module docstring for the
    schema). ``data`` is the JSON-ready payload."""

    data: dict

    def as_dict(self) -> dict:
        return self.data

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.data, indent=indent)

    # Convenience accessors used by the CLI / benchmark assertions.

    @property
    def slos(self) -> dict:
        return self.data["slos"]

    @property
    def alerts(self) -> list[dict]:
        return [
            e for e in self.data["alert_timeline"] if e["type"] == "slo"
        ]

    @property
    def ledgers(self) -> dict:
        return self.data["ledgers"]

    def overall_attainment(self) -> float:
        return self.data["slo_summary"]["overall_attainment"]

    def ledgers_ok(self) -> bool:
        return all(block["ok"] for block in self.data["ledgers"].values())


def _admission_ledger(admission) -> dict:
    stats = admission.stats()
    # Every shed decision is either a pending-queue rejection or a
    # running-pod eviction — nothing else increments shed_total.
    residual = stats["shed_total"] - (
        stats["rejected_pending"] + stats["evicted_running"]
    )
    stats["conservation"] = "shed_total == rejected_pending + evicted_running"
    stats["residual"] = residual
    stats["ok"] = residual == 0
    return stats


def _backpressure_ledger(managers) -> dict:
    totals = {
        "deferrals": 0, "coalesced": 0, "releases": 0,
        "dropped": 0, "queued": 0,
    }
    for manager in managers:
        bp = manager.backpressure
        if bp is None:
            continue
        stats = bp.stats()
        for key in totals:
            totals[key] += stats[key]
    residual = totals["deferrals"] - (
        totals["coalesced"] + totals["releases"]
        + totals["dropped"] + totals["queued"]
    )
    totals["conservation"] = (
        "deferrals == coalesced + releases + dropped + queued"
    )
    totals["residual"] = residual
    totals["ok"] = residual == 0
    return totals


def _brownout_ledger(managers) -> dict:
    stats = [m.resilience_stats() for m in managers]
    entries = sum(s["brownout_entries"] for s in stats)
    exits = sum(s["brownout_exits"] for s in stats)
    # Live state, not a counter: every replica manages the same apps.
    apps = {name: app for m in managers for name, app in m.applications().items()}
    active = sum(1 for app in apps.values() if getattr(app, "brownout_active", False))
    residual = entries - (exits + active)
    return {
        "entries": entries,
        "exits": exits,
        "active": active,
        "conservation": "entries == exits + active",
        "residual": residual,
        "ok": residual == 0,
    }


def _dataplane_ledger(jobs) -> dict:
    per_job = {}
    ok = True
    for job in jobs:
        acct = job.ft_accounting()
        if acct is None:
            continue
        residual = acct["retired"] - (
            acct["useful"] + acct["spec_inflight"]
            + acct["wasted"] + acct["reopened"]
        )
        job_ok = abs(residual) <= max(_LEDGER_TOL, 1e-6 * acct["retired"])
        ok = ok and job_ok
        per_job[job.name] = {
            **acct, "residual": residual, "ok": job_ok,
            "quarantined_stage": job.quarantined_stage,
        }
    return {
        "conservation": (
            "retired == useful + spec_inflight + wasted + reopened"
        ),
        "jobs": per_job,
        "ok": ok,
    }


def _stream_ledger(streams) -> dict:
    per_stream = {}
    ok = True
    for stream in streams:
        arrived = stream.total_arrived
        processed = stream.total_processed
        lag = stream.lag_events
        replayed = getattr(stream, "replayed_total", 0.0)
        # On rollback ``total_processed`` rewinds to the checkpoint and
        # the replayed events re-enter the lag backlog, so arrivals stay
        # conserved: arrived == processed + lag (the same identity the
        # data-plane invariant audits).
        residual = arrived - (processed + lag)
        stream_ok = abs(residual) <= max(_LEDGER_TOL, 1e-6 * max(arrived, 1.0))
        ok = ok and stream_ok
        per_stream[stream.name] = {
            "arrived": arrived,
            "processed": processed,
            "lag_events": lag,
            "replayed": replayed,
            "checkpoints": getattr(stream, "checkpoints", 0),
            "restarts": getattr(stream, "restarts", 0),
            "residual": residual,
            "ok": stream_ok,
        }
    return {
        "conservation": "arrived == processed + lag",
        "streams": per_stream,
        "ok": ok,
    }


def _storage_ledger(repair) -> dict:
    residual = repair.repaired_mb - repair.repair_traffic_mb
    return {
        "scans": repair.scans,
        "replicas_dropped": repair.dropped_replicas,
        "repaired_objects": repair.repaired_objects,
        "repaired_mb": repair.repaired_mb,
        "repair_traffic_mb": repair.repair_traffic_mb,
        "backlog": repair.backlog(),
        "unplaceable": repair.unplaceable,
        "conservation": "repaired_mb == repair_traffic_mb",
        "residual": residual,
        "ok": abs(residual) <= _LEDGER_TOL,
    }


def _alert_timeline(slo_engine, fault_log) -> list[dict]:
    timeline: list[dict] = []
    if slo_engine is not None:
        for alert in slo_engine.alerts():
            timeline.append({
                "type": "slo",
                "name": alert.slo,
                "target": alert.slo,
                "start": alert.fired_at,
                "end": alert.resolved_at,
                "burn_fast": alert.burn_fast,
                "burn_slow": alert.burn_slow,
            })
    if fault_log is not None:
        for episode in fault_log.episodes:
            timeline.append({
                "type": "fault",
                "name": episode.kind,
                "target": episode.target,
                "start": episode.start,
                "end": episode.end,
                "detail": episode.detail,
                "domain": episode.domain,
            })
    timeline.sort(key=lambda e: (e["start"], e["type"], e["name"]))
    return timeline


def build_run_report(platform, *, top_k: int = 5) -> RunReport:
    """Assemble the RunReport from a finished (or running) platform.

    Read-only over platform state; safe to call mid-run, though budget
    numbers then cover only the simulated time so far.
    """
    config = platform.config
    slo_engine = platform.slo_engine
    telemetry = platform.telemetry

    slos = slo_engine.summary() if slo_engine is not None else {}
    total_good = sum(s["good_ticks"] for s in slos.values())
    total_ticks = sum(
        s["good_ticks"] + s["bad_ticks"] for s in slos.values()
    )
    all_alerts = [a for s in slos.values() for a in s["alerts"]]
    slo_summary = {
        "overall_attainment": (
            total_good / total_ticks if total_ticks else 1.0
        ),
        "total_alerts": len(all_alerts),
        "unresolved_alerts": sum(
            1 for a in all_alerts if a["resolved_at"] is None
        ),
        "total_budget_spent_s": sum(
            s["budget_spent_s"] for s in slos.values()
        ),
    }

    ledgers: dict[str, dict] = {}
    admission = platform.admission
    if admission is not None:
        ledgers["admission"] = _admission_ledger(admission)
    managers = [
        policy.manager
        for policy in platform.replica_policies
        if getattr(policy, "manager", None) is not None
    ]
    if any(m.backpressure is not None for m in managers):
        ledgers["backpressure"] = _backpressure_ledger(managers)
    if any(m.brownout for m in managers):
        ledgers["brownout"] = _brownout_ledger(managers)
    dp_jobs = [
        app for app in platform.apps.values()
        if getattr(app, "ft", False) and hasattr(app, "ft_accounting")
    ]
    if dp_jobs:
        ledgers["dataplane"] = _dataplane_ledger(dp_jobs)
    streams = [
        app for app in platform.apps.values()
        if hasattr(app, "lag_events") and hasattr(app, "total_arrived")
    ]
    if streams:
        ledgers["streams"] = _stream_ledger(streams)
    repair = platform.repair
    if repair is not None:
        ledgers["storage"] = _storage_ledger(repair)

    critical_paths: list[dict] = []
    if telemetry is not None:
        critical_paths = top_reaction_paths(telemetry.trace, top_k)

    data = {
        "schema": RUN_REPORT_SCHEMA,
        "meta": {
            "seed": config.seed,
            "duration": platform.engine.now,
            "scheduler": type(platform.scheduler).__name__,
            "policy": platform.policy_name,
            "telemetry": config.telemetry,
            "apps": sorted(platform.apps),
            "slo_count": len(slos),
        },
        "slos": slos,
        "slo_summary": slo_summary,
        "alert_timeline": _alert_timeline(slo_engine, platform.fault_log),
        "ledgers": ledgers,
        "critical_paths": critical_paths,
    }
    return RunReport(data)


def write_run_report(report: RunReport, path: str) -> None:
    """Write the report as pretty-printed JSON."""
    with open(path, "w") as handle:
        handle.write(report.to_json())
        handle.write("\n")
