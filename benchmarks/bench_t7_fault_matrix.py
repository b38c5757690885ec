"""T7: the fault matrix — every fault class × every workload world.

The robustness claim behind the converged platform is not "survives a
node crash" but "degrades gracefully under the whole fault taxonomy":
infrastructure faults (crash, partial degradation), metrics-pipeline
faults (dropped scrapes, frozen series), and actuation faults (API
brown-outs). Each cell of the matrix injects one fault class mid-run
against one workload world and asserts:

* the run completes with zero unhandled exceptions,
* every fault episode heals (finite MTTR),
* every managed application's PLO error re-converges after injection,
* the control plane's degradation machinery engaged where it should
  (safe mode for scrape loss, retries for actuation faults).

Printed per cell: episodes, MTTR, worst re-convergence time, and the
resilience counters. Smoke runs the micro × crash cell only.
"""

from __future__ import annotations

from repro.analysis.recovery import fault_recovery_report, summarize
from repro.cluster.resources import ResourceVector
from repro.workloads.bigdata import Stage

from benchmarks.scenarios import build_platform, deploy_service_mix

#: Fault injected here, well past controller convergence.
FAULT_AT = 1200.0
#: Crash / degradation heal delay (the infrastructure MTTR).
INFRA_HEAL = 240.0
#: Metrics-pipeline and actuation fault window.
PIPELINE_WINDOW = 120.0
DURATION = 2400.0
NODE = "node-01"
SEED = 11

FAULT_CLASSES = (
    "crash", "degradation", "scrape-drop", "stale-metrics", "actuation",
)
WORKLOADS = ("micro", "bigdata")


def _deploy(platform, workload: str) -> list[str]:
    if workload == "micro":
        return deploy_service_mix(platform)
    # One deadline-managed analytics job sized to outlast the run (the
    # deadline sits past the horizon), so the deadline PLO is live before,
    # during, and after the fault and the controller paces rather than
    # races the job.
    platform.submit_bigdata(
        "etl",
        stages=[
            Stage("scan", 24_000.0, input_mb=12_000),
            Stage("agg", 14_000.0, input_mb=400, deps=("scan",)),
        ],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=80, net_bw=60),
        executors=3,
        deadline=6000.0,
        managed=True,
    )
    return ["etl"]


def _arm_fault(platform, fault: str, apps: list[str]) -> None:
    """Schedule one fault episode of the given class at FAULT_AT."""
    engine = platform.engine

    def strike() -> None:
        now = engine.now
        if fault == "crash":
            platform.injector.fail_node(NODE)
            engine.schedule(
                INFRA_HEAL, lambda: platform.injector.recover_node(NODE)
            )
        elif fault == "degradation":
            platform.degrader.degrade_node(NODE, 0.35)
            engine.schedule(
                INFRA_HEAL, lambda: platform.degrader.restore_node(NODE)
            )
        elif fault == "scrape-drop":
            platform.metrics_faults.drop_scrapes(now, PIPELINE_WINDOW)
        elif fault == "stale-metrics":
            for app in apps:
                platform.metrics_faults.freeze(f"app/{app}", now, PIPELINE_WINDOW)
        elif fault == "actuation":
            platform.actuation_faults.outage(now, PIPELINE_WINDOW)
        else:
            raise ValueError(f"unknown fault class {fault!r}")

    engine.schedule(FAULT_AT, strike)


def _run_cell(workload: str, fault: str, seed: int) -> dict:
    platform = build_platform("adaptive", nodes=6, seed=seed)
    apps = _deploy(platform, workload)
    _arm_fault(platform, fault, apps)

    # Zero-unhandled-exceptions criterion: any escape fails the cell.
    platform.run(DURATION)

    manager = platform.policy.manager
    # Deadline errors drift in a wider band than latency errors while the
    # controller paces the job, so the settle threshold is looser there.
    threshold = 0.5 if workload == "bigdata" else 0.35
    episodes = fault_recovery_report(
        platform.fault_log, platform.collector, apps,
        threshold=threshold, settle=3,
    )
    return {
        "workload": workload,
        "fault": fault,
        "agg": summarize(episodes),
        "reconvergence": [e.reconvergence for e in episodes],
        "stats": manager.resilience_stats(),
        "apps": {app: manager.entry_resilience(app) for app in apps},
        "events": platform.engine.events_executed,
        "fault_log": platform.fault_log,
    }


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        grid = (("micro", "crash"),)
    else:
        grid = tuple(
            (workload, fault)
            for workload in WORKLOADS for fault in FAULT_CLASSES)
    cells = [_run_cell(workload, fault, seed) for workload, fault in grid]
    metrics: dict = {"cells": len(cells)}
    for cell in cells:
        agg = cell["agg"]
        label = f"{cell['workload']}/{cell['fault']}"
        metrics[f"healed/{label}"] = (
            agg.episodes >= 1 and agg.healed == agg.episodes
            and agg.unconverged == 0)
        metrics[f"mttr/{label}"] = agg.max_mttr
    metrics["cells_healed"] = sum(
        1 for cell in cells
        if metrics[f"healed/{cell['workload']}/{cell['fault']}"])
    return {
        "seed": seed,
        "events_executed": sum(cell["events"] for cell in cells),
        "metrics": metrics,
        "cells": cells,
    }


def check_case(case: dict) -> None:
    for cell in case["cells"]:
        agg, stats = cell["agg"], cell["stats"]
        where = f"{cell['workload']} × {cell['fault']}"
        assert agg.episodes >= 1, f"{where}: fault was never injected"
        assert agg.healed == agg.episodes, f"{where}: an episode never healed"
        assert agg.unconverged == 0 and agg.max_reconvergence is not None, (
            f"{where}: PLO error never re-converged: {cell['reconvergence']}"
        )
        if cell["fault"] == "scrape-drop":
            # Signal loss must drive every managed app through safe mode
            # and back out once scrapes resume.
            for app, res in cell["apps"].items():
                assert res["safe_mode_entries"] >= 1, (
                    f"{where}: {app} never entered safe mode")
                assert res["safe_mode_exits"] >= 1, (
                    f"{where}: {app} never exited safe mode")
                assert not res["safe_mode"], f"{where}: {app} stuck in safe mode"
        if cell["fault"] == "actuation" and cell["workload"] == "micro":
            # The service mix actuates nearly every period, so the outage
            # must surface as absorbed failures and backoff retries.
            assert stats["actuation_failures"] > 0, (
                f"{where}: outage never hit an actuation")
            assert stats["retries"] > 0, (
                f"{where}: failed actuations were never retried")


def _seconds(value: float | None) -> str:
    return "never" if value is None else f"{value:.0f}s"


def format_case(case: dict) -> list[str]:
    lines = []
    for cell in case["cells"]:
        agg, stats = cell["agg"], cell["stats"]
        lines.append(
            f"T7 {cell['workload']:>7s} × {cell['fault']:<13s} "
            f"episodes={agg.episodes} healed={agg.healed} "
            f"mttr={_seconds(agg.max_mttr)} "
            f"reconverge={_seconds(agg.max_reconvergence)} "
            f"safe_mode={stats['safe_mode_entries']} "
            f"retries={stats['retries']} "
            f"act_fail={stats['actuation_failures']} "
            f"breaker={stats['breaker_trips']}"
        )
    return lines
