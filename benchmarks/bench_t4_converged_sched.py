"""R-T4 — Scheduler quality: converged vs siloed vs vanilla kube.

The mixed-worlds arrival trace (services + big-data DAGs + HPC gangs) on
the same 6-node cluster, scheduled three ways. Reports microservice PLO
violations, batch makespans, HPC gang waits, and cluster usage.

Shape expected: the converged scheduler admits every gang quickly (silos
strand the 32-core gangs forever), finishes analytics at least as fast
(locality), and keeps service PLOs intact despite co-location.
"""

from repro.analysis.report import format_table
from benchmarks.scenarios import (
    HOUR,
    build_platform,
    deploy_batch_churn,
    deploy_gang_rush,
    deploy_service_mix,
)

SEED = 23


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _fmt(value, suffix=""):
    return "never" if value is None else f"{value:.0f}{suffix}"


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        schedulers, duration = ("converged",), 1.5 * HOUR
    else:
        schedulers, duration = ("kube", "siloed", "converged"), 4 * HOUR
    events = 0
    metrics: dict = {}
    rows: dict = {}
    for scheduler in schedulers:
        platform = build_platform("adaptive", nodes=6, seed=seed,
                                  scheduler=scheduler)
        services = deploy_service_mix(platform)
        batches = deploy_batch_churn(platform, start=0.25 * HOUR)
        gangs = deploy_gang_rush(platform)
        platform.run(duration)
        result = platform.result()
        metrics[f"svc_violations/{scheduler}"] = sum(
            result.violation_fraction(s) for s in services) / len(services)
        metrics[f"gangs_done/{scheduler}"] = sum(
            1 for g in gangs if result.makespans[g] is not None)
        metrics[f"usage/{scheduler}"] = result.utilization.overall_usage
        rows[scheduler] = {
            "worst_svc_violations": max(
                result.violation_fraction(s) for s in services),
            "batch_makespan": _mean([result.makespans[b] for b in batches]),
            "gang_wait": _mean([result.hpc_waits[g] for g in gangs]),
            "gangs": len(gangs),
        }
        events += platform.engine.events_executed
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "rows": rows,
    }


def check_case(case: dict) -> None:
    m, rows = case["metrics"], case["rows"]
    # Shape: converged runs every gang; silos strand them (4×8-core gangs
    # cannot fit any 2-node pool).
    assert m["gangs_done/converged"] == rows["converged"]["gangs"]
    if "siloed" in rows:
        assert m["gangs_done/siloed"] == 0
    # Co-location does not wreck the services.
    assert rows["converged"]["worst_svc_violations"] < 0.25


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = [
        [
            scheduler,
            f"{m[f'svc_violations/{scheduler}']:.1%}",
            _fmt(row["batch_makespan"], " s"),
            _fmt(row["gang_wait"], " s"),
            f"{m[f'gangs_done/{scheduler}']}/{row['gangs']}",
            f"{m[f'usage/{scheduler}']:.1%}",
        ]
        for scheduler, row in case["rows"].items()
    ]
    return [
        "R-T4: one mixed-worlds trace, three schedulers "
        f"({case['duration'] / HOUR:g} h, 6 nodes)",
        format_table(
            ["scheduler", "svc violations", "batch makespan",
             "gang wait", "gangs done", "cluster usage"],
            rows,
        ),
    ]
