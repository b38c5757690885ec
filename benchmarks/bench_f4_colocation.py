"""R-F4 — Converged co-location over time: utilization and HPC waits.

A stream of HPC gangs arriving through a day of services + analytics,
on the shared cluster vs the siloed partition. Figure series: cluster
usage per 30 minutes for both schedulers, plus gang wait times. Shape:
the converged cluster runs hotter (one pool absorbs every world's peaks)
and serves gangs that the HPC silo cannot even admit. Smoke runs the
converged scheduler alone, two gangs over two hours.
"""

from repro.analysis.report import format_table
from benchmarks.scenarios import (
    HOUR,
    build_platform,
    deploy_batch_churn,
    deploy_hpc_stream,
    deploy_service_mix,
)

SEED = 31
BUCKET = 1800.0


def run_scheduler(scheduler: str, seed: int, duration: float, gangs: int):
    platform = build_platform("adaptive", nodes=6, seed=seed, scheduler=scheduler)
    deploy_service_mix(platform)
    deploy_batch_churn(platform, start=0.25 * HOUR)
    names = deploy_hpc_stream(platform, count=gangs, spacing=0.75 * HOUR)
    platform.run(duration)
    result = platform.result()
    series = platform.collector.series("cluster/usage_frac/cpu")
    return {
        "mean_usage": series.integrate(0.0, duration) / duration,
        "usage": {
            start: series.integrate(start, start + BUCKET) / BUCKET
            for start in range(0, int(duration), int(BUCKET))
        },
        "waits": {g: result.hpc_waits.get(g) for g in names},
        "events": platform.engine.events_executed,
    }


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        schedulers, duration, gangs = ("converged",), 2 * HOUR, 2
    else:
        schedulers, duration, gangs = ("converged", "siloed"), 4 * HOUR, 4
    runs = {s: run_scheduler(s, seed, duration, gangs) for s in schedulers}
    metrics: dict = {}
    for scheduler, run in runs.items():
        metrics[f"mean_cpu_usage/{scheduler}"] = run["mean_usage"]
        metrics[f"gangs_served/{scheduler}"] = sum(
            1 for wait in run["waits"].values() if wait is not None)
    return {
        "seed": seed,
        "events_executed": sum(run["events"] for run in runs.values()),
        "metrics": metrics,
        "runs": runs,
    }


def check_case(case: dict) -> None:
    m, runs = case["metrics"], case["runs"]
    # Shape: converged admits every gang; the 2-node HPC silo cannot
    # host 4×8-core gangs at all, and the shared cluster runs hotter.
    assert m["gangs_served/converged"] == len(runs["converged"]["waits"])
    if "siloed" in runs:
        assert m["gangs_served/siloed"] == 0
        assert m["mean_cpu_usage/converged"] > 1.5 * m["mean_cpu_usage/siloed"]


def _wait(value) -> str:
    return "never" if value is None else f"{value:.0f} s"


def format_case(case: dict) -> list[str]:
    runs = case["runs"]
    usage_rows = [
        [f"{t / 60:.0f}-{(t + BUCKET) / 60:.0f}",
         *(f"{run['usage'][t]:.1%}" for run in runs.values())]
        for t in sorted(runs["converged"]["usage"])
    ]
    wait_rows = [
        [gang, *(_wait(run["waits"][gang]) for run in runs.values())]
        for gang in runs["converged"]["waits"]
    ]
    return [
        "R-F4: cluster CPU usage per 30-min bucket",
        format_table(["t (min)", *runs], usage_rows),
        "R-F4: HPC gang queue waits",
        format_table(["gang", *runs], wait_rows),
    ]
