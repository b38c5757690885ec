"""R-F11 — HPC checkpointing under failures.

An HPC gang running under a chaos monkey, with checkpoint intervals from
"none" (rank loss restarts the job) down to frequent. Figure series:
completion makespan vs checkpoint interval. Shape expected: makespan
falls steeply once any checkpointing exists and flattens — the classic
checkpoint-interval curve — while the failure-free run is unaffected by
the interval. Smoke runs the 50 s interval alone over three hours.
"""

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform

SEED = 77
JOB_DURATION = 1800.0
INTERVALS = (None, 600.0, 150.0, 50.0)


def run_job(checkpoint_interval, *, chaos: bool, seed: int, horizon: float):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed),
    )
    job = platform.submit_hpc(
        "sim", ranks=3, duration=JOB_DURATION,
        allocation=ResourceVector(cpu=6, memory=8, disk_bw=5, net_bw=80),
        checkpoint_interval=checkpoint_interval,
    )
    if chaos:
        platform.enable_chaos(mtbf=450.0, repair_time=120.0)
    platform.run(horizon)
    return job.makespan(), job.rollbacks, platform.engine.events_executed


def _label(interval) -> str:
    return "none" if interval is None else f"{interval:g}s"


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        intervals, horizon = (50.0,), 3 * 3600.0
    else:
        intervals, horizon = INTERVALS, 10 * 3600.0
    events = 0
    metrics: dict = {}
    for interval in intervals:
        makespan, rollbacks, run_events = run_job(
            interval, chaos=True, seed=seed, horizon=horizon)
        metrics[f"makespan_s/{_label(interval)}"] = makespan
        metrics[f"rollbacks/{_label(interval)}"] = rollbacks
        events += run_events
    if mode == "full":
        metrics["makespan_s/calm"], _rollbacks, run_events = run_job(
            None, chaos=False, seed=seed, horizon=horizon)
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "intervals": intervals,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    frequent = m["makespan_s/50s"]
    assert frequent is not None, "the 50 s-checkpoint job never finished"
    # Shape: checkpointing recovers most of the failure cost.
    if "makespan_s/none" in m:
        assert m["makespan_s/none"] is not None
        assert frequent < m["makespan_s/none"]
    if "makespan_s/calm" in m:
        assert frequent < m["makespan_s/calm"] * 2.0


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = []
    for interval in case["intervals"]:
        makespan = m[f"makespan_s/{_label(interval)}"]
        rows.append([
            "none (restart)" if interval is None else f"{interval:.0f} s",
            f"{makespan:.0f} s" if makespan else "never",
            m[f"rollbacks/{_label(interval)}"],
        ])
    title = (
        "R-F11: HPC makespan vs checkpoint interval under chaos "
        f"(nominal {JOB_DURATION:.0f} s"
    )
    if "makespan_s/calm" in m:
        title += f"; failure-free run: {m['makespan_s/calm']:.0f} s"
    return [
        title + ")",
        format_table(["checkpoint interval", "makespan", "rollbacks"], rows),
    ]
