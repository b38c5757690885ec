"""R-F5 — Control-plane scalability.

Wall-clock cost of the control plane as the number of managed
applications grows (with the cluster scaled to hold them): one simulated
hour of platform time per configuration. Reported series: wall seconds
and controller decisions per managed app count. Shape: cost grows
roughly linearly with app count — the per-app control loop has no
quadratic interactions. Smoke runs the 8-app point only; wall times
are reported under ``timing``.
"""

import time

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace
from benchmarks.scenarios import HOUR, build_platform

SEED = 3
APP_COUNTS = (4, 8, 16, 32)
DURATION = 1 * HOUR


def run_scale(apps: int, seed: int = SEED):
    platform = build_platform("adaptive", nodes=max(4, apps // 2), seed=seed)
    for i in range(apps):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=HOUR,
                               phase=i * 120.0),
            demands=ServiceDemands(cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05,
                                   base_latency=0.01),
            allocation=ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15),
            plo=LatencyPLO(0.06, window=30),
        )
    start = time.perf_counter()
    platform.run(DURATION)
    wall = time.perf_counter() - start
    decisions = sum(c.decisions for c in platform.policy.controllers.values())
    events = platform.engine.events_executed
    violations = platform.result().total_violation_fraction()
    return wall, decisions, events, violations


def run_case(mode: str, seed: int = SEED) -> dict:
    counts = (8,) if mode == "smoke" else APP_COUNTS
    events = 0
    metrics: dict = {}
    timing: dict = {}
    for apps in counts:
        wall, decisions, run_events, violations = run_scale(apps, seed)
        timing[f"wall_s/{apps}-apps"] = wall
        metrics[f"decisions/{apps}-apps"] = decisions
        metrics[f"events/{apps}-apps"] = run_events
        metrics[f"violations/{apps}-apps"] = violations
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "timing": timing,
        "counts": counts,
    }


def check_case(case: dict) -> None:
    m, timing, counts = case["metrics"], case["timing"], case["counts"]
    # Shape: near-linear scaling — 8× the apps costs well under 32× the
    # wall time — and control quality does not degrade with scale.
    if len(counts) > 1:
        ratio = timing[f"wall_s/{counts[-1]}-apps"] / timing[
            f"wall_s/{counts[0]}-apps"]
        assert ratio < 32, f"wall time grew {ratio:.1f}x"
    assert m[f"violations/{counts[-1]}-apps"] < 0.2


def format_case(case: dict) -> list[str]:
    m, timing = case["metrics"], case["timing"]
    rows = []
    for apps in case["counts"]:
        wall = timing[f"wall_s/{apps}-apps"]
        events = m[f"events/{apps}-apps"]
        rows.append([
            apps,
            f"{wall:.2f} s",
            m[f"decisions/{apps}-apps"],
            events,
            f"{events / wall:,.0f}",
            f"{m[f'violations/{apps}-apps']:.1%}",
        ])
    return [
        "R-F5: control-plane cost for 1 simulated hour vs managed apps",
        format_table(
            ["apps", "wall time", "decisions", "sim events", "events/s",
             "violations"],
            rows,
        ),
    ]
