"""R-T2 — Cluster resource utilization per policy.

The over-provisioning scenario: the same three services sized by their
users for peak load (the Kubernetes norm), plus background batch churn.
Reports mean allocated and used fractions of the cluster, per resource.
Shape expected: the adaptive controller's continuous reclaim roughly
doubles effective utilization (usage/alloc) versus the static baseline.
"""

from repro.analysis.report import format_table
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace
from benchmarks.scenarios import HOUR, build_platform, deploy_batch_churn

SEED = 17


def deploy_overprovisioned_mix(platform):
    """Six services sized ~4× their mean demand (peak + safety margin)."""
    for i in range(6):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=80, amplitude=50, period=2 * HOUR,
                               phase=i * 1200.0),
            demands=ServiceDemands(cpu_seconds=0.008, disk_mb=0.2, net_mb=0.1,
                                   base_latency=0.01),
            allocation=ResourceVector(cpu=3, memory=6, disk_bw=120, net_bw=80),
            plo=LatencyPLO(0.06, window=30),
        )
    return [f"svc-{i}" for i in range(6)]


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        policies, duration = ("static", "adaptive"), HOUR
    else:
        policies, duration = ("static", "vpa", "adaptive"), 4 * HOUR
    events = 0
    metrics: dict = {}
    results: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=seed)
        deploy_overprovisioned_mix(platform)
        deploy_batch_churn(platform, start=0.5 * HOUR)
        platform.run(duration)
        results[policy] = platform.result()
        util = results[policy].utilization
        metrics[f"efficiency/{policy}"] = util.overall_usage / max(
            util.overall_alloc, 1e-9
        )
        events += platform.engine.events_executed
    metrics["utilization_gain"] = metrics["efficiency/adaptive"] / max(
        metrics["efficiency/static"], 1e-9
    )
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "results": results,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    # Shape: reclaim at least doubles usage/alloc efficiency, and violations
    # do not explode while doing it.
    assert metrics["efficiency/adaptive"] > 2 * metrics["efficiency/static"]
    assert case["results"]["adaptive"].total_violation_fraction() < 0.15


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    rows = []
    for policy, result in case["results"].items():
        util = result.utilization
        rows.append([
            policy,
            *(f"{util.mean_alloc[r]:.1%}" for r in RESOURCES),
            f"{util.overall_alloc:.1%}",
            f"{metrics[f'efficiency/{policy}']:.0%}",
            f"{result.total_violation_fraction():.1%}",
        ])
    return [
        "R-T2: mean allocated cluster fraction per policy "
        f"({case['duration'] / HOUR:g} h, "
        "6 over-provisioned services + batch churn)",
        format_table(
            ["policy", *(f"alloc {r}" for r in RESOURCES), "overall",
             "usage/alloc", "violations"],
            rows,
        ),
        f"effective utilization: static {metrics['efficiency/static']:.0%} → "
        f"adaptive {metrics['efficiency/adaptive']:.0%} "
        f"({metrics['utilization_gain']:.1f}x)",
    ]
