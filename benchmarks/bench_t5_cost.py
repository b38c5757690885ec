"""R-T5 — Allocation cost per policy (the operator's view of R-T2).

The same over-provisioned service mix as R-T2, but billed: each policy's
reserved resources priced at cloud-style unit prices, against the fixed
cost of keeping the cluster provisioned. Shape expected: the adaptive
controller cuts the tenants' allocation bill by several × versus static
sizing at near-equal PLO compliance — the money version of reclaim.
"""

from repro.analysis.cost import app_cost, cluster_provisioned_cost, cost_series
from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform
from benchmarks.bench_t2_utilization import deploy_overprovisioned_mix

SEED = 17


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        policies, duration = ("static", "adaptive"), HOUR
    else:
        policies, duration = ("static", "vpa", "adaptive"), 4 * HOUR
    events = 0
    metrics: dict = {}
    violations: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=seed)
        apps = deploy_overprovisioned_mix(platform)
        for app in apps:
            platform.collector.declare(*cost_series(app))
        platform.run(duration)
        metrics[f"bill/{policy}"] = sum(
            app_cost(platform.collector, app).total
            for app in apps)
        violations[policy] = platform.result().total_violation_fraction()
        events += platform.engine.events_executed
    metrics["hardware_cost"] = cluster_provisioned_cost(
        platform.api.total_allocatable(), duration)
    metrics["bill_reduction"] = metrics["bill/static"] / max(
        metrics["bill/adaptive"], 1e-9
    )
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "violations": violations,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    # Shape: reclaim translates into a multi-x smaller bill at small
    # violation cost.
    assert m["bill/adaptive"] < m["bill/static"] / 2
    assert case["violations"]["adaptive"] < 0.15


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    hardware = m["hardware_cost"]
    rows = [
        [
            policy,
            f"${m[f'bill/{policy}']:.2f}",
            f"{m[f'bill/{policy}'] / hardware:.1%}",
            f"{violations:.1%}",
        ]
        for policy, violations in case["violations"].items()
    ]
    return [
        f"R-T5: tenant allocation bill over {case['duration'] / HOUR:g} h "
        f"(cluster hardware cost ${hardware:.2f})",
        format_table(
            ["policy", "allocation bill", "of hardware cost", "violations"],
            rows,
        ),
    ]
