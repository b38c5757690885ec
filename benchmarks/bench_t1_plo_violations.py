"""R-T1 — PLO violations per policy (the headline table).

Three services with different bottlenecks (CPU / disk / memory+net) under
dynamic load for 4 simulated hours, once per autoscaling policy. Reports
per-app and total violation time. Shape expected from the paper's claims:
the adaptive multi-resource controller cuts violations by a large factor
(Skynet-lineage claim: >7×) versus the request-based Kubernetes baseline.
"""

from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 42


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        policies, duration = ("static", "adaptive"), HOUR
    else:
        policies, duration = ("static", "hpa", "vpa", "adaptive"), 4 * HOUR
    events = 0
    metrics: dict = {}
    per_app: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=seed)
        apps = deploy_service_mix(platform)
        platform.run(duration)
        result = platform.result()
        per_app[policy] = {app: result.violation_fraction(app) for app in apps}
        metrics[f"violations/{policy}"] = result.total_violation_fraction()
        events += platform.engine.events_executed
    metrics["improvement_vs_static"] = metrics["violations/static"] / max(
        metrics["violations/adaptive"], 1e-6
    )
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "per_app": per_app,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    adaptive = metrics["violations/adaptive"]
    # Shape assertions: adaptive wins by a wide margin.
    assert adaptive < metrics["violations/static"] / 3
    for policy in ("hpa", "vpa"):
        if f"violations/{policy}" in metrics:
            assert adaptive <= metrics[f"violations/{policy}"] + 0.02


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    apps = list(case["per_app"]["adaptive"])
    rows = [
        [
            policy,
            *(f"{fraction:.1%}" for fraction in per_app.values()),
            f"{metrics[f'violations/{policy}']:.1%}",
        ]
        for policy, per_app in case["per_app"].items()
    ]
    return [
        "R-T1: PLO violation time per policy "
        f"(3 services, 6 nodes, {case['duration'] / HOUR:g} h)",
        format_table(["policy", *apps, "total"], rows),
        "adaptive improvement over static: "
        f"{metrics['improvement_vs_static']:.1f}x",
    ]
