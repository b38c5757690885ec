"""R-T6 — Robustness of the headline result across seeds.

The R-T1 scenario re-run under five different random seeds (which move
the bursty trace, noise, and arrival phases). Reports the per-seed
violation fractions and the adaptive-vs-static improvement factor.
Shape expected: the ordering never flips and the improvement stays a
large multiple for every seed — the headline is not a lucky draw.
Smoke runs the first two seeds for one hour.
"""

import statistics

from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 1


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        seeds, duration = (seed, seed + 1), HOUR
    else:
        seeds, duration = tuple(range(seed, seed + 5)), 3 * HOUR
    events = 0
    metrics: dict = {}
    rows = []
    for run_seed in seeds:
        per_policy = {}
        for policy in ("static", "adaptive"):
            platform = build_platform(policy, nodes=6, seed=run_seed)
            deploy_service_mix(platform)
            platform.run(duration)
            per_policy[policy] = platform.result().total_violation_fraction()
            events += platform.engine.events_executed
        improvement = per_policy["static"] / max(per_policy["adaptive"], 1e-6)
        metrics[f"improvement/seed-{run_seed}"] = improvement
        rows.append((run_seed, per_policy["static"], per_policy["adaptive"],
                     improvement))
    improvements = [row[-1] for row in rows]
    metrics["min_improvement"] = min(improvements)
    metrics["mean_improvement"] = sum(improvements) / len(improvements)
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "rows": rows,
    }


def check_case(case: dict) -> None:
    # Shape: the headline holds for every seed, comfortably past the
    # paper-lineage 7.4x claim on average.
    assert case["metrics"]["min_improvement"] > 5.0
    assert case["metrics"]["mean_improvement"] > 7.4


def format_case(case: dict) -> list[str]:
    rows = [
        [seed, f"{static:.1%}", f"{adaptive:.1%}", f"{improvement:.1f}x"]
        for seed, static, adaptive, improvement in case["rows"]
    ]
    improvements = [row[-1] for row in case["rows"]]
    rows.append([
        "mean", "", "",
        f"{statistics.mean(improvements):.1f}x ± "
        f"{statistics.pstdev(improvements):.1f}",
    ])
    return [
        "R-T6: adaptive-vs-static violation improvement across seeds "
        f"({case['duration'] / HOUR:g} h service mix)",
        format_table(["seed", "static", "adaptive", "improvement"], rows),
    ]
