"""R-F1 — Latency timeline under diurnal + flash-crowd load, per policy.

The figure behind R-T1's headline number: p99 latency of the ``web``
service sampled every 5 minutes for each policy, so *when* each policy
violates is visible (static: whole peak; VPA: every ramp; HPA: flash
crowd only; adaptive: brief transients). Smoke runs adaptive alone for
one hour.
"""

from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 42
SAMPLE = 300.0
PLO_TARGET = 0.05
#: Buckets before this are controller warm-up.
WARM = 600.0


def run_policy(policy: str, seed: int, duration: float):
    """Worst web latency per SAMPLE bucket, plus the finished platform."""
    platform = build_platform(policy, nodes=6, seed=seed)
    deploy_service_mix(platform)
    platform.collector.declare("app/web/latency")
    platform.run(duration)
    times, values = platform.collector.series("app/web/latency").to_lists()
    buckets: dict[float, float] = {}
    for t, v in zip(times, values):
        bucket = int(t // SAMPLE) * SAMPLE
        buckets[bucket] = max(buckets.get(bucket, 0.0), v)
    return buckets, platform


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        policies, duration = ("adaptive",), HOUR
    else:
        policies, duration = ("static", "hpa", "vpa", "adaptive"), 3 * HOUR
    events = 0
    metrics: dict = {}
    timelines: dict = {}
    for policy in policies:
        buckets, platform = run_policy(policy, seed, duration)
        timelines[policy] = buckets
        metrics[f"worst_bucket_ms/{policy}"] = max(
            v for t, v in buckets.items() if t >= WARM) * 1000
        events += platform.engine.events_executed
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "timelines": timelines,
    }


def check_case(case: dict) -> None:
    timelines = case["timelines"]
    # Shape: the flash crowd (t≈130 min) and the peaks are visible for
    # static, while adaptive spends most warm buckets under target.
    if "static" in timelines:
        assert case["metrics"]["worst_bucket_ms/static"] > PLO_TARGET * 2000
    warm = [v for t, v in timelines["adaptive"].items() if t >= WARM]
    ok_buckets = sum(1 for v in warm if v <= PLO_TARGET * 1.2)
    assert ok_buckets / len(warm) > 0.7


def format_case(case: dict) -> list[str]:
    timelines = case["timelines"]
    rows = [
        [
            f"{t / 60:.0f}",
            *(f"{timeline.get(t, float('nan')) * 1000:.0f}"
              for timeline in timelines.values()),
        ]
        for t in sorted(timelines["adaptive"])
    ]
    return [
        "R-F1: worst p99 latency (ms) per 5-min bucket, web service "
        f"(target {PLO_TARGET * 1000:.0f} ms)",
        format_table(["t (min)", *timelines], rows),
    ]
