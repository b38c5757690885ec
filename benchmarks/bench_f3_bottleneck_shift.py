"""R-F3 — Multi-resource adaptation as the bottleneck moves.

The phase-shifting service (CPU → disk → network every 20 min) under the
full controller. The figure series: per-dimension allocation over time,
showing each allocation rising in its phase and being reclaimed
afterwards, plus the same run with the CPU-only ablation flatlining.
Smoke runs the full controller only.
"""

from repro.analysis.cost import cost_series
from repro.analysis.report import format_table
from repro.cluster.resources import RESOURCES
from benchmarks.scenarios import (
    PHASE_LEN,
    build_platform,
    phase_shift_service,
)

SEED = 7
DURATION = 3 * PHASE_LEN
SAMPLE = 300.0


def run_variant(dimensions, seed: int) -> dict:
    kwargs: dict = {"horizontal": False}
    if dimensions:
        kwargs["dimensions"] = dimensions
    platform = build_platform("adaptive", nodes=4, seed=seed, policy_kwargs=kwargs)
    app = phase_shift_service(platform)
    platform.collector.declare(*cost_series(app))
    platform.run(DURATION)
    series = {r: platform.collector.series(f"app/{app}/alloc/{r}")
              for r in RESOURCES}
    samples = [
        (t, {r: series[r].value_at(t) for r in RESOURCES})
        for t in (SAMPLE * i for i in range(1, int(DURATION // SAMPLE) + 1))
    ]
    return {
        "violations": platform.result().trackers[app].violation_fraction,
        "samples": samples,
        "events": platform.engine.events_executed,
    }


def run_case(mode: str, seed: int = SEED) -> dict:
    variants = {"multi": None}
    if mode == "full":
        variants["cpu_only"] = ("cpu",)
    runs = {label: run_variant(dims, seed) for label, dims in variants.items()}
    return {
        "seed": seed,
        "events_executed": sum(run["events"] for run in runs.values()),
        "metrics": {
            f"violations/{label}": run["violations"]
            for label, run in runs.items()
        },
        "samples": runs["multi"]["samples"],
    }


def check_case(case: dict) -> None:
    samples = case["samples"]

    def mean_alloc(phase_index, resource):
        lo = phase_index * PHASE_LEN
        hi = (phase_index + 1) * PHASE_LEN
        values = [a[resource] for t, a in samples if lo < t <= hi]
        return sum(values) / len(values)

    # Shape: each dimension peaks in its own phase.
    assert mean_alloc(0, "cpu") > mean_alloc(2, "cpu")
    assert mean_alloc(1, "disk_bw") > mean_alloc(0, "disk_bw")
    assert mean_alloc(2, "net_bw") > mean_alloc(0, "net_bw")
    # And the ablation is far worse overall.
    m = case["metrics"]
    if "violations/cpu_only" in m:
        assert m["violations/multi"] < m["violations/cpu_only"] / 2


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = [
        [
            f"{t / 60:.0f}",
            ("cpu" if t <= PHASE_LEN else
             "disk" if t <= 2 * PHASE_LEN else "net"),
            f"{alloc['cpu']:.2f}",
            f"{alloc['disk_bw']:.0f}",
            f"{alloc['net_bw']:.0f}",
        ]
        for t, alloc in case["samples"]
    ]
    summary = f"multi-resource violations: {m['violations/multi']:.1%}"
    if "violations/cpu_only" in m:
        summary += f"; cpu-only ablation: {m['violations/cpu_only']:.1%}"
    return [
        "R-F3: per-dimension allocation as the bottleneck moves "
        "(multi-resource controller)",
        format_table(
            ["t (min)", "phase", "cpu (cores)", "disk (MB/s)", "net (MB/s)"],
            rows,
        ),
        summary,
    ]
