"""R-F2 — Controller convergence after a load step.

For load steps of 2×, 4×, and 6×: how long until the PLO is met again
(ratio back ≤ 1 and holding), and how far latency peaked meanwhile —
with adaptive gains on and off. The figure shows recovery time growing
sub-linearly with step size: actuation is error-proportional, so a
bigger violation produces a bigger correction. Smoke runs the 4× step
with adaptive gains only.
"""

from repro.analysis.report import format_table
from repro.analysis.stats import recovery_time
from benchmarks.scenarios import HOUR, build_platform, step_load_service

SEED = 7
STEP_AT = HOUR / 2
DURATION = 1.5 * HOUR
FACTORS = (2.0, 4.0, 6.0)


def run_step(factor: float, adaptive: bool, seed: int) -> dict:
    platform = build_platform(
        "adaptive", nodes=4, seed=seed,
        policy_kwargs={"horizontal": False, "adaptive": adaptive},
    )
    app = step_load_service(platform, factor=factor, step_at=STEP_AT)
    platform.collector.declare(f"plo/{app}/ratio")
    platform.run(DURATION)
    series = platform.collector.series(f"plo/{app}/ratio")
    times, values = series.to_lists()
    return {
        "factor": factor,
        "adaptive": adaptive,
        "recovery_s": recovery_time(
            series, after=STEP_AT, threshold=1.0, hold=120.0),
        "peak_ratio": max(
            (v for t, v in zip(times, values) if t >= STEP_AT), default=0.0),
        "violation": platform.result().trackers[app].violation_fraction,
        "events": platform.engine.events_executed,
    }


def _label(row: dict) -> str:
    return f"{row['factor']:g}x_{'adaptive' if row['adaptive'] else 'fixed'}"


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        combos = ((4.0, True),)
    else:
        combos = tuple((f, adaptive) for f in FACTORS for adaptive in (True, False))
    rows = [run_step(factor, adaptive, seed) for factor, adaptive in combos]
    metrics: dict = {}
    for row in rows:
        metrics[f"recovery_s/{_label(row)}"] = row["recovery_s"]
        metrics[f"peak_ratio/{_label(row)}"] = row["peak_ratio"]
    return {
        "seed": seed,
        "events_executed": sum(row["events"] for row in rows),
        "metrics": metrics,
        "rows": rows,
    }


def check_case(case: dict) -> None:
    # Shape: the adaptive loop settles for every step size, within minutes.
    for row in case["rows"]:
        if row["adaptive"]:
            assert row["recovery_s"] is not None, f"{_label(row)} never settled"
            assert row["recovery_s"] < 600.0, f"{_label(row)} settled too late"


def format_case(case: dict) -> list[str]:
    rows = [
        [
            f"{row['factor']:.0f}x",
            "adaptive" if row["adaptive"] else "fixed",
            "n/a" if row["recovery_s"] is None else f"{row['recovery_s']:.0f} s",
            f"{row['peak_ratio']:.1f}x",
            f"{row['violation']:.1%}",
        ]
        for row in case["rows"]
    ]
    return [
        "R-F2: recovery time and peak PLO ratio after a load step",
        format_table(
            ["step", "gains", "recovery time", "peak ratio", "violation time"],
            rows,
        ),
    ]
