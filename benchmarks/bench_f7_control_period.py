"""R-F7 — Sensitivity to the control period.

The service mix under the adaptive policy with control periods from 5 s
to 80 s. Figure series: violation time and resize count vs period.
Shape expected: violations grow with the period (slower reaction to
transients) while actuation churn falls; the default (10 s) sits at the
knee. This is the cadence-vs-stability trade every deployed controller
must pick, so the evaluation documents it. Smoke runs 10 s and 80 s for
one hour.
"""

from repro.analysis.report import format_table
from repro.cluster.events import PodResized
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from benchmarks.scenarios import HOUR, deploy_service_mix

SEED = 42
PERIODS = (5.0, 10.0, 20.0, 40.0, 80.0)


def run_period(period: float, seed: int, duration: float):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=6),
        config=PlatformConfig(seed=seed, control_interval=period),
        scheduler="converged",
        policy="adaptive",
    )
    resizes = [0]
    platform.api.watch(PodResized, lambda e: resizes.__setitem__(0, resizes[0] + 1))
    deploy_service_mix(platform)
    platform.run(duration)
    violations = platform.result().total_violation_fraction()
    return violations, resizes[0], platform.engine.events_executed


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        periods, duration = (10.0, 80.0), HOUR
    else:
        periods, duration = PERIODS, 3 * HOUR
    events = 0
    metrics: dict = {}
    for period in periods:
        violations, resizes, run_events = run_period(period, seed, duration)
        metrics[f"violations/{period:g}s"] = violations
        metrics[f"resizes/{period:g}s"] = resizes
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "periods": periods,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    fastest, slowest = f"{case['periods'][0]:g}s", f"{case['periods'][-1]:g}s"
    # Shape: slower loops violate more and resize less.
    assert m[f"violations/{slowest}"] > m[f"violations/{fastest}"]
    assert m[f"resizes/{slowest}"] < m[f"resizes/{fastest}"]
    # The default period keeps violations in single digits.
    assert m["violations/10s"] < 0.10


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = [
        [f"{period:.0f} s", f"{m[f'violations/{period:g}s']:.1%}",
         m[f"resizes/{period:g}s"]]
        for period in case["periods"]
    ]
    return [
        "R-F7: violation time and resize churn vs control period "
        f"(service mix, {case['duration'] / HOUR:g} h)",
        format_table(["control period", "violation time", "resizes"], rows),
    ]
