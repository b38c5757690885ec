"""R-T3 — Ablation of the controller's design choices.

Three sub-experiments, each isolating one mechanism:

* **adaptive vs fixed gains** — a 6× load step under deliberately weak
  baseline gains; the tuner detects the sluggish loop and amplifies, the
  fixed controller crawls.
* **multi-resource vs CPU-only** — the moving-bottleneck service; only a
  controller that can actuate disk/network fixes phases 2 and 3.
* **deadband vs none** — a throughput-PLO service at its equilibrium
  (error ≈ 0) with noisy load; without a deadband every metric wiggle
  becomes a resize.

Smoke runs the gains pair only; full adds the other two.
"""

from repro.analysis.report import format_table
from repro.cluster.events import PodResized
from repro.cluster.resources import ResourceVector
from repro.control.pid import PIDGains
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import ThroughputPLO
from repro.workloads.traces import ConstantTrace, NoisyTrace
from benchmarks.scenarios import (
    HOUR,
    build_platform,
    phase_shift_service,
    step_load_service,
)

SEED = 7
WEAK = PIDGains(kp=0.05, ki=0.005, kd=0.0)


def _platform(policy_kwargs: dict, seed: int):
    return build_platform("adaptive", nodes=4, seed=seed,
                          policy_kwargs={"horizontal": False, **policy_kwargs})


def run_step(policy_kwargs: dict, seed: int):
    platform = _platform(policy_kwargs, seed)
    app = step_load_service(platform, factor=6.0, step_at=HOUR / 2)
    platform.run(1.5 * HOUR)
    return platform.result().trackers[app].violation_fraction, platform


def run_shift(policy_kwargs: dict, seed: int):
    platform = _platform(policy_kwargs, seed)
    app = phase_shift_service(platform)
    platform.run(3 * HOUR)
    return platform.result().trackers[app].violation_fraction, platform


def run_noisy_throughput(policy_kwargs: dict, seed: int):
    platform = _platform(policy_kwargs, seed)
    resizes = [0]
    platform.api.watch(PodResized, lambda e: resizes.__setitem__(0, resizes[0] + 1))
    # Target equals the mean offered rate: at the controller's equilibrium
    # the error hovers around zero and metric noise is all that remains —
    # exactly where the deadband earns its keep.
    trace = NoisyTrace(ConstantTrace(100), rel_std=0.15, bucket=60,
                       horizon=3 * HOUR, rng=platform.rng.stream("trace/noise"))
    platform.deploy_microservice(
        "pipe",
        trace=trace,
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
        allocation=ResourceVector(cpu=1.2, memory=1.5, disk_bw=20, net_bw=20),
        plo=ThroughputPLO(100.0, window=30),
    )
    platform.run(2 * HOUR)
    violations = platform.result().trackers["pipe"].violation_fraction
    return (resizes[0], violations), platform


def run_case(mode: str, seed: int = SEED) -> dict:
    variants = [
        ("violations/adaptive_weak", run_step, {"gains": WEAK}),
        ("violations/fixed_weak", run_step, {"gains": WEAK, "adaptive": False}),
    ]
    if mode == "full":
        variants += [
            ("violations/multi", run_shift, {}),
            ("violations/cpu_only", run_shift, {"dimensions": ("cpu",)}),
            ("resizes/deadband", run_noisy_throughput, {"deadband": 0.1}),
            ("resizes/no_deadband", run_noisy_throughput, {"deadband": 0.0}),
        ]
    events = 0
    metrics: dict = {}
    noisy_violations: dict = {}
    for key, run, policy_kwargs in variants:
        value, platform = run(policy_kwargs, seed)
        if key.startswith("resizes/"):
            value, noisy_violations[key] = value
        metrics[key] = value
        events += platform.engine.events_executed
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "noisy_violations": noisy_violations,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    # Shape assertions: each mechanism pulls its weight.
    assert m["violations/adaptive_weak"] < m["violations/fixed_weak"]
    if "violations/multi" in m:
        assert m["violations/multi"] < m["violations/cpu_only"] / 2
    if "resizes/deadband" in m:
        assert m["resizes/deadband"] < m["resizes/no_deadband"]
        # The deadband does not trade violations for quiet.
        noisy = case["noisy_violations"]
        assert noisy["resizes/deadband"] <= noisy["resizes/no_deadband"] + 0.05


_ROWS = {
    "violations/multi": ("multi-resource (full)", "moving bottleneck, 3 h"),
    "violations/cpu_only": ("  ablate: cpu-only", "moving bottleneck, 3 h"),
    "violations/adaptive_weak": ("adaptive gains (weak base)",
                                 "6x load step, 1.5 h"),
    "violations/fixed_weak": ("  ablate: fixed gains", "6x load step, 1.5 h"),
    "resizes/deadband": ("deadband 0.1", "noisy throughput PLO, 2 h"),
    "resizes/no_deadband": ("  ablate: deadband 0", "noisy throughput PLO, 2 h"),
}


def format_case(case: dict) -> list[str]:
    rows = []
    for key, (variant, scenario) in _ROWS.items():
        if key in case["metrics"]:
            value = case["metrics"][key]
            result = (f"{value} resizes" if key.startswith("resizes/")
                      else f"{value:.1%}")
            rows.append([variant, result, scenario])
    return [
        "R-T3: controller ablations",
        format_table(["variant", "result", "scenario"], rows),
    ]
