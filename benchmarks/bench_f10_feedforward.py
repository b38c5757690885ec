"""R-F10 — Feedforward load anticipation (the extension experiment).

Pure-feedback vs feedback+feedforward on three surge shapes: a flash
crowd (fast exponential rise), a steep ramp, and an instant step.
Figure series: violation-seconds per surge shape for both controllers.
Shape expected: anticipation roughly halves the violation burst on
shapes with a visible rise (flash crowd, ramp) and is neutral on the
instant step (nothing to anticipate — feedback is already slammed to its
output rail by the time the loop runs). Smoke runs the flash crowd only.
"""

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import (
    CompositeTrace,
    ConstantTrace,
    FlashCrowdTrace,
    RampTrace,
    StepTrace,
)

SEED = 6
SURGE_AT = 1800.0
DURATION = 3600.0

SURGES = {
    "flash crowd": lambda: CompositeTrace([
        ConstantTrace(60.0),
        FlashCrowdTrace(start_time=SURGE_AT, peak_rate=400.0, rise=90.0,
                        decay=1200.0),
    ]),
    "ramp (5 min)": lambda: RampTrace(SURGE_AT, SURGE_AT + 300.0, 60.0, 360.0),
    "instant step": lambda: StepTrace([(0.0, 60.0), (SURGE_AT, 360.0)]),
}


def run_surge(trace_factory, feedforward: bool, seed: int):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed),
        policy="adaptive",
        policy_kwargs={"horizontal": False, "feedforward": feedforward},
    )
    platform.deploy_microservice(
        "svc",
        trace=trace_factory(),
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
        allocation=ResourceVector(cpu=1, memory=1.5, disk_bw=20, net_bw=20),
        plo=LatencyPLO(0.05, window=30),
    )
    platform.run(DURATION)
    seconds = platform.result().trackers["svc"].violation_seconds
    return seconds, platform.engine.events_executed


def _key(surge: str, feedforward: bool) -> str:
    label = surge.split(" (")[0].replace(" ", "_")
    return f"violation_s/{label}/{'feedforward' if feedforward else 'feedback'}"


def run_case(mode: str, seed: int = SEED) -> dict:
    surges = ("flash crowd",) if mode == "smoke" else tuple(SURGES)
    events = 0
    metrics: dict = {}
    for surge in surges:
        for feedforward in (False, True):
            metrics[_key(surge, feedforward)], run_events = run_surge(
                SURGES[surge], feedforward, seed)
            events += run_events
    metrics["flash_saving"] = 1 - (
        metrics["violation_s/flash_crowd/feedforward"]
        / max(metrics["violation_s/flash_crowd/feedback"], 1e-9))
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "surges": surges,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    # Shape: anticipation wins where a rise is visible, never hurts.
    for surge in case["surges"]:
        feedback, both = m[_key(surge, False)], m[_key(surge, True)]
        if surge != "instant step":
            assert both < feedback, f"{surge}: feedforward did not help"
        assert both <= feedback * 1.1, f"{surge}: feedforward hurt"


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = []
    for surge in case["surges"]:
        feedback, both = m[_key(surge, False)], m[_key(surge, True)]
        saved = 1 - both / feedback if feedback > 0 else 0.0
        rows.append([surge, f"{feedback:.0f} s", f"{both:.0f} s", f"{saved:.0%}"])
    return [
        "R-F10: violation-seconds per surge shape, feedback vs +feedforward",
        format_table(
            ["surge", "feedback only", "with feedforward", "saved"], rows
        ),
    ]
