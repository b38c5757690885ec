"""T10: overload resilience — graceful degradation instead of collapse.

The resilience work so far (T7/T8) covered infrastructure and
control-plane faults at nominal load. T10 overloads the platform itself:
a latency-sensitive web service's offered load is swept from 1× to 4× of
its sized capacity on a cluster whose spare room is already claimed by
batch analytics and best-effort filler services. Two platform builds run
the identical seeded scenario:

* **resilient** — admission control + load shedding, control-loop
  backpressure, and brownout degradation enabled
  (:class:`repro.scheduler.admission.OverloadConfig`),
* **baseline** — all three disabled (the seed-identical default).

The resilient build must degrade *gracefully*: latency-sensitive goodput
at 4× offered load stays within 25 % of its 1× value because the
admission controller sheds best-effort work first (never latency or
stream pods) and the web service rides out the peak in its browned-out
tier. The baseline build shows the collapse that motivates the feature:
its 4× goodput ratio drops well below the resilient one.

A separate resilient run takes a correlated fault — a whole availability
zone dark for five minutes via
:class:`repro.cluster.chaos.ZoneOutageInjector` — and reports containment
(blast radius) plus time-to-recover from the fault-recovery report.

Run standalone with ``python -m benchmarks.bench_t10_overload``
(``--smoke`` for the CI-sized variant).
"""

from __future__ import annotations

import argparse

from repro.analysis.recovery import fault_recovery_report, summarize
from repro.cluster.chaos import ZoneOutageInjector
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.scheduler.admission import SHED_CLASSES, OverloadConfig
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace, ScaledTrace

NODES = 6
ZONES = 3
SEED = 42
DURATION = 1800.0
#: Web offered load at 1×; demands are 100 rps/core so this is ~6 cores.
BASE_RATE = 600.0
LOAD_FACTORS = (1.0, 2.0, 4.0)
#: Per-pod ceiling. Web starts at the rail so overload shows up as
#: horizontal scale-out (pending pods the scheduler must place), which
#: is the pressure admission control manages — not as node-blocked
#: vertical resizes.
POD_CEILING = ResourceVector(cpu=4, memory=16, disk_bw=200, net_bw=500)

WEB_DEMANDS = ServiceDemands(
    cpu_seconds=0.01, disk_mb=0.02, net_mb=0.05, base_latency=0.008
)
FILLER_DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def _overload(enabled: bool) -> OverloadConfig:
    # Watermarks tuned to this topology: fillers strand ~3 cores per
    # node, so node pressure saturates near 0.8 and a 4x surge shows up
    # mostly as pending-queue depth.
    return OverloadConfig(
        admission=enabled, backpressure=enabled, brownout=enabled,
        high_watermark=0.8, low_watermark=0.65, pending_high=12,
    )


def _build(*, factor: float, resilient: bool, seed: int = SEED) -> EvolvePlatform:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=NODES, zones=ZONES),
        config=PlatformConfig(
            seed=seed,
            overload=_overload(resilient),
            max_allocation=POD_CEILING,
        ),
        scheduler="converged",
        policy="adaptive",
    )
    # The latency-sensitive service under test: its offered load is the
    # swept axis; everything else in the mix stays fixed.
    platform.deploy_microservice(
        "web",
        trace=ScaledTrace(ConstantTrace(BASE_RATE), factor),
        demands=WEB_DEMANDS,
        allocation=ResourceVector(cpu=4, memory=4, disk_bw=20, net_bw=40),
        plo=LatencyPLO(0.05, window=30),
        replicas=2,
    )
    # A stream-class consumer: protected like latency work, never shed.
    platform.deploy_microservice(
        "stream",
        trace=ConstantTrace(300.0),
        demands=FILLER_DEMANDS,
        allocation=ResourceVector(cpu=1.5, memory=2, disk_bw=10, net_bw=40),
        plo=LatencyPLO(0.08, window=30),
        labels={"shed-class": "stream"},
    )
    # Unmanaged fillers sized to claim the cluster's spare room, so the
    # web service's 4× scale-out has nowhere to go unless the admission
    # controller reclaims it from the sheddable tiers.
    for i in range(3):
        platform.deploy_microservice(
            f"batch-{i}",
            trace=ConstantTrace(200.0),
            demands=FILLER_DEMANDS,
            allocation=ResourceVector(cpu=4, memory=4, disk_bw=10, net_bw=20),
            replicas=3,
            managed=False,
            labels={"shed-class": "batch"},
        )
    for i in range(3):
        platform.deploy_microservice(
            f"be-{i}",
            trace=ConstantTrace(150.0),
            demands=FILLER_DEMANDS,
            allocation=ResourceVector(cpu=4, memory=4, disk_bw=10, net_bw=20),
            replicas=3,
            managed=False,
            labels={"shed-class": "best-effort"},
        )
    return platform


def _goodput(platform: EvolvePlatform, factor: float, duration: float) -> float:
    """Served / offered for the web service over the whole run."""
    offered = BASE_RATE * factor * duration
    return platform.apps["web"].total_served / offered


def _run_point(
    *, factor: float, resilient: bool, duration: float
) -> dict:
    platform = _build(factor=factor, resilient=resilient)
    platform.run(duration)
    web = platform.apps["web"]
    admission = platform.admission
    shed_by_class = (
        dict(admission.shed_by_class) if admission is not None
        else {cls: 0 for cls in SHED_CLASSES}
    )
    return {
        "factor": factor,
        "resilient": resilient,
        "goodput": _goodput(platform, factor, duration),
        "violations": platform.result().violation_fraction("web"),
        "shed_total": admission.shed_total if admission else 0,
        "shed_by_class": shed_by_class,
        "evicted_running": admission.evicted_running if admission else 0,
        "brownout_duty": web.brownout_seconds / duration,
        "brownouts_entered": web.brownouts_entered,
        "events": platform.engine.events_executed,
    }


def _run_zone_outage(*, duration: float) -> dict:
    """Resilient build riding out a five-minute zone outage at 2× load."""
    platform = _build(factor=2.0, resilient=True)
    dom = ZoneOutageInjector(platform.injector)
    strike_at = duration / 3.0
    heal_at = strike_at + 300.0
    token: list = []

    platform.engine.schedule(strike_at, lambda: token.append(dom.strike_zone("z0")))
    platform.engine.schedule(heal_at, lambda: dom.heal(token[0]))
    platform.run(duration)
    platform.result()  # closes any danglers before the recovery report

    episode = platform.fault_log.by_kind("zone-outage")[0]
    stats = summarize(fault_recovery_report(
        platform.fault_log, platform.collector, ["web", "stream"],
        kinds=("zone-outage",),
    ))
    # Containment: the outage fails exactly one zone's worth of nodes.
    failed_peak = int(episode.detail.split("nodes=")[1].split()[0])
    return {
        "zone_nodes_failed": failed_peak,
        "pods_displaced": dom.pods_displaced,
        "mttr_s": stats.max_mttr,
        "time_to_recover_s": stats.max_reconvergence,
        "unconverged": stats.unconverged,
        "goodput": _goodput(platform, 2.0, duration),
        "events": platform.engine.events_executed,
    }


def run_case(
    *,
    duration: float = DURATION,
    factors: tuple[float, ...] = LOAD_FACTORS,
) -> dict:
    curve = {
        resilient: [
            _run_point(factor=f, resilient=resilient, duration=duration)
            for f in factors
        ]
        for resilient in (True, False)
    }
    return {
        "duration": duration,
        "factors": factors,
        "resilient": curve[True],
        "baseline": curve[False],
        "outage": _run_zone_outage(duration=duration),
    }


def check_case(case: dict) -> None:
    res, base = case["resilient"], case["baseline"]
    res_1x, res_peak = res[0], res[-1]
    base_peak = base[-1]

    # Graceful degradation: latency goodput at the peak factor stays
    # within 25 % of its 1× value when resilience is on.
    assert res_peak["goodput"] >= 0.75 * res_1x["goodput"], (
        f"resilient goodput collapsed: {res_peak['goodput']:.3f} at "
        f"{res_peak['factor']:.0f}x vs {res_1x['goodput']:.3f} at 1x"
    )
    # ... and the baseline shows the collapse the feature prevents.
    assert base_peak["goodput"] < 0.9 * res_peak["goodput"], (
        f"baseline did not collapse: {base_peak['goodput']:.3f} vs "
        f"resilient {res_peak['goodput']:.3f}"
    )
    # Shedding is priority-ordered: best-effort takes the brunt, and the
    # protected classes are never shed.
    shed = res_peak["shed_by_class"]
    assert shed["latency"] == 0 and shed["stream"] == 0, (
        f"protected classes were shed: {shed}"
    )
    assert shed["best-effort"] > 0, "overload never shed best-effort work"
    assert shed["best-effort"] >= shed["batch"], (
        f"batch shed before best-effort: {shed}"
    )
    # Under overload the web service actually used its degraded tier.
    assert res_peak["brownouts_entered"] >= 1
    assert 0.0 < res_peak["brownout_duty"] <= 1.0
    # The baseline build has none of the machinery engaged.
    assert base_peak["shed_total"] == 0
    assert base_peak["brownout_duty"] == 0.0

    outage = case["outage"]
    assert outage["zone_nodes_failed"] == NODES // ZONES, (
        f"blast radius {outage['zone_nodes_failed']} nodes is not one zone"
    )
    assert outage["mttr_s"] is not None and outage["mttr_s"] >= 300.0
    assert outage["unconverged"] == 0, "web/stream never re-converged"
    assert outage["time_to_recover_s"] is not None


def format_case(case: dict) -> list[str]:
    lines = [
        f"T10 overload resilience ({case['duration']:.0f}s per point, "
        f"factors {', '.join(f'{f:.0f}x' for f in case['factors'])})"
    ]
    for label, points in (("resilient", case["resilient"]),
                          ("baseline", case["baseline"])):
        lines.append(f"  goodput [{label}]: " + "  ".join(
            f"{p['factor']:.0f}x={p['goodput']:.3f}" for p in points))
    peak = case["resilient"][-1]
    shed = peak["shed_by_class"]
    total = max(peak["shed_total"], 1)
    lines.append(
        "  shed fraction by class @peak: " + " ".join(
            f"{cls}={shed[cls] / total:.2f}" for cls in SHED_CLASSES)
        + f" (total={peak['shed_total']}, running-evictions="
        f"{peak['evicted_running']})"
    )
    lines.append(
        f"  brownout duty @peak: {peak['brownout_duty']:.2f} "
        f"(entered {peak['brownouts_entered']}x)"
    )
    outage = case["outage"]
    lines.append(
        f"  zone outage: {outage['zone_nodes_failed']} nodes dark, "
        f"{outage['pods_displaced']} pods displaced, "
        f"mttr={outage['mttr_s']:.0f}s "
        f"time-to-recover={outage['time_to_recover_s']:.0f}s "
        f"goodput@2x={outage['goodput']:.3f}"
    )
    return lines


def test_overload(report) -> None:
    case = run_case()
    report(*format_case(case))
    check_case(case)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized variant: shorter runs, 1x/4x only, same assertions",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        case = run_case(duration=900.0, factors=(1.0, 4.0))
    else:
        case = run_case()
    for line in format_case(case):
        print(line)
    check_case(case)
    print("T10 OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
