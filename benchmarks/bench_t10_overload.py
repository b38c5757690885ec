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

Smoke runs 1× and 4× for 900 s per point; the checks are the same. The
scenario itself is the ``overload`` report scenario
(``src/repro/scenarios/report/overload.json``) without its SLOs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.recovery import error_series, fault_recovery_report, summarize
from repro.cluster.chaos import ZoneOutageInjector
from repro.scenarios import load_report
from repro.scenarios.spec import build_platform
from repro.scheduler.admission import SHED_CLASSES

SEED = 42
#: Web offered load at 1×; demands are 100 rps/core so this is ~6 cores.
BASE_RATE = 600.0
#: (duration per point, load factors) per mode.
GRIDS = {"smoke": (900.0, (1.0, 4.0)), "full": (1800.0, (1.0, 2.0, 4.0))}


def _build(*, seed: int, factor: float, resilient: bool = True):
    """The ``overload`` mix with web at ``factor`` × its sized load.

    The cluster's spare room is already claimed by batch and best-effort
    fillers; ``resilient`` keeps admission control + load shedding,
    control-loop backpressure and brownout on.
    """
    spec = load_report("overload").spec
    web = {"kind": "constant", "value": BASE_RATE * factor}
    workloads = tuple(
        replace(w, params={**w.params, "trace": web}) if w.name == "web" else w
        for w in spec.workloads
    )
    return build_platform(replace(
        spec,
        seed=seed,
        workloads=workloads,
        overload=spec.overload if resilient else False,
        slos=(),
    ))


def _goodput(platform, factor: float, duration: float) -> float:
    """Served / offered for the web service over the whole run."""
    offered = BASE_RATE * factor * duration
    return platform.apps["web"].total_served / offered


def _run_point(
    *, factor: float, resilient: bool, duration: float, seed: int
) -> dict:
    platform = _build(seed=seed, factor=factor, resilient=resilient)
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


def _run_zone_outage(*, duration: float, seed: int) -> dict:
    """Resilient build riding out a five-minute zone outage at 2× load."""
    platform = _build(seed=seed, factor=2.0)
    dom = ZoneOutageInjector(platform.injector)
    strike_at = duration / 3.0
    heal_at = strike_at + 300.0
    token: list = []

    platform.engine.schedule(strike_at, lambda: token.append(dom.strike_zone("z0")))
    platform.engine.schedule(heal_at, lambda: dom.heal(token[0]))
    platform.collector.declare(error_series("web"), error_series("stream"))
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


def run_case(mode: str, seed: int = SEED) -> dict:
    duration, factors = GRIDS[mode]
    curve = {
        resilient: [
            _run_point(factor=f, resilient=resilient, duration=duration,
                       seed=seed)
            for f in factors
        ]
        for resilient in (True, False)
    }
    outage = _run_zone_outage(duration=duration, seed=seed)
    res_1x, res_peak = curve[True][0], curve[True][-1]
    shed = res_peak["shed_by_class"]
    metrics = {
        "goodput/resilient-1x": res_1x["goodput"],
        "goodput/resilient-peak": res_peak["goodput"],
        "goodput/baseline-peak": curve[False][-1]["goodput"],
        "shed_total": res_peak["shed_total"],
        "shed/best-effort": shed["best-effort"],
        "shed/batch": shed["batch"],
        "running_evictions": res_peak["evicted_running"],
        "brownout_duty": res_peak["brownout_duty"],
        "outage/pods_displaced": outage["pods_displaced"],
        "outage/time_to_recover_s": outage["time_to_recover_s"],
    }
    events = sum(p["events"] for p in curve[True] + curve[False])
    return {
        "seed": seed,
        "events_executed": events + outage["events"],
        "metrics": metrics,
        "duration": duration,
        "factors": factors,
        "resilient": curve[True],
        "baseline": curve[False],
        "outage": outage,
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
    spec = load_report("overload").spec
    assert outage["zone_nodes_failed"] == spec.nodes // spec.zones, (
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
