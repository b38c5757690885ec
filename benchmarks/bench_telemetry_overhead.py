"""Telemetry overhead gate: enabled ≤5%, disabled ≈0%, bit-identical.

Three claims keep ``PlatformConfig(telemetry=True)`` honest:

1. **Enabled overhead ≤5%** — the diurnal multi-service scenario runs
   with telemetry off and on under ``cProfile`` and the gate compares
   *total interpreter function calls*. Call counts are a deterministic
   proxy for CPU work: the same seed yields the same count on every
   machine, so the gate cannot flake on a noisy CI runner the way a
   wall-clock ratio does (and the proxy over-counts telemetry, whose
   extra calls are mostly trivial increments — the bound is
   conservative). Wall time for both configurations is reported
   alongside for context. The reading is a ratio, so a cheaper
   telemetry-off path raises it with telemetry unchanged: a change that
   cuts calls on the simulation's hot path must cut telemetry's own
   calls as well.
2. **Disabled overhead ≤2%** — with telemetry off the only residual
   cost is ``if self.telemetry is not None`` guards on the hot paths.
   The guard cost is measured directly and scaled by the number of
   engine events in the run; it must stay under 2% of the disabled
   wall time. (The bound is a deliberately pessimistic model — every
   event charged the full 8 guards — and its share grew when the
   simulator hot path got ~2× faster: same guard cost, half the
   denominator.) The guard and the disabled wall time are timed in
   :data:`TIMING_REPEATS` alternating pairs, one reading per pair, and
   the gate takes the median reading: a host state that lasts a few
   seconds shifts both timings of a pair, or one reading, not the
   median.
3. **Bit-identity** — a seeded run produces *identical* sample streams
   and event counts with telemetry on or off. Tracing must observe the
   simulation, never perturb it: no extra RNG draws, no extra events.

Smoke runs four services for half an hour; the gates are the same.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace
from benchmarks.scenarios import HOUR, build_platform

SEED = 3
#: (managed services, simulated seconds) per mode.
SIZES = {"smoke": (4, HOUR / 2), "full": (8, HOUR)}

ENABLED_BUDGET = 0.05
DISABLED_BUDGET = 0.02
#: (disabled wall time, guard cost) pairs behind the disabled-path reading.
TIMING_REPEATS = 5
#: Guards charged per engine event by the disabled-path model.
GUARDS_PER_EVENT = 8


def _build(*, telemetry: bool, apps: int, seed: int):
    platform = build_platform(
        "adaptive", nodes=max(4, apps // 2), seed=seed, telemetry=telemetry
    )
    for i in range(apps):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=HOUR,
                               phase=i * 120.0),
            demands=ServiceDemands(cpu_seconds=0.008, disk_mb=0.1,
                                   net_mb=0.05, base_latency=0.01),
            allocation=ResourceVector(cpu=0.6, memory=1, disk_bw=15,
                                      net_bw=15),
            plo=LatencyPLO(0.06, window=30),
        )
    platform.collector.declare(*_fingerprint_series(apps))
    return platform


def _profiled_run(*, telemetry: bool, apps: int, duration: float, seed: int):
    """(total function calls, platform) for one seeded run."""
    platform = _build(telemetry=telemetry, apps=apps, seed=seed)
    profiler = cProfile.Profile()
    profiler.enable()
    platform.run(duration)
    profiler.disable()
    return pstats.Stats(profiler).total_calls, platform


def _timed_run(*, telemetry: bool, apps: int, duration: float, seed: int) -> float:
    platform = _build(telemetry=telemetry, apps=apps, seed=seed)
    t0 = time.perf_counter()
    platform.run(duration)
    return time.perf_counter() - t0


def _guard_cost_per_check() -> float:
    """Seconds per ``x is not None`` guard, measured in a tight loop."""

    class _Host:
        __slots__ = ("telemetry",)

        def __init__(self):
            self.telemetry = None

    host, n = _Host(), 1_000_000
    t0 = time.perf_counter()
    hits = 0
    for _ in range(n):
        if host.telemetry is not None:  # the disabled-path residual
            hits += 1
    assert hits == 0
    return (time.perf_counter() - t0) / n


def _fingerprint_series(apps: int) -> list[str]:
    """The seeded sample streams whose bit-identity we assert."""
    return [
        metric
        for i in range(apps)
        for metric in (f"app/svc-{i}/latency", f"app/svc-{i}/alloc/cpu",
                       f"control/svc-{i}/output")
    ]


def _series_fingerprint(platform, apps: int):
    out = {}
    collector = platform.collector
    for metric in _fingerprint_series(apps):
        out[metric] = (
            collector.series(metric).to_lists()
            if collector.has_series(metric) else None
        )
    return out


def run_case(mode: str, seed: int = SEED) -> dict:
    apps, duration = SIZES[mode]
    run = {"apps": apps, "duration": duration, "seed": seed}
    calls_off, off_platform = _profiled_run(telemetry=False, **run)
    calls_on, on_platform = _profiled_run(telemetry=True, **run)
    events = off_platform.engine.events_executed
    walls_off, readings = [], []
    for _ in range(TIMING_REPEATS):
        # Disabled residual: one guard per instrumentation site, bounded
        # by a handful of checks per engine event.
        wall = _timed_run(telemetry=False, **run)
        guard = _guard_cost_per_check()
        walls_off.append(wall)
        readings.append(guard * GUARDS_PER_EVENT * events / wall)
    wall_on = _timed_run(telemetry=True, **run)

    identical = (
        _series_fingerprint(off_platform, apps)
        == _series_fingerprint(on_platform, apps)
        and events == on_platform.engine.events_executed
    )
    metrics = {
        "calls_off": calls_off,
        "calls_on": calls_on,
        "enabled_call_overhead": calls_on / calls_off - 1.0,
        "identical": identical,
        "spans": len(on_platform.telemetry.trace),
        "provenance": len(on_platform.telemetry.trace.provenance),
    }
    timing = {
        "wall_off_s": statistics.median(walls_off),
        "wall_on_s": wall_on,
        "disabled_overhead": statistics.median(readings),
    }
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "timing": timing,
        "apps": apps,
    }


def check_case(case: dict) -> None:
    m, timing = case["metrics"], case["timing"]
    assert m["identical"], (
        "telemetry perturbed the seeded run: sample streams or event "
        "counts differ with tracing on"
    )
    assert m["enabled_call_overhead"] <= ENABLED_BUDGET, (
        f"telemetry-enabled run costs {m['enabled_call_overhead']:+.2%} "
        f"function calls vs disabled (budget {ENABLED_BUDGET:.0%})"
    )
    assert timing["disabled_overhead"] <= DISABLED_BUDGET, (
        f"disabled guard residual {timing['disabled_overhead']:.3%} "
        f"(budget {DISABLED_BUDGET:.0%})"
    )
    assert m["spans"] >= 1 and m["provenance"] >= 1


def format_case(case: dict) -> list[str]:
    m, timing = case["metrics"], case["timing"]
    rows = [
        ["telemetry off", f"{m['calls_off']:,}",
         f"{timing['wall_off_s']:.3f}", "—"],
        ["telemetry on", f"{m['calls_on']:,}",
         f"{timing['wall_on_s']:.3f}", f"{m['enabled_call_overhead']:+.2%}"],
    ]
    return [
        f"Telemetry overhead ({case['apps']} services, "
        f"{case['events_executed']:,} engine events)",
        format_table(
            ["configuration", "function calls", "wall s",
             "call overhead"], rows
        ),
        f"  disabled guard residual: {timing['disabled_overhead']:.4%} "
        "of runtime",
        f"  seeded streams bit-identical on/off: {m['identical']}",
        f"  enabled run recorded {m['spans']:,} spans, "
        f"{m['provenance']:,} provenance records",
    ]
