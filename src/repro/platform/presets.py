"""Canonical SLO scenarios: calm, overload, and data-fault presets.

The flight-recorder surfaces (``repro report`` and the R-T12 benchmark)
need seeded scenarios with SLOs attached. Defining them once here —
under ``repro`` rather than ``benchmarks`` — keeps the CLI usable from
an installed distribution (the ``benchmarks/`` package only exists in a
source checkout) and guarantees both surfaces exercise bit-identical
platforms.

Three presets, each built from an EXPERIMENTS.md scenario. The R-T10
and R-T11 builders (:func:`build_overload`, :func:`build_data_fault`)
live here too, so their benchmarks and presets share one definition:

* ``calm`` — the R-F5 control-plane mix at four services: diurnal load,
  no faults, no overload. Every SLO should attain 100 % and no
  burn-rate alert should fire; this is the recorder's null baseline.
* ``overload`` — the R-T10 resilient build at 4× offered load: the
  admission latch, shedding, and brownout all engage, burning the
  shed/brownout error budgets and driving at least one firing→resolved
  web-latency alert as the degradation machinery catches up.
* ``data-fault`` — the R-T11 ft build under the harsh deterministic
  fault schedule: stream-lag and repair-backlog SLOs burn while
  checkpoint replay and the repair loop recover.

Every preset enables telemetry (SLOs require it) — which stays
decision-invisible, so these runs remain bit-identical to their
telemetry-off counterparts in the source benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.cluster.chaos import (
    DataLossInjector,
    ExecutorKillInjector,
    StragglerInjector,
)
from repro.cluster.resources import ResourceVector
from repro.dataplane import DataPlaneConfig
from repro.obs.slo import SLOSpec
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.scheduler.admission import OverloadConfig
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.stream import Operator
from repro.workloads.traces import ConstantTrace, DiurnalTrace, ScaledTrace


@dataclass(frozen=True)
class ScenarioPreset:
    """One named scenario: a builder plus its default horizon."""

    name: str
    description: str
    duration: float
    seed: int
    #: ``build(duration, seed) -> platform`` with SLOs attached and any
    #: fault schedule already on the engine calendar.
    build: Callable[[float, int], EvolvePlatform]


# -- calm: the R-F5 service mix, no faults -----------------------------------

_CALM_SEED = 3
_CALM_SLOS = (
    SLOSpec(
        name="svc_latency",
        series="app/svc-0/latency",
        # The PLO is 60 ms; the SLO adds headroom for the adaptive
        # policy's small diurnal-peak excursions (~62 ms), which the
        # PLO tracker owns — the SLO watches for real degradation.
        objective=0.07,
        comparator="le",
        target=0.99,
        warmup=120.0,
        kind="latency",
        description="svc-0 latency within 70 ms (PLO + margin)",
    ),
)


def _build_calm(duration: float, seed: int) -> EvolvePlatform:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed, telemetry=True, slos=_CALM_SLOS),
        scheduler="converged",
        policy="adaptive",
    )
    for i in range(4):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=3600.0,
                               phase=i * 120.0),
            demands=ServiceDemands(cpu_seconds=0.008, disk_mb=0.1,
                                   net_mb=0.05, base_latency=0.01),
            allocation=ResourceVector(cpu=0.6, memory=1, disk_bw=15,
                                      net_bw=15),
            plo=LatencyPLO(0.06, window=30),
        )
    return platform


# -- overload: the R-T10 mix, resilient, at 4x --------------------------------

OVERLOAD_NODES = 6
OVERLOAD_ZONES = 3
#: Web offered load at 1×; demands are 100 rps/core so this is ~6 cores.
OVERLOAD_BASE_RATE = 600.0
_OVERLOAD_SEED = 42
_OVERLOAD_SLOS = (
    SLOSpec(
        name="web_latency",
        series="app/web/latency",
        objective=0.05,
        comparator="le",
        target=0.95,
        warmup=120.0,
        kind="latency",
        description="web latency at or under the 50 ms PLO",
    ),
    SLOSpec(
        name="shed_free",
        series="ctrl/sched/latch_active",
        objective=0.0,
        comparator="le",
        target=0.9,
        warmup=120.0,
        kind="goodput",
        description="admission latch disengaged (no load shedding)",
    ),
    SLOSpec(
        name="brownout_free",
        series="ctrl/sched/brownout/active",
        objective=0.0,
        comparator="le",
        target=0.9,
        warmup=120.0,
        kind="goodput",
        description="no service running in a browned-out tier",
    ),
)
_WEB_DEMANDS = ServiceDemands(
    cpu_seconds=0.01, disk_mb=0.02, net_mb=0.05, base_latency=0.008
)
_FILLER_DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def build_overload(
    *,
    seed: int,
    factor: float = 4.0,
    resilient: bool = True,
    slos: tuple[SLOSpec, ...] = (),
) -> EvolvePlatform:
    """The R-T10 mix: a web service at ``factor`` × its sized load.

    The cluster's spare room is already claimed by batch and best-effort
    fillers. ``resilient`` turns admission control + load shedding,
    control-loop backpressure and brownout on; ``slos`` attaches SLOs
    (and the telemetry they need).
    """
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=OVERLOAD_NODES, zones=OVERLOAD_ZONES),
        config=PlatformConfig(
            seed=seed,
            telemetry=bool(slos),
            slos=slos,
            # Watermarks tuned to this topology: fillers strand ~3 cores
            # per node, so node pressure saturates near 0.8 and a 4x
            # surge shows up mostly as pending-queue depth.
            overload=OverloadConfig(
                admission=resilient, backpressure=resilient,
                brownout=resilient,
                high_watermark=0.8, low_watermark=0.65, pending_high=12,
            ),
            # Per-pod ceiling. Web starts at the rail so overload shows
            # up as horizontal scale-out (pending pods the scheduler must
            # place), which is the pressure admission control manages —
            # not as node-blocked vertical resizes.
            max_allocation=ResourceVector(cpu=4, memory=16, disk_bw=200,
                                          net_bw=500),
        ),
        scheduler="converged",
        policy="adaptive",
    )
    # The latency-sensitive service under test: its offered load is the
    # swept axis; everything else in the mix stays fixed.
    platform.deploy_microservice(
        "web",
        trace=ScaledTrace(ConstantTrace(OVERLOAD_BASE_RATE), factor),
        demands=_WEB_DEMANDS,
        allocation=ResourceVector(cpu=4, memory=4, disk_bw=20, net_bw=40),
        plo=LatencyPLO(0.05, window=30),
        replicas=2,
    )
    # A stream-class consumer: protected like latency work, never shed.
    platform.deploy_microservice(
        "stream",
        trace=ConstantTrace(300.0),
        demands=_FILLER_DEMANDS,
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
            demands=_FILLER_DEMANDS,
            allocation=ResourceVector(cpu=4, memory=4, disk_bw=10, net_bw=20),
            replicas=3,
            managed=False,
            labels={"shed-class": "batch"},
        )
    for i in range(3):
        platform.deploy_microservice(
            f"be-{i}",
            trace=ConstantTrace(150.0),
            demands=_FILLER_DEMANDS,
            allocation=ResourceVector(cpu=4, memory=4, disk_bw=10, net_bw=20),
            replicas=3,
            managed=False,
            labels={"shed-class": "best-effort"},
        )
    return platform


def _build_overload(duration: float, seed: int) -> EvolvePlatform:
    return build_overload(seed=seed, slos=_OVERLOAD_SLOS)


# -- data-fault: the R-T11 ft build under the harsh schedule -----------------

_DATAFAULT_SEED = 47
_DATAFAULT_PERIOD = 120.0
_DATAFAULT_DATASET = "t11-data"
_DATAFAULT_DATASET_MB = 2400.0
_DATAFAULT_STREAM_RATE = 150.0
_DATAFAULT_SLOS = (
    SLOSpec(
        name="stream_lag",
        series="ctrl/dp/stream/lag_events",
        # A checkpoint restart replays ~750-1000 events before the
        # backlog drains; anything over ~3 s of arrivals counts as burn.
        objective=500.0,
        comparator="le",
        target=0.9,
        warmup=120.0,
        kind="lag",
        description="stream backlog under ~3 s of arrivals (500 events)",
    ),
    SLOSpec(
        name="repair_backlog",
        series="ctrl/store/repair_backlog",
        objective=0.0,
        comparator="le",
        target=0.9,
        warmup=120.0,
        kind="repair_backlog",
        description="no under-replicated objects awaiting repair",
    ),
)


#: The R-T11 fault cycle: one fault per period, in this order. Crash
#: before data-loss so mid-job node loss (the lineage trigger) lands
#: while the analytics job is still running.
FAULT_CYCLE = ("executor-kill", "crash", "data-loss", "straggler")
#: Seconds until a cycle strike heals: a crashed node stays dark, a
#: straggler stays slow; killed executors and wiped data need no heal.
_HEAL_AFTER = {"crash": 60.0, "straggler": 120.0}


def schedule_fault_cycle(
    platform: EvolvePlatform, period: float, duration: float
) -> None:
    """The R-T11 deterministic fault schedule.

    From t = 60 s, one fault every ``period`` seconds, cycling
    :data:`FAULT_CYCLE`. Victims come from a running strike counter over
    each kind's ordered candidates — a pure function of the scenario, no
    RNG draws. A crash is skipped while two or fewer nodes are healthy.
    Only crashes log FaultLog episodes.
    """
    kinds = {
        "executor-kill": ExecutorKillInjector(platform.cluster),
        "crash": platform.injector,
        "data-loss": DataLossInjector(platform.store, platform.cluster),
        "straggler": StragglerInjector(platform.cluster, factor=0.5),
    }
    strikes = itertools.count()

    def strike(kind) -> None:
        candidates = kind.candidates()
        if not candidates or (kind.name == "crash" and len(candidates) <= 2):
            return
        token = kind.strike(candidates[next(strikes) % len(candidates)])
        if kind.name in _HEAL_AFTER:
            platform.engine.schedule(
                _HEAL_AFTER[kind.name], lambda: kind.heal(token)
            )

    at = 60.0
    i = 0
    while at < duration - _HEAL_AFTER["crash"]:
        kind = kinds[FAULT_CYCLE[i % len(FAULT_CYCLE)]]
        platform.engine.schedule_at(at, lambda kind=kind: strike(kind))
        at += period
        i += 1


def build_data_fault(
    *, seed: int, ft: bool = True, slos: tuple[SLOSpec, ...] = ()
) -> EvolvePlatform:
    """The R-T11 mix: an analytics job over a replicated dataset + a stream.

    ``ft`` turns data-plane fault tolerance on; ``slos`` attaches SLOs
    (and the telemetry they need). No faults are scheduled — see
    :func:`schedule_fault_cycle`.
    """
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=6),
        config=PlatformConfig(
            seed=seed,
            telemetry=bool(slos),
            slos=slos,
            data_plane=DataPlaneConfig(enabled=ft),
        ),
        scheduler="converged",
        policy="adaptive",
    )
    nodes = sorted(platform.cluster.nodes)
    spread_blocks(
        platform.store,
        _DATAFAULT_DATASET,
        total_mb=_DATAFAULT_DATASET_MB,
        block_mb=100.0,
        nodes=nodes[:3],
        replication=2,
    )
    platform.submit_bigdata(
        "t11-job",
        stages=[
            Stage("scan", 360.0, input_mb=_DATAFAULT_DATASET_MB),
            Stage("agg", 240.0, input_mb=_DATAFAULT_DATASET_MB / 10,
                  deps=("scan",)),
        ],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=100, net_bw=100),
        executors=3,
        dataset=_DATAFAULT_DATASET,
    )
    platform.deploy_stream(
        "t11-stream",
        trace=ConstantTrace(_DATAFAULT_STREAM_RATE),
        operators=[Operator("parse", 0.004), Operator("agg", 0.002)],
        allocation=ResourceVector(cpu=1.5, memory=2, disk_bw=10, net_bw=40),
        plo=LatencyPLO(5.0, window=30),
        workers=2,
    )
    return platform


def _build_datafault(duration: float, seed: int) -> EvolvePlatform:
    platform = build_data_fault(seed=seed, slos=_DATAFAULT_SLOS)
    schedule_fault_cycle(platform, _DATAFAULT_PERIOD, duration)
    return platform


PRESETS: dict[str, ScenarioPreset] = {
    "calm": ScenarioPreset(
        name="calm",
        description="R-F5 service mix, no faults: 100% attainment baseline",
        duration=1800.0,
        seed=_CALM_SEED,
        build=_build_calm,
    ),
    "overload": ScenarioPreset(
        name="overload",
        description="R-T10 resilient build at 4x load: shed/brownout burn",
        duration=900.0,
        seed=_OVERLOAD_SEED,
        build=_build_overload,
    ),
    "data-fault": ScenarioPreset(
        name="data-fault",
        description="R-T11 ft build, harsh fault schedule: lag/repair burn",
        duration=900.0,
        seed=_DATAFAULT_SEED,
        build=_build_datafault,
    ),
}


def build_scenario(
    name: str,
    *,
    duration: float | None = None,
    seed: int | None = None,
) -> tuple[EvolvePlatform, float]:
    """Build a preset's platform (SLOs attached, faults scheduled).

    Returns ``(platform, duration)`` where ``duration`` is the preset's
    default horizon unless overridden. The platform has not been run.
    """
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (choose from "
            f"{', '.join(sorted(PRESETS))})"
        ) from None
    horizon = preset.duration if duration is None else duration
    run_seed = preset.seed if seed is None else seed
    return preset.build(horizon, run_seed), horizon
