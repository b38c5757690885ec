"""The benchmark workloads.

A workload is a list of *cells* built from the seed. A cell is a
zero-argument callable that builds one or more platforms through the
public ``repro`` API, runs them and returns its modelled outputs as a
dict of plain values; one *pass* runs every cell once. Cells hold their
whole input, so running a pass twice must give identical outputs.

``--seed`` draws only inputs that leave the work per pass about the
same: which fleet service gets which load phase, the data-lake job
arrival times, the order of the arena cells and the simulation seeds of
the fuzz episodes. Everything else (sizes, platform seeds, the fuzz
episode specs, the scenario pack) is fixed. The simulated load
is open-loop: traces and arrival times do not depend on the state of
the simulated services. The host loop is closed: cells run one after
another.

Sizes are chosen so one pass takes about 3 s on a 2-core x86-64 host;
``smoke=True`` shrinks every workload to well under a second for tests.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Callable

from repro import ClusterSpec, EvolvePlatform, PlatformConfig, ResourceVector
from repro import arena, scenarios
from repro.autoscaler.registry import registered_policies
from repro.sim.rng import RngRegistry
from repro.storage.placement import spread_blocks
from repro.verify import fuzzer
from repro.workloads.bigdata import fork_join_stages, skewed_fanout_stages
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    DiurnalTrace,
    FlashCrowdTrace,
)

HOUR = 3600.0

Cell = Callable[[], dict]


def _outputs(platform: EvolvePlatform) -> dict:
    """Modelled outputs every single-platform cell reports."""
    result = platform.result()
    util = result.utilization
    return {
        "plo_violation_rate": result.total_violation_fraction(),
        "alloc_efficiency": (
            util.overall_usage / util.overall_alloc if util.overall_alloc else 0.0
        ),
        "violation_by_app": {
            name: tracker.violation_fraction
            for name, tracker in sorted(result.trackers.items())
        },
        "scale_events": dict(sorted(result.scale_events.items())),
    }


# -- fleet ----------------------------------------------------------------------

FLEET_DEMANDS = ServiceDemands(
    cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05, base_latency=0.01
)
FLEET_ALLOCATION = ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15)
FLEET_SEED = 3


def _fleet_cell(seed: int, apps: int, nodes: int, horizon: float) -> dict:
    # Phases stay 120 s apart; the seed deals them out to the services.
    rng = RngRegistry(seed).stream("bench/fleet/phases")
    phases = [float(p) for p in rng.permutation(apps) * 120.0]
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=nodes),
        config=PlatformConfig(seed=FLEET_SEED),
        scheduler="converged",
        policy="adaptive",
    )
    for i in range(apps):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=HOUR, phase=phases[i]),
            demands=FLEET_DEMANDS,
            allocation=FLEET_ALLOCATION,
            plo=LatencyPLO(0.06, window=30),
        )
    platform.run(horizon)
    return _outputs(platform)


def fleet_cells(seed: int, smoke: bool = False) -> list[Cell]:
    apps, nodes, horizon = (6, 3, 300.0) if smoke else (48, 24, 2400.0)
    return [functools.partial(_fleet_cell, seed, apps, nodes, horizon)]


# -- datalake -------------------------------------------------------------------

EXECUTOR = ResourceVector(cpu=2, memory=4, disk_bw=60, net_bw=60)
RANK = ResourceVector(cpu=4, memory=8, disk_bw=5, net_bw=100)
JOB_GAP = 75.0
DATALAKE_SEED = 23


def _service_mix(platform: EvolvePlatform, horizon: float) -> None:
    """Three managed services with CPU, disk and memory/network bottlenecks."""
    platform.deploy_microservice(
        "web",
        trace=CompositeTrace(
            [
                DiurnalTrace(base=200, amplitude=140, period=2 * HOUR),
                FlashCrowdTrace(
                    start_time=horizon / 2, peak_rate=250, rise=60, decay=600
                ),
            ]
        ),
        demands=ServiceDemands(
            cpu_seconds=0.008, disk_mb=0.02, net_mb=0.05, base_latency=0.008
        ),
        allocation=ResourceVector(cpu=1.6, memory=2, disk_bw=20, net_bw=30),
        plo=LatencyPLO(0.05, window=30),
    )
    platform.deploy_microservice(
        "media",
        trace=BurstyTrace(
            base=40,
            burst_factor=3.0,
            burst_rate=1 / 1500,
            burst_duration=180,
            horizon=horizon,
            rng=platform.rng.stream("trace/media"),
        ),
        demands=ServiceDemands(
            cpu_seconds=0.002, disk_mb=2.0, net_mb=1.0, base_latency=0.015
        ),
        allocation=ResourceVector(cpu=0.5, memory=2, disk_bw=90, net_bw=60),
        plo=LatencyPLO(0.08, window=30),
    )
    platform.deploy_microservice(
        "cache",
        trace=DiurnalTrace(base=150, amplitude=90, period=2 * HOUR, phase=HOUR),
        demands=ServiceDemands(
            cpu_seconds=0.001,
            net_mb=0.5,
            mem_base=1.0,
            mem_per_inflight=0.02,
            base_latency=0.005,
        ),
        allocation=ResourceVector(cpu=0.4, memory=2.5, disk_bw=10, net_bw=90),
        plo=LatencyPLO(0.04, window=30),
    )


def _datalake_cell(
    seed: int, nodes: int, jobs: int, gangs: int, horizon: float
) -> dict:
    # A Poisson process conditioned on its count: the arrival times are
    # sorted uniform draws over jobs × JOB_GAP seconds. They are the only
    # input the seed draws; job shapes and crash times come from the fixed
    # platform seed, because with them the work per pass swings by ±5%
    # from seed to seed.
    rng = RngRegistry(seed).stream("bench/datalake/arrivals")
    arrivals = sorted(float(t) for t in rng.uniform(0.0, jobs * JOB_GAP, jobs))
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=nodes),
        config=PlatformConfig(seed=DATALAKE_SEED),
        scheduler="converged",
        policy="adaptive",
    )
    names = sorted(platform.cluster.nodes)
    spread_blocks(
        platform.store,
        "lake",
        total_mb=64_000 if nodes > 4 else 8_000,
        block_mb=100,
        nodes=names[: max(1, nodes // 2)],
        skew=0.5,
    )
    _service_mix(platform, horizon)
    submitted = []
    for i, at in enumerate(arrivals):
        if i % 2 == 0:
            stages = fork_join_stages(
                width=4, source_work=600.0, branch_work=1200.0, join_work=400.0
            )
        else:
            stages = skewed_fanout_stages(
                platform.rng.stream(f"workload/job-{i}/mix"),
                fanout=6,
                base_work=800.0,
                source_work=400.0,
                join_work=300.0,
            )
        job = platform.submit_bigdata(
            f"job-{i}",
            stages=stages,
            allocation=EXECUTOR,
            executors=6,
            dataset="lake",
            delay=at,
        )
        submitted.append((at, job))
    for g in range(gangs):
        platform.submit_hpc(
            f"gang-{g}",
            ranks=6,
            duration=600.0,
            allocation=RANK,
            delay=300.0 + g * 1200.0,
        )
    platform.enable_chaos(mtbf=900.0, repair_time=300.0)
    platform.run(horizon)
    outputs = _outputs(platform)
    # Unfinished jobs count as horizon − submission, so a slower model
    # cannot shorten the mean by finishing fewer jobs.
    outputs["makespans"] = [
        job.makespan() if job.makespan() is not None else horizon - at
        for at, job in submitted
    ]
    return outputs


def datalake_cells(seed: int, smoke: bool = False) -> list[Cell]:
    if smoke:
        nodes, jobs, gangs, horizon = 4, 2, 1, 420.0
    else:
        # Jobs arrive over the first 32.5 minutes and the run goes on to
        # 60 so that nearly all of them finish: cut off while many still
        # run, the work in a pass would depend on the arrival times.
        nodes, jobs, gangs, horizon = 24, 26, 3, 3600.0
    return [functools.partial(_datalake_cell, seed, nodes, jobs, gangs, horizon)]


# -- arena ----------------------------------------------------------------------


def _arena_cell(policy: str, scenario: str, horizon: float) -> dict:
    card = arena.run_cell(policy, scenarios.load_scenario(scenario), horizon=horizon)
    outputs = card.to_dict()
    outputs["alloc_efficiency"] = 1.0 - card.slack_frac
    return outputs


def arena_cells(seed: int, smoke: bool = False) -> list[Cell]:
    policies = registered_policies()
    names = scenarios.scenario_names()
    # 450 s covers every chaos event the pack schedules.
    horizon = 450.0
    if smoke:
        policies, names, horizon = policies[:2], ("calm", "flash-crowd"), 120.0
    cells = [
        functools.partial(_arena_cell, policy, name, horizon)
        for name in names
        for policy in policies
    ]
    # Every cell replays its pack entry with the pack's own seed, as
    # `repro arena` does; the seed only deals out the order. Seed offsets
    # would change how much work each cell does by up to 10%.
    order = RngRegistry(seed).stream("bench/arena/order").permutation(len(cells))
    return [cells[i] for i in order]


# -- fuzz -----------------------------------------------------------------------

#: The fuzz run seed the episode specs come from (a CI fuzz seed).
FUZZ_RUN_SEED = 7


def _fuzz_cell(index: int, seed: int) -> dict:
    spec = fuzzer.generate_scenario(FUZZ_RUN_SEED, index)
    spec = replace(spec, seed=spec.seed + seed)
    result = fuzzer.run_episode(spec, every=1, collect_fingerprint=True)
    return {
        "violations": [str(v) for v in result.violations],
        "checks": result.checks_run,
        "placements": result.fingerprint,
    }


def fuzz_cells(seed: int, smoke: bool = False) -> list[Cell]:
    episodes = 3 if smoke else 36
    return [functools.partial(_fuzz_cell, i, seed) for i in range(episodes)]


#: Cell builders by workload name, in ``BENCHMARK.json`` order. Why each
#: workload is here is said there and in README.md.
WORKLOADS: dict[str, Callable[[int, bool], list[Cell]]] = {
    "fleet": fleet_cells,
    "datalake": datalake_cells,
    "arena": arena_cells,
    "fuzz": fuzz_cells,
}
