"""Differential tests: optimized paths vs their reference twins.

Satellite of the correctness harness: the converged scheduler's
per-cycle score cache must be invisible — a seeded run with the cache
produces bit-identical placements to one whose scheduler recomputes
every score (:func:`reference_select_node`, the uncached scorer kept
here as the reference) — and telemetry on/off must not change a single
decision.
"""

import types

from repro.cluster.events import PodScheduled
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.verify.fuzzer import generate_scenario, telemetry_identity_violation
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.storage.placement import spread_blocks
from repro.workloads.traces import DiurnalTrace


def reference_select_node(scheduler, pod):
    """``ConvergedScheduler.select_node`` without the score cache."""
    feasible = scheduler.feasible_nodes(pod)
    if not feasible:
        return None
    best = None
    best_rank = None
    for node in feasible:
        rank = (scheduler.score(node, pod), node.name)
        if best_rank is None or rank > best_rank:
            best = node
            best_rank = rank
    return best


def _run_mixed(score_cache: bool):
    """A 300-cycle mixed-worlds run with chaos, placements recorded."""
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=5),
        config=PlatformConfig(seed=13),
        scheduler="converged",
        policy="adaptive",
    )
    if not score_cache:
        platform.scheduler.select_node = types.MethodType(
            reference_select_node, platform.scheduler
        )
    platform.deploy_microservice(
        "web",
        trace=DiurnalTrace(base=180, amplitude=120, period=400),
        demands=ServiceDemands(cpu_seconds=0.006, base_latency=0.005),
        allocation=ResourceVector(cpu=1, memory=2, disk_bw=10, net_bw=30),
        plo=LatencyPLO(0.05, window=30),
        replicas=3,
    )
    spread_blocks(
        platform.store, "events", total_mb=2000, block_mb=100,
        nodes=list(platform.cluster.nodes)[:2],
    )
    platform.submit_bigdata(
        "batch",
        stages=[
            Stage("scan", 200.0, input_mb=4000),
            Stage("agg", 150.0, input_mb=400, deps=("scan",)),
        ],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=60, net_bw=60),
        executors=2,
        dataset="events",
        delay=20.0,
    )
    platform.submit_hpc(
        "mpi",
        ranks=3,
        duration=80.0,
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=5, net_bw=40),
        delay=40.0,
    )
    platform.enable_chaos(
        mtbf=150.0,
        repair_time=60.0,
        domains=("crash", "degrade"),
    )
    placements = []
    platform.cluster.events.subscribe(
        PodScheduled,
        lambda e: placements.append((e.time, e.pod_name, e.node_name)),
    )
    # schedule_interval defaults to 1s: 300 simulated seconds is 300
    # scheduler cycles — churned throughout by chaos and gang restarts.
    platform.run(300.0)
    return platform, placements


class TestScoreCacheDifferential:
    def test_cached_and_reference_placements_identical(self):
        cached_platform, cached = _run_mixed(score_cache=True)
        reference_platform, reference = _run_mixed(score_cache=False)
        assert cached, "run should place pods"
        assert cached == reference
        assert (
            cached_platform.engine.events_executed
            == reference_platform.engine.events_executed
        )
        # Prove the two runs actually took different code paths.
        assert cached_platform.scheduler.score_cache_hits > 0
        assert reference_platform.scheduler.score_cache_hits == 0


class TestTelemetryIdentity:
    def test_fuzz_scenarios_decide_identically_with_telemetry(self):
        for index in (0, 1):
            spec = generate_scenario(7, index)
            assert telemetry_identity_violation(spec) is None
