"""Integration tests: the platform under failures and preemption.

The recovery path under test: node crash → pods evicted → application
self-healing resubmits → scheduler re-places → controller re-converges.
"""

import pytest

from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def build(**kwargs):
    kwargs.setdefault("cluster_spec", ClusterSpec(node_count=5))
    kwargs.setdefault("config", PlatformConfig(seed=19))
    return EvolvePlatform(**kwargs)


@pytest.mark.slow
def test_service_survives_single_node_crash():
    platform = build(policy="adaptive")
    svc = platform.deploy_microservice(
        "svc", trace=ConstantTrace(200), demands=DEMANDS,
        allocation=ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20),
        plo=LatencyPLO(0.05, window=30), replicas=3,
    )
    platform.run(600.0)
    victim_node = svc.running_pods()[0].node_name
    platform.injector.fail_node(victim_node)
    platform.run(300.0)
    # Self-healing restored the replica count on surviving nodes.
    assert len(svc.running_pods()) == 3
    assert all(p.node_name != victim_node for p in svc.running_pods())
    assert svc.replacements >= 1
    assert svc.current_latency < 0.1


@pytest.mark.slow
def test_batch_job_finishes_despite_chaos():
    platform = build()
    job = platform.submit_bigdata(
        "job", stages=[Stage("map", 2000.0)],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50),
        executors=3,
    )
    platform.enable_chaos(mtbf=400.0, repair_time=120.0)
    platform.run(3 * 3600.0)
    assert job.done
    assert platform.injector.failures  # chaos actually struck


@pytest.mark.slow
def test_violations_bounded_under_chaos():
    def run(chaos: bool):
        platform = build(policy="adaptive")
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(150), demands=DEMANDS,
            allocation=ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20),
            plo=LatencyPLO(0.05, window=30), replicas=3,
        )
        if chaos:
            platform.enable_chaos(mtbf=900.0, repair_time=180.0)
        platform.run(2 * 3600.0)
        return platform.result().violation_fraction("svc")

    calm = run(False)
    stormy = run(True)
    # Failures cost something, but the platform absorbs most of it.
    assert stormy < 0.25
    assert stormy >= calm - 1e-9


@pytest.mark.slow
def test_hpc_gang_preempts_batch_end_to_end():
    platform = build(
        scheduler="converged",
        scheduler_kwargs={"preemption": True},
        cluster_spec=ClusterSpec(node_count=3),
    )
    job = platform.submit_bigdata(
        "filler", stages=[Stage("map", 100_000.0)],
        allocation=ResourceVector(cpu=12, memory=8, disk_bw=50, net_bw=50),
        executors=3,  # fills all three nodes
    )
    platform.run(120.0)
    assert len(job.running_pods()) == 3
    hpc = platform.submit_hpc(
        "urgent", ranks=3, duration=300.0,
        allocation=ResourceVector(cpu=10, memory=8, disk_bw=5, net_bw=50),
    )
    platform.run(1200.0)
    assert hpc.done
    assert platform.scheduler.preemptions >= 3
    # The batch job lost executors but self-healed and keeps running.
    assert not job.done
    assert job.running_pods()


@pytest.mark.slow
def test_safe_mode_engages_and_releases_on_scrape_loss():
    """Metrics pipeline goes dark → the controller freezes at the last
    known-good allocation (safe mode) and releases once scrapes resume."""
    platform = build(policy="adaptive")
    platform.deploy_microservice(
        "svc", trace=ConstantTrace(150), demands=DEMANDS,
        allocation=ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20),
        plo=LatencyPLO(0.05, window=30), replicas=3,
    )
    platform.run(300.0)
    manager = platform.policy.manager
    assert manager.resilience_stats()["safe_mode_entries"] == 0
    platform.metrics_faults.drop_scrapes(platform.engine.now, 120.0)
    platform.run(110.0)
    state = manager.entry_resilience("svc")
    assert state["safe_mode_entries"] >= 1
    assert state["safe_mode"] is True
    platform.run(190.0)
    state = manager.entry_resilience("svc")
    assert state["safe_mode_exits"] >= 1
    assert state["safe_mode"] is False  # released, not stuck


@pytest.mark.slow
def test_degradation_recovers_end_to_end():
    """Partial capacity loss: evicted pods respawn elsewhere and the
    degraded node returns to full allocatable after restore."""
    platform = build(policy="adaptive")
    svc = platform.deploy_microservice(
        "svc", trace=ConstantTrace(200), demands=DEMANDS,
        allocation=ResourceVector(cpu=4, memory=2, disk_bw=20, net_bw=20),
        plo=LatencyPLO(0.05, window=30), replicas=4,
    )
    platform.run(600.0)
    victim = svc.running_pods()[0].node_name
    before = platform.cluster.get_node(victim).allocatable
    platform.degrader.degrade_node(victim, 0.3)
    platform.run(300.0)
    # The policy may also scale horizontally; the point is no replica
    # stays lost after the partial capacity loss.
    assert len(svc.running_pods()) >= 4
    platform.degrader.restore_node(victim)
    platform.run(60.0)
    assert platform.cluster.get_node(victim).allocatable == before
    episode = platform.fault_log.by_kind("node-degradation")[0]
    assert not episode.active


def test_failed_node_pods_marked_evicted():
    platform = build()
    platform.deploy_microservice(
        "svc", trace=ConstantTrace(10), demands=DEMANDS,
        allocation=ResourceVector(cpu=1, memory=1), managed=False, replicas=2,
    )
    platform.run(60.0)
    victim = platform.apps["svc"].running_pods()[0]
    platform.injector.fail_node(victim.node_name)
    assert victim.phase == PodPhase.EVICTED
