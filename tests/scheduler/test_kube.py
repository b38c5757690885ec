"""Unit tests for the baseline kube scheduler."""

import pytest

from repro.cluster.pod import PodPhase
from repro.scheduler.kube import KubeScheduler
from tests.conftest import make_spec


def test_least_allocated_prefers_empty_node(engine, api):
    scheduler = KubeScheduler(engine, api)
    api.create_pod(make_spec("filler", cpu=10))
    api.bind_pod("filler", "node-0")
    api.create_pod(make_spec("new", cpu=1))
    node = scheduler.select_node(api.get_pod("new"))
    assert node.name in ("node-1", "node-2")


def test_binds_pending_pods_each_cycle(engine, api):
    scheduler = KubeScheduler(engine, api)
    scheduler.start()
    api.create_pod(make_spec("p0"))
    api.create_pod(make_spec("p1"))
    engine.run_until(1.0)
    assert api.pending_pods() == []
    assert scheduler.binds == 2


def test_unschedulable_pod_retried(engine, api):
    scheduler = KubeScheduler(engine, api)
    scheduler.start()
    api.create_pod(make_spec("huge", cpu=1000))
    engine.run_until(3.0)
    assert api.get_pod("huge").phase == PodPhase.PENDING
    assert scheduler.failures >= 3


def test_spreads_across_nodes(engine, api):
    scheduler = KubeScheduler(engine, api)
    scheduler.start()
    for i in range(6):
        api.create_pod(make_spec(f"p{i}", cpu=2))
    engine.run_until(1.0)
    nodes_used = {api.get_pod(f"p{i}").node_name for i in range(6)}
    assert len(nodes_used) == 3  # spread over all nodes


def test_score_is_deterministic_tiebreak(engine, api):
    scheduler = KubeScheduler(engine, api)
    api.create_pod(make_spec("p"))
    pod = api.get_pod("p")
    # All nodes empty and identical ⇒ highest name wins the tiebreak,
    # but the important property is determinism:
    assert scheduler.select_node(pod).name == scheduler.select_node(pod).name


def test_gang_pods_bound_individually_can_strand(engine, api):
    """Vanilla scheduler has no gang awareness: it happily binds a partial
    gang — the pathology the converged scheduler fixes."""
    scheduler = KubeScheduler(engine, api)
    scheduler.start()
    # Gang of 8 × 8-cpu ranks: cluster fits only 6 (3 nodes × 16 cpu).
    for i in range(8):
        api.create_pod(make_spec(f"rank-{i}", cpu=8, gang_id="job"))
    engine.run_until(2.0)
    bound = [p for p in api.list_pods() if p.node_name is not None]
    assert 0 < len(bound) < 8  # partial gang stranded


def test_invalid_interval(engine, api):
    # The cycle interval is the constant SCHEDULE_INTERVAL.
    with pytest.raises(TypeError):
        KubeScheduler(engine, api, interval=0)


def test_double_start_rejected(engine, api):
    scheduler = KubeScheduler(engine, api)
    scheduler.start()
    with pytest.raises(RuntimeError):
        scheduler.start()


def test_stop_halts_cycles(engine, api):
    scheduler = KubeScheduler(engine, api)
    scheduler.start()
    engine.run_until(2.0)
    scheduler.stop()
    engine.run_until(10.0)
    assert scheduler.cycles == 2
