"""Unit tests for the cluster state machine."""

import pytest

from repro.cluster.cluster import (
    STARTUP_DELAY,
    Cluster,
    ClusterError,
    NodeNotFound,
    PodNotFound,
)
from repro.cluster.events import (
    PodEvicted,
    PodFinished,
    PodResized,
    PodScheduled,
    PodStarted,
    PodSubmitted,
)
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from tests.conftest import make_api, make_spec


def test_duplicate_node_names_rejected(engine):
    with pytest.raises(ClusterError):
        Cluster(
            engine,
            [Node("n", ResourceVector(cpu=1)), Node("n", ResourceVector(cpu=1))],
        )


def test_submit_enqueues_and_publishes(engine, cluster):
    seen = []
    cluster.events.subscribe(PodSubmitted, seen.append)
    pod = cluster.submit(make_spec("p0"))
    assert pod.phase == PodPhase.PENDING
    assert cluster.pending_pods() == [pod]
    assert seen[0].app == "app"


def test_duplicate_pod_name_rejected(engine, cluster):
    cluster.submit(make_spec("p0"))
    with pytest.raises(ClusterError):
        cluster.submit(make_spec("p0"))


def test_bind_transitions_and_starts_after_delay(engine, cluster):
    events = []
    cluster.events.subscribe(PodScheduled, events.append)
    cluster.events.subscribe(PodStarted, events.append)
    pod = cluster.submit(make_spec("p0"))
    cluster.bind("p0", "node-0")
    assert pod.phase == PodPhase.SCHEDULED
    assert cluster.pending_pods() == []
    engine.run_until(STARTUP_DELAY - 0.1)
    assert pod.phase == PodPhase.SCHEDULED
    engine.run_until(STARTUP_DELAY)
    assert pod.phase == PodPhase.RUNNING
    assert pod.started_at == STARTUP_DELAY
    assert [type(e).__name__ for e in events] == ["PodScheduled", "PodStarted"]


def test_bind_non_pending_rejected(engine, cluster):
    cluster.submit(make_spec("p0"))
    cluster.bind("p0", "node-0")
    with pytest.raises(ClusterError):
        cluster.bind("p0", "node-1")


def test_bind_unknown_pod_or_node(engine, cluster):
    with pytest.raises(PodNotFound):
        cluster.bind("ghost", "node-0")
    cluster.submit(make_spec("p0"))
    with pytest.raises(NodeNotFound):
        cluster.bind("p0", "ghost")


def test_unknown_lookups_raise_typed_errors(engine, cluster):
    with pytest.raises(PodNotFound, match="ghost-pod"):
        cluster.get_pod("ghost-pod")
    with pytest.raises(NodeNotFound, match="ghost-node"):
        cluster.get_node("ghost-node")
    # Both are ClusterError (new callers) *and* KeyError (legacy callers),
    # and stringify like a normal error, not KeyError's repr form.
    for exc_type, trigger in (
        (PodNotFound, lambda: cluster.get_pod("x")),
        (NodeNotFound, lambda: cluster.get_node("x")),
    ):
        with pytest.raises((ClusterError, KeyError)) as info:
            trigger()
        assert isinstance(info.value, exc_type)
        kind = "pod" if exc_type is PodNotFound else "node"
        assert str(info.value) == f"unknown {kind} 'x'"


def test_finish_releases_resources(engine, cluster):
    events = []
    cluster.events.subscribe(PodFinished, events.append)
    pod = cluster.submit(make_spec("p0", cpu=2))
    cluster.bind("p0", "node-0")
    engine.run_until(10.0)
    node = cluster.get_node("node-0")
    assert node.allocated.cpu == 2
    cluster.finish("p0")
    assert pod.phase == PodPhase.SUCCEEDED
    assert node.allocated.is_zero()
    assert pod.usage.is_zero()
    assert events[0].succeeded


def test_finish_failed(engine, cluster):
    pod = cluster.submit(make_spec("p0"))
    cluster.finish("p0", succeeded=False)
    assert pod.phase == PodPhase.FAILED


def test_finish_twice_rejected(engine, cluster):
    cluster.submit(make_spec("p0"))
    cluster.finish("p0")
    with pytest.raises(ClusterError):
        cluster.finish("p0")


def test_evict_pending_pod(engine, cluster):
    events = []
    cluster.events.subscribe(PodEvicted, events.append)
    pod = cluster.submit(make_spec("p0"))
    cluster.evict("p0", reason="test")
    assert pod.phase == PodPhase.EVICTED
    assert cluster.pending_pods() == []
    assert events[0].reason == "test"


def test_evict_running_pod_releases_node(engine, cluster):
    cluster.submit(make_spec("p0", cpu=2))
    cluster.bind("p0", "node-0")
    engine.run_until(10.0)
    cluster.evict("p0")
    assert cluster.get_node("node-0").allocated.is_zero()


def test_evicted_while_starting_never_starts(engine, cluster):
    pod = cluster.submit(make_spec("p0"))
    cluster.bind("p0", "node-0")
    engine.run_until(2.0)
    cluster.evict("p0")
    engine.run_until(10.0)  # the scheduled _start callback fires harmlessly
    assert pod.phase == PodPhase.EVICTED


class TestResize:
    def test_resize_applies_after_delay(self, engine, cluster):
        events = []
        cluster.events.subscribe(PodResized, events.append)
        pod = cluster.submit(make_spec("p0", cpu=1))
        cluster.bind("p0", "node-0")
        engine.run_until(6.0)
        new_alloc = pod.allocation.replace(cpu=2)
        assert cluster.resize_pod("p0", new_alloc)
        assert pod.allocation.cpu == 1  # not yet applied
        engine.run_until(7.0)
        assert pod.allocation.cpu == 2
        assert cluster.get_node("node-0").allocated.cpu == 2
        assert events[0].old_allocation.cpu == 1

    def test_resize_pending_pod_denied(self, engine, cluster):
        cluster.submit(make_spec("p0"))
        assert not cluster.resize_pod("p0", ResourceVector(cpu=2))

    def test_resize_beyond_node_denied(self, engine, cluster):
        pod = cluster.submit(make_spec("p0", cpu=1))
        cluster.bind("p0", "node-0")
        engine.run_until(6.0)
        huge = pod.allocation.replace(cpu=10_000)
        assert not cluster.resize_pod("p0", huge)

    def test_resize_negative_denied(self, engine, cluster):
        cluster.submit(make_spec("p0"))
        cluster.bind("p0", "node-0")
        engine.run_until(6.0)
        assert not cluster.resize_pod("p0", ResourceVector(cpu=-1))

    def test_resize_dropped_if_headroom_vanishes(self, engine, cluster):
        events = []
        cluster.events.subscribe(PodResized, events.append)
        pod = cluster.submit(make_spec("p0", cpu=1))
        cluster.bind("p0", "node-0")
        engine.run_until(6.0)
        node = cluster.get_node("node-0")
        free_cpu = node.free.cpu
        assert cluster.resize_pod("p0", pod.allocation.replace(cpu=1 + free_cpu))
        # A competing pod grabs the headroom before the resize applies.
        cluster.submit(make_spec("greedy", cpu=free_cpu))
        cluster.bind("greedy", "node-0")
        allocated = node.allocated
        engine.run_until(8.0)  # the apply raises nothing
        assert pod.allocation.cpu == 1  # resize silently dropped
        assert node.allocated is allocated
        assert events == []
        node.verify_invariants()

    def test_resize_on_evicted_pod_is_noop(self, engine, cluster):
        cluster.submit(make_spec("p0"))
        cluster.bind("p0", "node-0")
        engine.run_until(6.0)
        assert cluster.resize_pod("p0", ResourceVector(cpu=2, memory=1))
        cluster.evict("p0")
        engine.run_until(8.0)  # apply callback must not crash
        cluster.verify_invariants()


def test_totals(engine, cluster):
    cluster.submit(make_spec("a", cpu=2))
    cluster.submit(make_spec("b", cpu=3))
    cluster.bind("a", "node-0")
    cluster.bind("b", "node-1")
    assert cluster.total_allocated().cpu == 5
    assert cluster.total_allocatable().cpu == 48


def test_pods_of_app_and_gang(engine, cluster):
    cluster.submit(make_spec("a-0", app="a"))
    cluster.submit(make_spec("a-1", app="a"))
    cluster.submit(make_spec("g-0", app="g", gang_id="g"))
    assert len(make_api(cluster).list_pods(app="a")) == 2


def test_verify_invariants_clean(engine, cluster):
    cluster.submit(make_spec("p0"))
    cluster.bind("p0", "node-0")
    engine.run_until(10.0)
    cluster.verify_invariants()
