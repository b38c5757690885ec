"""Unit tests for the Application driver base."""

import pytest

from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.workloads.base import TICK_INTERVAL, Application


ALLOC = ResourceVector(cpu=1, memory=1, disk_bw=10, net_bw=10)


class TickCounter(Application):
    """Minimal concrete app recording its ticks."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("workload_class", WorkloadClass.MICROSERVICE)
        kwargs.setdefault("initial_allocation", ALLOC)
        super().__init__(*args, **kwargs)
        self.ticks = []

    def tick(self, dt, now):
        self.ticks.append((dt, now))


def bind_all(api, engine):
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(engine.now + STARTUP_DELAY + 1.0)


def test_start_submits_initial_replicas(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=3)
    app.start()
    assert len(api.pending_pods()) == 3
    assert app.replica_count == 3
    assert [p.name for p in app.pods()] == ["svc-0", "svc-1", "svc-2"]


def test_double_start_rejected(engine, api):
    app = TickCounter("svc", engine, api)
    app.start()
    with pytest.raises(RuntimeError):
        app.start()


def test_tick_cadence_and_dt(engine, api):
    app = TickCounter("svc", engine, api)
    app.start()
    engine.run_until(6 * TICK_INTERVAL)
    assert len(app.ticks) == 6
    assert all(dt == TICK_INTERVAL for dt, _now in app.ticks)


def test_scale_up_and_down(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=1)
    app.start()
    app.scale_to(3)
    assert app.replica_count == 3
    app.scale_to(1)
    assert app.replica_count == 1
    # Newest pods were deleted.
    assert api.get_pod("svc-2").phase == PodPhase.EVICTED
    assert api.get_pod("svc-0").phase == PodPhase.PENDING


def test_scale_to_negative_rejected(engine, api):
    app = TickCounter("svc", engine, api)
    app.start()
    with pytest.raises(ValueError):
        app.scale_to(-1)


def test_running_pods_after_bind(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    assert len(app.running_pods()) == 2


def test_set_target_allocation_resizes_running(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    new_alloc = ALLOC.replace(cpu=2)
    accepted = app.set_target_allocation(new_alloc)
    assert accepted == 2
    engine.run_until(engine.now + 2.0)
    assert all(p.allocation.cpu == 2 for p in app.running_pods())
    assert app.current_allocation().cpu == 2


def test_new_replicas_use_target_allocation(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=1)
    app.start()
    app.set_target_allocation(ALLOC.replace(cpu=4))
    app.scale_to(2)
    assert api.get_pod("svc-1").allocation.cpu == 4


def test_current_allocation_falls_back_to_target(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=0)
    app.start()
    assert app.current_allocation() == ALLOC


def test_prune_externally_evicted_pods(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    api.delete_pod("svc-0", reason="preempted")
    engine.run_until(2.0)  # a tick prunes
    assert app.replica_count == 1


def test_stop_deletes_pods(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    engine.run_until(3.0)
    ticks_before = len(app.ticks)
    app.stop()
    engine.run_until(10.0)
    assert len(app.ticks) == ticks_before
    assert app.finished
    assert all(p.phase == PodPhase.EVICTED for p in api.list_pods(app="svc"))


def test_sample_metrics_aggregates(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    for pod in app.running_pods():
        pod.record_usage(ResourceVector(cpu=0.5))
    metrics = app.sample_metrics(engine.now)
    assert metrics["running_replicas"] == 2.0
    assert metrics["alloc/cpu"] == 2.0
    assert metrics["usage/cpu"] == pytest.approx(1.0)


def test_metric_prefix(engine, api):
    assert TickCounter("svc", engine, api).metric_prefix() == "app/svc"
