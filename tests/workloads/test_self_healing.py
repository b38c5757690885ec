"""Unit tests for application self-healing (maintain_replicas)."""

from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.workloads.base import Application


ALLOC = ResourceVector(cpu=1, memory=1, disk_bw=10, net_bw=10)


class Dummy(Application):
    def __init__(self, *args, maintain_replicas=False, **kwargs):
        kwargs.setdefault("workload_class", WorkloadClass.MICROSERVICE)
        kwargs.setdefault("initial_allocation", ALLOC)
        super().__init__(*args, **kwargs)
        # The platform turns self-healing on the same way.
        self.maintain_replicas = maintain_replicas

    def tick(self, dt, now):
        pass


def test_disabled_by_default(engine, api):
    app = Dummy("svc", engine, api, initial_replicas=2)
    app.start()
    api.delete_pod("svc-0", reason="preempted")
    engine.run_until(3.0)
    assert app.replica_count == 1
    assert app.replacements == 0


def test_respawns_lost_replica(engine, api):
    app = Dummy("svc", engine, api, initial_replicas=2, maintain_replicas=True)
    app.start()
    api.delete_pod("svc-0", reason="preempted")
    engine.run_until(3.0)
    assert app.replica_count == 2
    assert app.replacements == 1
    # The replacement got a fresh name.
    assert {p.name for p in app.pods()} == {"svc-1", "svc-2"}


def test_respawn_uses_current_target_allocation(engine, api):
    app = Dummy("svc", engine, api, initial_replicas=1, maintain_replicas=True)
    app.start()
    app.set_target_allocation(ALLOC.replace(cpu=3))
    api.delete_pod("svc-0", reason="node-failure")
    engine.run_until(3.0)
    replacement = app.pods()[0]
    assert replacement.allocation.cpu == 3


def test_scale_down_not_fought(engine, api):
    """Self-healing honors the autoscaler's desired count, not history."""
    app = Dummy("svc", engine, api, initial_replicas=3, maintain_replicas=True)
    app.start()
    app.scale_to(1)
    engine.run_until(5.0)
    assert app.replica_count == 1
    assert app.replacements == 0


def test_no_respawn_after_stop(engine, api):
    app = Dummy("svc", engine, api, initial_replicas=2, maintain_replicas=True)
    app.start()
    app.stop()
    engine.run_until(10.0)
    assert app.replica_count == 0


def test_multiple_losses_all_replaced(engine, api):
    app = Dummy("svc", engine, api, initial_replicas=3, maintain_replicas=True)
    app.start()
    for name in ("svc-0", "svc-1", "svc-2"):
        api.delete_pod(name, reason="node-failure")
    engine.run_until(3.0)
    assert app.replica_count == 3
    assert app.replacements == 3
    assert all(p.phase == PodPhase.PENDING for p in app.pods())


def test_single_loss_not_delayed(engine, api):
    """An isolated failure heals immediately; backoff needs a crash *loop*."""
    app = Dummy("svc", engine, api, initial_replicas=2, maintain_replicas=True)
    app.start()
    api.delete_pod("svc-0", reason="node-failure")
    engine.run_until(3.0)
    assert app.replica_count == 2
    assert app.crash_loop_backoffs == 0


def test_crash_loop_triggers_backoff(engine, api):
    """Pods dying as fast as they respawn must stop resubmitting hot.

    A killer deletes every replica each second (after the app's tick, so
    each tick's resubmits land and then die). Without backoff that is one
    replacement round per second; with the default threshold of 3 rounds
    per window, round 4 is pushed out exponentially.
    """
    app = Dummy("svc", engine, api, initial_replicas=2, maintain_replicas=True)
    app.start()

    def kill_all():
        for pod in app.pods():
            api.delete_pod(pod.name, reason="node-failure")

    engine.every(1.0, kill_all, priority=10)
    engine.run_until(10.0)
    # Rounds land at t=2,3,4 (threshold hit -> 5 s backoff), then t=9.
    assert app.crash_loop_backoffs >= 1
    # Hot resubmission would have burned ~18 replacements by now.
    assert app.replacements <= 8


def test_heal_absorbs_actuation_outage(engine, api):
    """Resubmits during an API outage are swallowed and retried later,
    and the failed attempts do not count as crash-loop rounds."""
    app = Dummy("svc", engine, api, initial_replicas=2, maintain_replicas=True)
    app.start()
    api.delete_pod("svc-0", reason="node-failure")
    faults = api.actuation_faults
    faults.outage(0.0, 5.0)
    engine.run_until(4.0)
    # Ticks at t=1..4 all hit the outage; the loss is still open.
    assert app.replica_count == 1
    engine.run_until(8.0)
    assert app.replica_count == 2
    assert app.replacements == 1
    assert app.crash_loop_backoffs == 0
    assert faults.injected_failures >= 3
