"""Tests for HPC checkpoint/rollback on rank loss."""

import pytest

from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.resources import ResourceVector
from repro.workloads.hpc import HPCJob


ALLOC = ResourceVector(cpu=4, memory=8, disk_bw=10, net_bw=100)


def submit(engine, api, **kw):
    job = HPCJob(
        "mpi", engine, api, ranks=2, duration=200.0, allocation=ALLOC, **kw
    )
    job.maintain_replicas = True
    job.start()
    bind_all(engine, api)
    return job


def bind_all(engine, api):
    nodes = [n.name for n in api.list_nodes()]
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, nodes[i % len(nodes)])
    engine.run_until(engine.now + STARTUP_DELAY + 1.0)


def test_invalid_checkpoint_interval(engine, api):
    with pytest.raises(ValueError):
        HPCJob("j", engine, api, ranks=1, duration=10, allocation=ALLOC,
               checkpoint_interval=0)


def test_checkpoint_advances_with_progress(engine, api):
    job = submit(engine, api, checkpoint_interval=50.0)
    engine.run_until(86.0)  # ~80 s of progress → past checkpoint at 50 s
    assert job.progress > 0.25
    assert job.last_checkpoint == pytest.approx(0.25, abs=0.01)


def test_rank_loss_rolls_back_to_checkpoint(engine, api):
    job = submit(engine, api, checkpoint_interval=50.0)
    engine.run_until(86.0)  # progress ≈ 0.40, checkpoint = 0.25
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="preempted")
    engine.run_until(88.0)  # tick detects the loss
    assert job.rollbacks == 1
    assert job.progress == pytest.approx(0.25, abs=0.01)


def test_no_checkpointing_restarts_from_zero(engine, api):
    job = submit(engine, api)  # checkpoint_interval=None
    engine.run_until(86.0)
    assert job.progress > 0.3
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="node-failure")
    engine.run_until(88.0)
    assert job.rollbacks == 1
    assert job.progress == 0.0


def test_job_still_finishes_after_rollback(engine, api):
    job = submit(engine, api, checkpoint_interval=50.0)
    engine.run_until(86.0)
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="preempted")
    # The replacement rank is resubmitted by self-healing; bind it.
    engine.run_until(90.0)
    bind_all(engine, api)
    engine.run_until(600.0)
    assert job.done
    # Makespan exceeds the failure-free 206 s by the rolled-back work.
    assert job.makespan() > 210


def test_checkpointing_beats_restart_under_failure(engine, api):
    from tests.conftest import make_api
    from repro.sim.engine import Engine
    from tests.conftest import make_cluster

    def run(checkpoint_interval):
        eng = Engine()
        api2 = make_api(make_cluster(eng))
        job = HPCJob(
            "mpi", eng, api2, ranks=2, duration=200.0, allocation=ALLOC,
            checkpoint_interval=checkpoint_interval,
        )
        job.maintain_replicas = True
        job.start()
        nodes = [n.name for n in api2.list_nodes()]
        for i, pod in enumerate(api2.pending_pods()):
            api2.bind_pod(pod.name, nodes[i % len(nodes)])
        eng.run_until(150.0)  # ~144 s of progress
        api2.delete_pod(job.running_pods()[0].name, reason="chaos")
        eng.run_until(155.0)
        for pod in api2.pending_pods():
            api2.bind_pod(pod.name, nodes[0])
        eng.run_until(2000.0)
        assert job.done
        return job.makespan()

    with_ckpt = run(25.0)
    without = run(None)
    assert with_ckpt < without - 50


def test_no_rollback_without_progress(engine, api):
    job = HPCJob("mpi", engine, api, ranks=2, duration=100.0, allocation=ALLOC)
    job.start()
    # Delete a pending rank before the gang ever ran.
    api.delete_pod("mpi-0", reason="preempted")
    engine.run_until(5.0)
    assert job.rollbacks == 0


def test_checkpoint_boundary_reached_within_float_rounding(engine, api):
    # Regression: with duration=51 and interval=30, thirty ticks of
    # 1/51 progress accumulate to 30/51 minus ~2 ulp. Plain truncation
    # of progress/step read that as "boundary not reached" and kept the
    # checkpoint a whole interval back; the tolerance must count it.
    job = HPCJob(
        "mpi", engine, api, ranks=2, duration=51.0, allocation=ALLOC,
        checkpoint_interval=30.0,
    )
    job.maintain_replicas = True
    job.start()
    bind_all(engine, api)
    engine.run_until(STARTUP_DELAY + 30.5)  # 30 progress ticks after the gang forms
    step = 30.0 / 51.0
    assert job.progress == pytest.approx(step, abs=1e-12)
    assert job.last_checkpoint == pytest.approx(step, abs=1e-9)
    assert job.last_checkpoint > 0.0

    # A rank loss right at the boundary loses nothing: the checkpoint
    # equals current progress, so the rollback is a no-op — with the
    # old truncation it would have reset the job a full interval back.
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="preempted")
    engine.run_until(STARTUP_DELAY + 33.0)
    assert job.rollbacks == 0
    assert job.progress >= step - 1e-9
