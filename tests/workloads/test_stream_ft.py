"""Tests for stream checkpoint/replay fault tolerance."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.dataplane import RESTORE_DELAY
from repro.workloads.stream import Operator, StreamJob
from repro.workloads.traces import ConstantTrace


ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=100)


def deploy(engine, api, *, workers=2, ft=True, rate=100.0, **kw):
    job = StreamJob(
        "stream", engine, api,
        trace=ConstantTrace(rate),
        operators=[Operator("parse", 0.004), Operator("agg", 0.002)],
        initial_allocation=ALLOC, initial_workers=workers, ft=ft, **kw,
    )
    job.maintain_replicas = True
    job.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(engine.now + 6.0)
    return job


def assert_conservation(job):
    assert job.total_arrived == pytest.approx(
        job.total_processed + job.lag_events, abs=1e-6
    )


def test_disabled_ft_adds_no_state_or_metrics(engine, api):
    job = deploy(engine, api, ft=False)
    engine.run_until(60.0)
    assert not job.ft
    metrics = job.sample_metrics(engine.now)
    assert "checkpoints" not in metrics
    assert "restarts" not in metrics
    assert_conservation(job)


def test_checkpoints_advance_on_schedule(engine, api):
    job = deploy(engine, api)
    engine.run_until(100.0)
    # Default interval is 30 s; ~100 s of run time → 3-4 barriers.
    assert 3 <= job.checkpoints <= 4
    assert job.last_checkpoint_at > 0.0
    metrics = job.sample_metrics(engine.now)
    assert metrics["checkpoint_age"] == engine.now - job.last_checkpoint_at
    assert_conservation(job)


def test_worker_loss_rolls_back_to_checkpoint(engine, api):
    job = deploy(engine, api)
    engine.run_until(100.0)
    processed_before = job.total_processed
    ckpt = job._ckpt_processed
    assert processed_before > ckpt
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="worker-kill")
    engine.run_until(103.0)
    assert job.restarts == 1
    # Everything processed past the barrier was replayed into the lag.
    assert job.replayed_total == pytest.approx(processed_before - ckpt)
    assert job.total_processed == pytest.approx(ckpt)
    assert job.lag_events >= job.replayed_total
    assert_conservation(job)


def test_restore_window_stalls_processing(engine, api):
    job = deploy(engine, api)
    engine.run_until(100.0)
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="worker-kill")
    engine.run_until(100.0 + RESTORE_DELAY / 2)
    # Mid-restore: workers are up but rebuilding operator state.
    assert engine.now < job._restore_until
    assert job.current_rate == 0.0
    # After the restore window the pipeline drains its backlog.
    engine.run_until(200.0)
    assert job.current_rate > 0.0
    assert job.lag_events == pytest.approx(0.0, abs=1.0)
    assert_conservation(job)


def test_backlog_recovers_after_restart(engine, api):
    job = deploy(engine, api)
    engine.run_until(100.0)
    victim = job.running_pods()[0]
    api.delete_pod(victim.name, reason="worker-kill")
    engine.run_until(300.0)
    # Ample spare capacity: the replayed backlog fully drains and the
    # watermark catches back up.
    assert job.lag_events == pytest.approx(0.0, abs=1.0)
    assert job.current_lag_seconds < 1.0
    assert job.restarts == 1
    assert_conservation(job)
