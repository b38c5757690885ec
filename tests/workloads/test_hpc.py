"""Unit tests for the gang-scheduled HPC job model."""

import pytest

from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.workloads.hpc import HPCJob


ALLOC = ResourceVector(cpu=4, memory=8, disk_bw=10, net_bw=100)


def submit(engine, api, *, ranks=4, duration=100.0, **kw):
    job = HPCJob(
        "mpi", engine, api,
        ranks=ranks, duration=duration, allocation=ALLOC, **kw,
    )
    job.start()
    return job


def bind_all(engine, api, *, spread=True):
    nodes = [n.name for n in api.list_nodes()]
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, nodes[i % len(nodes)] if spread else nodes[0])
    engine.run_until(engine.now + STARTUP_DELAY + 1.0)


class TestValidation:
    def test_invalid_params(self, engine, api):
        with pytest.raises(ValueError):
            HPCJob("j", engine, api, ranks=0, duration=10, allocation=ALLOC)
        with pytest.raises(ValueError):
            HPCJob("j", engine, api, ranks=2, duration=0, allocation=ALLOC)
        with pytest.raises(ValueError):
            HPCJob("j", engine, api, ranks=2, duration=10, allocation=ALLOC,
                   comm_fraction=1.0)

    def test_pods_carry_gang_id(self, engine, api):
        submit(engine, api)
        assert all(p.spec.gang_id == "mpi" for p in api.pending_pods())


class TestGangSemantics:
    def test_no_progress_until_gang_complete(self, engine, api):
        job = submit(engine, api, ranks=3)
        # Bind only two of three ranks.
        pods = api.pending_pods()
        api.bind_pod(pods[0].name, "node-0")
        api.bind_pod(pods[1].name, "node-1")
        engine.run_until(60.0)
        assert job.progress == 0.0
        assert job.gang_started_at is None

    def test_partial_gang_burns_trickle_cpu(self, engine, api):
        submit(engine, api, ranks=3)
        pods = api.pending_pods()
        api.bind_pod(pods[0].name, "node-0")
        engine.run_until(20.0)
        running = api.list_pods(phase=PodPhase.RUNNING)
        assert running
        assert running[0].usage.cpu <= 0.05

    def test_full_gang_runs_to_completion(self, engine, api):
        job = submit(engine, api, ranks=4, duration=100.0)
        bind_all(engine, api)
        engine.run_until(300.0)
        assert job.done
        # startup + 100 s of work.
        assert job.makespan() == pytest.approx(STARTUP_DELAY + 101, abs=5)
        assert job.wait_time() == pytest.approx(STARTUP_DELAY + 1, abs=3)

    def test_pods_succeed_on_completion(self, engine, api):
        job = submit(engine, api, ranks=2, duration=20.0)
        bind_all(engine, api)
        engine.run_until(100.0)
        assert job.done
        assert all(
            p.phase == PodPhase.SUCCEEDED for p in api.list_pods(app="mpi")
        )

    def test_slowest_rank_gates_gang(self, engine, api):
        job = submit(engine, api, ranks=2, duration=100.0, comm_fraction=0.0)
        bind_all(engine, api)
        # Squeeze one rank to half CPU.
        victim = job.running_pods()[0]
        api.patch_pod_allocation(victim.name, victim.allocation.replace(cpu=2))
        engine.run_until(engine.now + 2.0)
        assert job._rank_speed(victim.allocation) == pytest.approx(0.5)
        engine.run_until(400.0)
        assert job.done
        # Whole gang ran at half speed: ~200s of work.
        assert job.makespan() == pytest.approx(STARTUP_DELAY + 201, abs=15)

    def test_network_squeeze_slows_comm_heavy_job(self, engine, api):
        job = submit(engine, api, ranks=2, duration=100.0, comm_fraction=0.5)
        bind_all(engine, api)
        victim = job.running_pods()[0]
        api.patch_pod_allocation(victim.name, victim.allocation.replace(net_bw=50))
        engine.run_until(engine.now + 2.0)
        # comm half of time at half speed: rate = 1/(0.5 + 0.5/0.5) = 2/3.
        assert job._rank_speed(victim.allocation) == pytest.approx(2 / 3)

    def test_extra_allocation_does_not_speed_up(self, engine, api):
        job = submit(engine, api, ranks=2)
        bind_all(engine, api)
        fat = ALLOC.replace(cpu=8)
        assert job._rank_speed(fat) == pytest.approx(1.0)


class TestMetrics:
    def test_metrics_exported(self, engine, api):
        job = submit(engine, api, ranks=2, duration=100.0)
        bind_all(engine, api)
        engine.run_until(30.0)
        metrics = job.sample_metrics(engine.now)
        assert metrics["gang_complete"] == 1.0
        assert 0 < metrics["progress"] < 1
        assert metrics["gang_rate"] == pytest.approx(1.0)

    def test_usage_reflects_gang_rate(self, engine, api):
        job = submit(engine, api, ranks=2, duration=1000.0)
        bind_all(engine, api)
        engine.run_until(30.0)
        pod = job.running_pods()[0]
        assert pod.usage.cpu == pytest.approx(ALLOC.cpu, rel=0.05)
