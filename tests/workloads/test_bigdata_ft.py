"""Tests for the fault-tolerant big-data task engine.

Covers the PR-7 data-plane machinery: task-granular execution matching
the fluid model fault-free, executor-loss share re-open, lineage
recompute of wiped shuffle outputs, speculative duplicates on
stragglers, retry budgets with quarantine, and the work-conservation
ledger that ties all of it together.
"""

import pytest

from repro.cluster.chaos import FailureInjector
from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.resources import ResourceVector
from repro.dataplane import STAGE_MAX_ATTEMPTS, backoff
from repro.workloads.bigdata import BigDataJob, Stage

from tests.conftest import make_cluster
from repro.cluster.api import ClusterAPI
from repro.sim.engine import Engine


ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=100, net_bw=100)


def submit(engine, api, *, stages, executors=2, node="node-0", ft=True, **kw):
    job = BigDataJob(
        "job", engine, api,
        stages=stages, initial_allocation=ALLOC,
        initial_executors=executors, ft=ft, **kw,
    )
    job.maintain_replicas = True
    job.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, node)
    engine.run_until(engine.now + STARTUP_DELAY + 1.0)
    return job


def bind_pending(api, node):
    for pod in api.pending_pods():
        api.bind_pod(pod.name, node)


def assert_ledger(job):
    """The conservation identity: retired = useful + spec + waste + reopened."""
    ledger = job.ft_accounting()
    lhs = ledger["retired"]
    rhs = (
        ledger["useful"]
        + ledger["spec_inflight"]
        + ledger["wasted"]
        + ledger["reopened"]
    )
    assert lhs == pytest.approx(rhs, abs=1e-6 * max(1.0, lhs))
    return ledger


class TestDisabledIsInert:
    def test_disabled_config_keeps_fluid_path(self, engine, api):
        job = submit(
            engine, api, stages=[Stage("map", 100.0)],
            ft=False,
        )
        assert not job.ft
        assert job.ft_accounting() is None

    def test_no_fault_makespan_matches_fluid_model(self):
        def run(ft):
            engine = Engine()
            cluster = make_cluster(engine)
            api = ClusterAPI(cluster)
            job = submit(
                engine, api,
                stages=[
                    Stage("scan", 200.0, input_mb=400.0),
                    Stage("agg", 100.0, input_mb=40.0, deps=("scan",)),
                ],
                ft=ft,
            )
            engine.run_until(400.0)
            return job

        fluid = run(False)
        ft = run(True)
        assert fluid.done and ft.done
        # Task granularity costs nothing without faults: the engines
        # retire identical work per tick and finish together.
        assert ft.completed_at == pytest.approx(fluid.completed_at, abs=1e-9)
        ledger = assert_ledger(ft)
        assert ledger["reopened"] == 0.0
        assert ledger["wasted"] == 0.0
        assert ledger["useful"] == pytest.approx(300.0)


class TestExecutorLoss:
    def test_loss_reopens_only_lost_share(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 400.0)])
        # t=29 lands mid-task (t=30 would be exactly a task boundary,
        # where the victim holds no in-flight share to lose).
        engine.run_until(29.0)
        victim = job.running_pods()[0]
        api.delete_pod(victim.name, reason="executor-kill")
        engine.run_until(32.0)
        assert job.executor_losses == 1
        # Only the victim's in-flight share re-opened, not the job.
        assert 0.0 < job.ft_reopened_work < 400.0
        assert_ledger(job)
        # Self-healing resubmits; the job still completes.
        bind_pending(api, "node-0")
        engine.run_until(300.0)
        assert job.done and not job.failed
        ledger = assert_ledger(job)
        assert ledger["useful"] == pytest.approx(400.0)
        # Total executor effort exceeds the useful work by the re-opened share.
        assert ledger["retired"] == pytest.approx(400.0 + job.ft_reopened_work)

    def test_backoff_delays_redispatch(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 400.0)])
        engine.run_until(29.0)
        victim = job.running_pods()[0]
        api.delete_pod(victim.name, reason="executor-kill")
        engine.run_until(32.0)
        rt = job._runtime["map"]
        assert rt.attempts == 1
        # Unclaimed tasks of the struck stage wait out the backoff
        # (loss detected on the tick after eviction, so ≥ 29 + backoff).
        waiting = [t for t in rt.tasks if not t.done and t.runner is None]
        assert waiting
        assert all(t.dispatch_after >= 29.0 + backoff(1) for t in waiting)
        assert all(t.dispatch_after > engine.now for t in waiting)


class TestLineage:
    def test_node_wipe_reopens_upstream_outputs(self, engine, cluster, api):
        job = submit(
            engine, api,
            stages=[
                Stage("scan", 100.0),
                Stage("agg", 300.0, deps=("scan",)),
            ],
        )
        # Let scan finish (outputs land on node-0), agg get underway.
        engine.run_until(60.0)
        assert job._runtime["scan"].done_count() == len(
            job._runtime["scan"].tasks
        )
        assert not job.done
        injector = FailureInjector(cluster)
        injector.fail_node("node-0")
        engine.run_until(65.0)
        # Scan's shuffle output died with node-0 while agg still needs
        # it: lineage re-opens the scan tasks.
        assert job.lineage_recomputes > 0
        assert job._runtime["scan"].done_count() < len(
            job._runtime["scan"].tasks
        )
        assert_ledger(job)
        # Recovery elsewhere: heal the node, rebind, job completes.
        injector.recover_node("node-0")
        bind_pending(api, "node-1")
        engine.run_until(engine.now + 400.0)
        bind_pending(api, "node-1")
        engine.run_until(800.0)
        assert job.done and not job.failed
        ledger = assert_ledger(job)
        assert ledger["useful"] == pytest.approx(400.0)

    def test_terminal_stage_outputs_are_durable(self, engine, cluster, api):
        # A completed job's final outputs have no incomplete dependents;
        # wiping their node must NOT re-open anything.
        job = submit(engine, api, stages=[Stage("map", 100.0)])
        engine.run_until(60.0)
        assert job.done
        FailureInjector(cluster).fail_node("node-0")
        engine.run_until(70.0)
        assert job.lineage_recomputes == 0
        assert job.done


class TestSpeculation:
    def test_straggler_triggers_winning_duplicate(self, engine, cluster, api):
        job = BigDataJob(
            "job", engine, api,
            stages=[Stage("map", 600.0, max_parallelism=4)],
            initial_allocation=ALLOC, initial_executors=4, ft=True,
        )
        job.start()
        pods = sorted(api.pending_pods(), key=lambda p: p.name)
        for pod in pods[:3]:
            api.bind_pod(pod.name, "node-0")
        api.bind_pod(pods[3].name, "node-1")
        cluster.get_node("node-1").speed_factor = 0.05
        engine.run_until(300.0)
        assert job.done and not job.failed
        # The slow copy was detected, duplicated, and lost the race.
        assert job.speculative_launched >= 1
        assert job.speculative_wins >= 1
        assert job.ft_wasted_work > 0.0
        ledger = assert_ledger(job)
        assert ledger["useful"] == pytest.approx(600.0)

    def test_no_speculation_without_stragglers(self, engine, api):
        job = submit(
            engine, api,
            stages=[Stage("map", 200.0, max_parallelism=4)],
            executors=4,
        )
        engine.run_until(200.0)
        assert job.done
        assert job.speculative_launched == 0
        assert job.ft_wasted_work == 0.0


class TestQuarantine:
    def test_retry_budget_exhaustion_fails_job(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 5000.0)])
        rt = job._runtime["map"]
        for _ in range(STAGE_MAX_ATTEMPTS + 1):
            assert not job.failed
            # Strike an executor mid-task: one fault batch on the stage.
            busy = sorted({t.runner for t in rt.tasks if t.runner and not t.done})
            api.delete_pod(busy[0], reason="executor-kill")
            engine.run_until(engine.now + 3.0)
            bind_pending(api, "node-0")
            # Wait out the re-dispatch backoff so that the next strike
            # again finds an executor holding a task.
            engine.run_until(
                engine.now + backoff(rt.attempts) + STARTUP_DELAY + 3.0
            )
        assert rt.attempts == STAGE_MAX_ATTEMPTS + 1
        assert job.failed
        assert job.finished
        assert job.quarantined_stage == "map"
        assert not job.done  # failed, not completed
        # All pods were torn down with the job.
        assert not job.running_pods()
