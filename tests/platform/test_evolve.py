"""Unit tests for the EvolvePlatform facade."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec
from repro.platform.evolve import EvolvePlatform
from repro.scheduler.converged import ConvergedScheduler, SiloedScheduler
from repro.scheduler.kube import KubeScheduler
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)
ALLOC = ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20)


def small_platform(**kwargs):
    kwargs.setdefault("cluster_spec", ClusterSpec(node_count=3))
    return EvolvePlatform(**kwargs)


class TestConstruction:
    @pytest.mark.parametrize(
        "name,cls",
        [("kube", KubeScheduler), ("converged", ConvergedScheduler),
         ("siloed", SiloedScheduler)],
    )
    def test_scheduler_selection(self, name, cls):
        platform = small_platform(scheduler=name)
        assert isinstance(platform.scheduler, cls)

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            small_platform(scheduler="mystery")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            small_platform(policy="mystery")

    @pytest.mark.parametrize("policy", ["static", "hpa", "vpa", "adaptive"])
    def test_policy_selection(self, policy):
        platform = small_platform(policy=policy)
        assert platform.policy is not None

    def test_default_silos_partition_nodes(self):
        platform = small_platform(scheduler="siloed")
        pools = platform.scheduler.pools
        all_nodes = [n for names in pools.values() for n in names]
        assert sorted(all_nodes) == sorted(platform.cluster.nodes)


class TestDeployment:
    def test_deploy_and_run_microservice(self):
        platform = small_platform(policy="adaptive")
        svc = platform.deploy_microservice(
            "svc", trace=ConstantTrace(50), demands=DEMANDS,
            allocation=ALLOC, plo=LatencyPLO(0.05),
        )
        platform.run(120.0)
        assert svc.running_pods()
        assert svc.current_throughput > 0
        result = platform.result()
        assert "svc" in result.trackers

    def test_managed_adaptive_requires_plo(self):
        platform = small_platform(policy="adaptive")
        with pytest.raises(ValueError, match="PLO"):
            platform.deploy_microservice(
                "svc", trace=ConstantTrace(50), demands=DEMANDS, allocation=ALLOC,
            )

    def test_unmanaged_without_plo_ok(self):
        platform = small_platform(policy="adaptive")
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(50), demands=DEMANDS,
            allocation=ALLOC, managed=False,
        )
        platform.run(30.0)

    def test_duplicate_name_rejected(self):
        platform = small_platform()
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(1), demands=DEMANDS,
            allocation=ALLOC, plo=LatencyPLO(0.05),
        )
        with pytest.raises(ValueError, match="already"):
            platform.deploy_microservice(
                "svc", trace=ConstantTrace(1), demands=DEMANDS,
                allocation=ALLOC, plo=LatencyPLO(0.05),
            )

    def test_bigdata_job_completes(self):
        platform = small_platform()
        job = platform.submit_bigdata(
            "job", stages=[Stage("map", 100.0)],
            allocation=ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50),
            executors=2,
        )
        platform.run(600.0)
        assert job.done
        assert platform.result().makespans["job"] is not None

    def test_bigdata_with_dataset_and_deadline(self):
        platform = small_platform()
        from repro.storage.placement import spread_blocks
        spread_blocks(
            platform.store, "sales", total_mb=500, block_mb=50,
            nodes=list(platform.cluster.nodes),
        )
        job = platform.submit_bigdata(
            "etl", stages=[Stage("scan", 50.0, input_mb=500)],
            allocation=ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50),
            dataset="sales", deadline=400.0,
        )
        platform.run(500.0)
        assert job.done
        assert "etl" in platform.result().trackers  # deadline PLO tracked

    def test_hpc_job_gang_scheduled(self):
        platform = small_platform(scheduler="converged")
        job = platform.submit_hpc(
            "mpi", ranks=3, duration=60.0,
            allocation=ResourceVector(cpu=4, memory=4, disk_bw=5, net_bw=50),
        )
        platform.run(300.0)
        assert job.done
        result = platform.result()
        assert result.hpc_waits["mpi"] is not None
        assert result.makespans["mpi"] == pytest.approx(60, abs=15)

    def test_delayed_submission(self):
        platform = small_platform()
        job = platform.submit_hpc(
            "late", ranks=1, duration=30.0,
            allocation=ResourceVector(cpu=2, memory=2),
            delay=100.0,
        )
        platform.run(50.0)
        assert job.submitted_at is None
        platform.run(100.0)
        assert job.submitted_at == pytest.approx(100.0)


class TestResult:
    def test_result_aggregates(self):
        platform = small_platform(policy="adaptive")
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(100), demands=DEMANDS,
            allocation=ALLOC, plo=LatencyPLO(0.05),
        )
        platform.run(300.0)
        result = platform.result()
        assert result.duration == 300.0
        assert 0 <= result.violation_fraction("svc") <= 1
        assert 0 <= result.total_violation_fraction() <= 1
        assert result.utilization.overall_alloc > 0
        assert "scale_outs" in result.scale_events

    def test_total_violation_fraction_empty(self):
        platform = small_platform()
        platform.run(30.0)
        assert platform.result().total_violation_fraction() == 0.0

    def test_run_is_resumable(self):
        platform = small_platform()
        platform.run(50.0)
        assert platform.engine.now == 50.0
        platform.run(50.0)
        assert platform.engine.now == 100.0


class TestDanglingEpisodes:
    """A fault that is never healed must not leave its episode open past
    the end of the run — open episodes have no duration and silently
    drop out of (or skew) the MTTR statistics."""

    def test_result_closes_unhealed_episodes(self):
        platform = small_platform()
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(50), demands=DEMANDS,
            allocation=ALLOC, plo=LatencyPLO(0.05), replicas=2,
        )
        platform.run(100.0)
        platform.injector.fail_node("node-00")  # never recovered
        platform.run(200.0)
        result = platform.result()
        assert result.duration == 300.0
        episodes = platform.fault_log.by_kind("node-crash")
        assert episodes and all(not e.active for e in episodes)
        assert episodes[-1].end == 300.0
        assert episodes[-1].duration() == pytest.approx(200.0)

    def test_recovery_report_sees_closed_episodes(self):
        from repro.analysis.recovery import error_series, fault_recovery_report

        platform = small_platform(policy="adaptive")
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(100), demands=DEMANDS,
            allocation=ALLOC, plo=LatencyPLO(0.05), replicas=2,
        )
        platform.collector.declare(error_series("svc"))
        platform.run(100.0)
        platform.injector.fail_node("node-00")
        platform.run(200.0)
        platform.result()
        reports = fault_recovery_report(
            platform.fault_log, platform.collector, ["svc"],
        )
        assert reports
        # Every episode now has a definite MTTR, including the dangler.
        assert all(r.mttr is not None for r in reports)

    def test_result_is_idempotent_on_episode_ends(self):
        platform = small_platform()
        platform.run(50.0)
        platform.injector.fail_node("node-00")
        platform.run(50.0)
        platform.result()
        end_first = platform.fault_log.episodes[0].end
        platform.run(100.0)  # resumable run past the first result()
        platform.result()
        # close_open only touches episodes still open: the first close
        # sticks even after the sim is resumed and re-aggregated.
        assert platform.fault_log.episodes[0].end == end_first
