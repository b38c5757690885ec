"""Unit tests for the converged and siloed schedulers."""

import pytest

from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.scheduler.converged import ConvergedScheduler, SiloedScheduler
from repro.scheduler.interference import interference_penalty, node_noise
from repro.storage.objectstore import ObjectStore
from repro.storage.placement import spread_blocks
from tests.conftest import make_spec


class TestConvergedGangs:
    def test_gang_admitted_atomically(self, engine, api):
        scheduler = ConvergedScheduler(engine, api, store=ObjectStore())
        scheduler.start()
        for i in range(3):
            api.create_pod(
                make_spec(f"rank-{i}", cpu=8, gang_id="job",
                          workload_class=WorkloadClass.HPC)
            )
        engine.run_until(1.0)
        assert all(p.node_name is not None for p in api.list_pods())
        assert scheduler.gangs_admitted == 1

    def test_oversized_gang_fully_deferred(self, engine, api):
        scheduler = ConvergedScheduler(engine, api, store=ObjectStore())
        scheduler.start()
        for i in range(8):
            api.create_pod(
                make_spec(f"rank-{i}", cpu=8, gang_id="job",
                          workload_class=WorkloadClass.HPC)
            )
        engine.run_until(2.0)
        assert all(p.phase == PodPhase.PENDING for p in api.list_pods())
        assert scheduler.gangs_deferred >= 1

    def test_backfill_behind_blocked_gang(self, engine, api):
        scheduler = ConvergedScheduler(engine, api, store=ObjectStore())
        scheduler.start()
        for i in range(8):
            api.create_pod(
                make_spec(f"rank-{i}", cpu=8, gang_id="big",
                          workload_class=WorkloadClass.HPC)
            )
        api.create_pod(make_spec("small", cpu=1))
        engine.run_until(1.0)
        assert api.get_pod("small").node_name is not None

    def test_gangs_admitted_fifo(self, engine, api):
        scheduler = ConvergedScheduler(engine, api, store=ObjectStore())
        for i in range(2):
            api.create_pod(
                make_spec(f"a-{i}", cpu=8, gang_id="first",
                          workload_class=WorkloadClass.HPC)
            )
        engine.run_until(0.5)
        for i in range(2):
            api.create_pod(
                make_spec(f"b-{i}", cpu=8, gang_id="second",
                          workload_class=WorkloadClass.HPC)
            )
        scheduler.start()
        engine.run_until(2.0)
        assert all(api.get_pod(f"a-{i}").node_name for i in range(2))


class TestConvergedLocality:
    def test_bigdata_pod_follows_dataset(self, engine, api):
        store = ObjectStore()
        spread_blocks(store, "sales", total_mb=100, block_mb=10, nodes=["node-2"])
        scheduler = ConvergedScheduler(engine, api, store=store)
        spec = make_spec("exec-0", cpu=2, workload_class=WorkloadClass.BIGDATA)
        pod = api.create_pod(spec)
        pod.spec.labels["dataset"] = "sales"  # type: ignore[index]
        node = scheduler.select_node(pod)
        assert node.name == "node-2"

    def test_missing_dataset_ignored(self, engine, api):
        scheduler = ConvergedScheduler(engine, api, store=ObjectStore())
        spec = make_spec("exec-0", workload_class=WorkloadClass.BIGDATA)
        pod = api.create_pod(spec)
        assert scheduler.select_node(pod) is not None


class TestInterference:
    def test_penalty_zero_on_empty_node(self, engine, api):
        pod = api.create_pod(make_spec("svc-0"))
        node = api.get_node("node-0")
        assert interference_penalty(node, pod) == 0.0

    def test_noisy_neighbour_raises_penalty(self, engine, api):
        noisy = api.create_pod(
            make_spec("batch-0", cpu=12, workload_class=WorkloadClass.BIGDATA)
        )
        api.bind_pod("batch-0", "node-0")
        noisy.record_usage(ResourceVector(cpu=12))
        svc = api.create_pod(make_spec("svc-0"))
        busy = interference_penalty(api.get_node("node-0"), svc)
        idle = interference_penalty(api.get_node("node-1"), svc)
        assert busy > idle

    def test_bigdata_insensitive(self, engine, api):
        noisy = api.create_pod(
            make_spec("batch-0", cpu=12, workload_class=WorkloadClass.BIGDATA)
        )
        api.bind_pod("batch-0", "node-0")
        noisy.record_usage(ResourceVector(cpu=12))
        node = api.get_node("node-0")
        svc = api.create_pod(make_spec("svc-0"))
        batch = api.create_pod(
            make_spec("batch-1", workload_class=WorkloadClass.BIGDATA)
        )
        assert interference_penalty(node, svc) > interference_penalty(node, batch)

    def test_converged_spreads_sensitive_pods(self, engine, api):
        scheduler = ConvergedScheduler(
            engine, api, store=ObjectStore(), interference_weight=2.0
        )
        noisy = api.create_pod(
            make_spec("batch-0", cpu=4, workload_class=WorkloadClass.BIGDATA)
        )
        api.bind_pod("batch-0", "node-0")
        noisy.record_usage(ResourceVector(cpu=4, disk_bw=400))
        svc = api.create_pod(make_spec("svc-0"))
        node = scheduler.select_node(svc)
        assert node.name != "node-0"

    def test_node_noise_aggregates(self, engine, api):
        p = api.create_pod(
            make_spec("b", cpu=8, workload_class=WorkloadClass.BIGDATA)
        )
        api.bind_pod("b", "node-0")
        p.record_usage(ResourceVector(cpu=8))
        assert node_noise(api.get_node("node-0")) > 0


class TestSiloed:
    def pools(self):
        return {
            WorkloadClass.MICROSERVICE: ["node-0"],
            WorkloadClass.BIGDATA: ["node-1"],
            WorkloadClass.HPC: ["node-2"],
        }

    def test_pods_confined_to_pools(self, engine, api):
        scheduler = SiloedScheduler(engine, api, pools=self.pools())
        scheduler.start()
        api.create_pod(make_spec("svc-0"))
        api.create_pod(make_spec("exec-0", workload_class=WorkloadClass.BIGDATA))
        engine.run_until(1.0)
        assert api.get_pod("svc-0").node_name == "node-0"
        assert api.get_pod("exec-0").node_name == "node-1"

    def test_full_pool_strands_despite_cluster_capacity(self, engine, api):
        """The silo pathology: microservice pool is full while other pools
        sit idle, so the pod stays pending."""
        scheduler = SiloedScheduler(engine, api, pools=self.pools())
        scheduler.start()
        api.create_pod(make_spec("svc-0", cpu=12))
        api.create_pod(make_spec("svc-1", cpu=12))
        engine.run_until(2.0)
        pending = api.pending_pods()
        assert len(pending) == 1
        assert pending[0].name == "svc-1"

    def test_gang_within_pool(self, engine, api):
        scheduler = SiloedScheduler(engine, api, pools=self.pools())
        scheduler.start()
        for i in range(2):
            api.create_pod(
                make_spec(f"rank-{i}", cpu=6, gang_id="g",
                          workload_class=WorkloadClass.HPC)
            )
        engine.run_until(1.0)
        assert all(
            api.get_pod(f"rank-{i}").node_name == "node-2" for i in range(2)
        )

    def test_unknown_pool_node_rejected(self, engine, api):
        with pytest.raises(ValueError):
            SiloedScheduler(
                engine, api, pools={WorkloadClass.HPC: ["ghost"]}
            )

    def test_class_without_pool_uses_any_node(self, engine, api):
        scheduler = SiloedScheduler(
            engine, api, pools={WorkloadClass.HPC: ["node-2"]}
        )
        scheduler.start()
        api.create_pod(make_spec("svc-0"))
        engine.run_until(1.0)
        assert api.get_pod("svc-0").node_name is not None
