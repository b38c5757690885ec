"""Tests for heterogeneous clusters, selectors, and FPGA acceleration."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, NodeGroup, PlatformConfig, build_nodes
from repro.platform.evolve import EvolvePlatform
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.traces import ConstantTrace


GENERAL = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)
FPGA = ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=1250)


def hetero_spec():
    return ClusterSpec(groups=(
        NodeGroup("worker", 3, GENERAL),
        NodeGroup("fpga", 2, FPGA, labels={"accelerator": "fpga"}),
    ))


class TestNodeGroups:
    def test_groups_materialize(self):
        nodes = build_nodes(hetero_spec())
        assert len(nodes) == 5
        names = [n.name for n in nodes]
        assert names[:3] == ["worker-00", "worker-01", "worker-02"]
        assert names[3:] == ["fpga-00", "fpga-01"]
        assert nodes[3].labels == {"accelerator": "fpga"}
        assert nodes[3].capacity == FPGA

    def test_invalid_group(self):
        with pytest.raises(ValueError):
            NodeGroup("g", 0, GENERAL)
        with pytest.raises(ValueError):
            NodeGroup("g", 1, ResourceVector(cpu=-1))


class TestNodeSelector:
    def test_selector_restricts_placement(self):
        platform = EvolvePlatform(
            cluster_spec=hetero_spec(), config=PlatformConfig(seed=1),
        )
        svc = platform.deploy_microservice(
            "pinned", trace=ConstantTrace(10),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=1, memory=1, disk_bw=10, net_bw=10),
            managed=False, replicas=2,
            node_selector={"accelerator": "fpga"},
        )
        platform.run(60.0)
        assert len(svc.running_pods()) == 2
        assert all(p.node_name.startswith("fpga-") for p in svc.running_pods())

    def test_unsatisfiable_selector_stays_pending(self):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=2), config=PlatformConfig(seed=1),
        )
        svc = platform.deploy_microservice(
            "stuck", trace=ConstantTrace(10),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=1, memory=1),
            managed=False,
            node_selector={"accelerator": "fpga"},
        )
        platform.run(30.0)
        assert svc.running_pods() == []


class TestAcceleration:
    def run_job(self, accelerator):
        platform = EvolvePlatform(
            cluster_spec=hetero_spec(), config=PlatformConfig(seed=5),
        )
        job = platform.submit_bigdata(
            "train",
            stages=[Stage("kernel", 2000.0, accel_speedup=5.0)],
            allocation=ResourceVector(cpu=4, memory=8, disk_bw=50, net_bw=50),
            executors=2,
            accelerator=accelerator,
        )
        platform.run(3 * 3600.0)
        return job, platform

    def test_preference_steers_executors_to_fpga(self):
        job, _platform = self.run_job("fpga")
        # Job finished; executors ran on the FPGA group.
        assert job.done

    def test_accelerated_job_faster(self):
        accel, _p1 = self.run_job("fpga")
        plain, _p2 = self.run_job(None)
        assert accel.done and plain.done
        assert accel.makespan() < plain.makespan() / 2

    def test_accel_speedup_validation(self):
        with pytest.raises(ValueError):
            Stage("s", 1.0, accel_speedup=0.5)

    def test_acceleration_needs_matching_label(self):
        """An accelerator class with no matching nodes gives no speedup."""
        platform = EvolvePlatform(
            cluster_spec=hetero_spec(), config=PlatformConfig(seed=5),
        )
        job = platform.submit_bigdata(
            "train",
            stages=[Stage("kernel", 2000.0, accel_speedup=5.0)],
            allocation=ResourceVector(cpu=4, memory=8, disk_bw=50, net_bw=50),
            executors=2,
            accelerator="tpu",  # nothing is labelled tpu
        )
        platform.run(3 * 3600.0)
        assert job.done
        # 2000 cpu-s over 2 executors × 4 cores ⇒ ~250 s, no speedup.
        assert job.makespan() == pytest.approx(250, abs=40)
