"""R-F8 — FPGA acceleration on the heterogeneous cluster.

EVOLVE's testbed pairs general-purpose workers with FPGA-accelerated
nodes. An analytics job whose kernel stage is accelerable (5× on FPGA)
runs three ways: on a CPU-only cluster, on the heterogeneous cluster
with a locality/affinity-blind scheduler, and with the converged
scheduler's accelerator preference. Figure: makespan per configuration,
with and without competing load on the FPGA nodes.
Shape expected: the preference captures most of the hardware speedup;
a blind scheduler forfeits it whenever packing pulls executors away.
Smoke skips the CPU-only cluster.
"""

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, NodeGroup, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.traces import ConstantTrace

SEED = 9
GENERAL = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)
FPGA = ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=1250)
SPEEDUP = 5.0

#: label → (table name, run_config kwargs)
CONFIGS = {
    "hetero_aware": ("hetero, affinity-aware",
                     dict(scheduler="converged", hetero=True, busy_fpga=True)),
    "hetero_blind": ("hetero, blind (kube)",
                     dict(scheduler="kube", hetero=True, busy_fpga=True)),
    "cpu_only": ("cpu-only cluster",
                 dict(scheduler="converged", hetero=False, busy_fpga=False)),
}


def hetero_spec():
    return ClusterSpec(groups=(
        NodeGroup("worker", 4, GENERAL),
        NodeGroup("fpga", 2, FPGA, labels={"accelerator": "fpga"}),
    ))


def run_config(*, scheduler: str, hetero: bool, busy_fpga: bool, seed: int):
    platform = EvolvePlatform(
        cluster_spec=hetero_spec() if hetero else ClusterSpec(node_count=6),
        config=PlatformConfig(seed=seed),
        scheduler=scheduler,
    )
    if busy_fpga:
        # Competing load pre-occupying the accelerated nodes, so packing
        # scores pull blind schedulers toward the idle general workers.
        platform.deploy_microservice(
            "noise",
            trace=ConstantTrace(50),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=2, memory=4, disk_bw=20, net_bw=20),
            managed=False, replicas=2,
            node_selector={"accelerator": "fpga"},
        )
        platform.run(60.0)
    job = platform.submit_bigdata(
        "train",
        stages=[
            Stage("prep", 500.0),
            Stage("kernel", 4000.0, deps=("prep",), accel_speedup=SPEEDUP),
        ],
        allocation=ResourceVector(cpu=4, memory=8, disk_bw=50, net_bw=50),
        executors=2,
        accelerator="fpga",
    )
    platform.run(3 * 3600.0)
    return job.makespan(), platform.engine.events_executed


def run_case(mode: str, seed: int = SEED) -> dict:
    labels = ("hetero_aware", "hetero_blind")
    if mode == "full":
        labels += ("cpu_only",)
    events = 0
    metrics: dict = {}
    for label in labels:
        makespan, run_events = run_config(**CONFIGS[label][1], seed=seed)
        metrics[f"makespan_s/{label}"] = makespan
        events += run_events
    return {"seed": seed, "events_executed": events, "metrics": metrics}


def check_case(case: dict) -> None:
    m = case["metrics"]
    aware = m["makespan_s/hetero_aware"]
    # Shape: affinity captures a large share of the 5x kernel speedup;
    # the blind scheduler loses it to packing.
    assert aware < m["makespan_s/hetero_blind"] / 1.5
    if "makespan_s/cpu_only" in m:
        assert aware < m["makespan_s/cpu_only"] / 1.8


def format_case(case: dict) -> list[str]:
    rows = [
        [CONFIGS[key.removeprefix("makespan_s/")][0],
         f"{makespan:.0f} s" if makespan else "never"]
        for key, makespan in case["metrics"].items()
    ]
    return [
        f"R-F8: accelerable analytics job ({SPEEDUP:.0f}x kernel on FPGA nodes)",
        format_table(["configuration", "makespan"], rows),
    ]
