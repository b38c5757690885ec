"""Multi-resource adaptation: following a moving bottleneck.

A service whose per-request demand profile shifts every 20 minutes —
CPU-heavy, then disk-heavy, then network-heavy. A CPU-only controller is
blind to two of the three phases; the multi-resource controller reads
per-dimension saturation and redirects allocations. This is the scenario
behind reconstructed figure R-F3.

Run:  python examples/bottleneck_shift.py
"""

from repro import ClusterSpec, EvolvePlatform, PlatformConfig, ResourceVector
from repro.analysis.report import format_table
from repro.workloads import ConstantTrace, LatencyPLO
from repro.workloads.microservice import DemandPhase, ServiceDemands

PHASE = 1200.0  # 20 min per phase

PHASES = [
    # CPU-heavy: 20 ms CPU per request, light I/O.
    DemandPhase(0.0, ServiceDemands(
        cpu_seconds=0.02, disk_mb=0.05, net_mb=0.05, base_latency=0.01)),
    # Disk-heavy: each request streams 2 MB from disk.
    DemandPhase(PHASE, ServiceDemands(
        cpu_seconds=0.002, disk_mb=2.0, net_mb=0.05, base_latency=0.01)),
    # Network-heavy: each request ships 1.5 MB to clients.
    DemandPhase(2 * PHASE, ServiceDemands(
        cpu_seconds=0.002, disk_mb=0.05, net_mb=1.5, base_latency=0.01)),
]


def run(dimensions):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=5),
        policy="adaptive",
        policy_kwargs={
            "horizontal": False,
            **({"dimensions": dimensions} if dimensions else {}),
        },
    )
    svc = platform.deploy_microservice(
        "pipeline",
        trace=ConstantTrace(60),
        demands=PHASES,
        allocation=ResourceVector(cpu=1, memory=2, disk_bw=60, net_bw=60),
        plo=LatencyPLO(0.05, window=30),
    )
    collector = platform.collector
    collector.declare("app/pipeline/latency")
    samples = []
    for end in range(300, int(3 * PHASE) + 1, 300):
        platform.run(end - platform.engine.now)
        alloc = svc.current_allocation()
        samples.append([
            f"{end / 60:.0f} min",
            svc.current_bottleneck,
            f"{alloc.cpu:.2f}",
            f"{alloc.disk_bw:.0f}",
            f"{alloc.net_bw:.0f}",
            f"{(collector.latest('app/pipeline/latency') or 0) * 1000:.0f} ms",
        ])
    return samples, platform.result()


def main() -> None:
    print("=== moving bottleneck: CPU (0-20m) → disk (20-40m) → net (40-60m) ===\n")
    for label, dims in (("multi-resource", None), ("CPU-only ablation", ("cpu",))):
        samples, result = run(dims)
        print(f"--- {label} controller ---")
        print(format_table(
            ["time", "bottleneck", "cpu alloc", "disk alloc", "net alloc", "latency"],
            samples,
        ))
        tracker = result.trackers["pipeline"]
        print(f"violation time: {tracker.violation_fraction:.1%}\n")
    print("Reading: the multi-resource controller grows whichever dimension")
    print("saturates and reclaims the others; the CPU-only ablation stalls")
    print("as soon as the bottleneck leaves the CPU.")


if __name__ == "__main__":
    main()
