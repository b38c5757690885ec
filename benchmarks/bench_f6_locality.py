"""R-F6 — Data-locality benefit of shared object-store placement.

An I/O-bound scan job over a dataset whose placement skew varies from
fully spread (every node holds blocks) to fully hot (one node holds
everything), scheduled by the locality-aware converged scheduler and the
locality-blind kube scheduler. Figure series: makespan vs skew for both.
Shape: kube degrades as data concentrates (executors read remotely);
converged follows the data and degrades only when the hot node cannot
hold every executor. Smoke runs the hottest skew only.
"""

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import Stage

SEED = 3
SKEWS = (0.0, 0.5, 0.9)
DATASET_MB = 16_000


def run_scan(scheduler: str, skew: float, seed: int):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed),
        scheduler=scheduler,
    )
    spread_blocks(
        platform.store, "logs", total_mb=DATASET_MB, block_mb=100,
        nodes=sorted(platform.cluster.nodes), skew=skew,
    )
    job = platform.submit_bigdata(
        "scan",
        stages=[Stage("scan", 200.0, input_mb=DATASET_MB)],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=200, net_bw=60),
        executors=2,
        dataset="logs",
    )
    platform.run(4 * 3600.0)
    return job.makespan(), platform.engine.events_executed


def _key(scheduler: str, skew: float) -> str:
    return f"makespan_s/{scheduler}/skew-{skew:g}"


def run_case(mode: str, seed: int = SEED) -> dict:
    skews = (0.9,) if mode == "smoke" else SKEWS
    events = 0
    metrics: dict = {}
    for skew in skews:
        for scheduler in ("converged", "kube"):
            metrics[_key(scheduler, skew)], run_events = run_scan(
                scheduler, skew, seed)
            events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "skews": skews,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    # Shape: the locality-aware scheduler wins, and its advantage grows
    # (or at least holds) as the data concentrates.
    gains = []
    for skew in case["skews"]:
        conv, kube = m[_key("converged", skew)], m[_key("kube", skew)]
        assert conv is not None and kube is not None
        assert conv <= kube * 1.05
        if skew in (0.0, 0.9):
            gains.append(kube / conv)
    assert max(gains) >= 1.1


def _fmt(makespan) -> str:
    return f"{makespan:.0f} s" if makespan else "never"


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = []
    for skew in case["skews"]:
        conv, kube = m[_key("converged", skew)], m[_key("kube", skew)]
        rows.append([
            f"{skew:.1f}",
            _fmt(conv),
            _fmt(kube),
            f"{kube / conv:.2f}x" if conv and kube else "n/a",
        ])
    return [
        "R-F6: scan makespan vs dataset placement skew",
        format_table(["skew", "converged", "kube", "kube/converged"], rows),
    ]
