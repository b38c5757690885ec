"""R-F12 — Topology-aware gang placement across zones.

A communication-heavy gang on a two-zone cluster, placed zone-aware vs
zone-blind, across communication fractions. Figure series: makespan
ratio (blind / aware) vs comm fraction. Shape expected: the penalty of
spanning zones grows with the job's communication share; compute-bound
gangs barely care. Smoke runs the 50 % share over two hours.
"""

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform

SEED = 5
COMM_FRACTIONS = (0.1, 0.3, 0.5)
JOB_DURATION = 900.0


def run_gang(comm_fraction: float, zone_aware: bool, seed: int, horizon: float):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4, zones=2),
        config=PlatformConfig(seed=seed),
        scheduler="converged",
        scheduler_kwargs={"zone_aware_gangs": zone_aware,
                          "interference_weight": 0.0},
    )
    job = platform.submit_hpc(
        "mpi", ranks=2, duration=JOB_DURATION,
        allocation=ResourceVector(cpu=7, memory=8, disk_bw=5, net_bw=100),
        comm_fraction=comm_fraction, zone_penalty=1.0,
    )
    platform.run(horizon)
    return job.makespan(), platform.engine.events_executed


def _key(comm_fraction: float, zone_aware: bool) -> str:
    return f"makespan_s/comm-{comm_fraction:g}/{'aware' if zone_aware else 'blind'}"


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        fractions, horizon = (0.5,), 2 * 3600.0
    else:
        fractions, horizon = COMM_FRACTIONS, 6 * 3600.0
    events = 0
    metrics: dict = {}
    for cf in fractions:
        for aware in (True, False):
            metrics[_key(cf, aware)], run_events = run_gang(
                cf, aware, seed, horizon)
            events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "fractions": fractions,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    gains = {
        cf: m[_key(cf, False)] / m[_key(cf, True)] for cf in case["fractions"]
    }
    # Shape: the penalty grows with communication share.
    assert gains[0.5] > 1.3
    if 0.1 in gains:
        assert gains[0.5] > gains[0.1]
    # Zone-aware always runs at nominal speed.
    for cf in case["fractions"]:
        assert abs(m[_key(cf, True)] - (JOB_DURATION + 12)) <= 20


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    rows = []
    for cf in case["fractions"]:
        aware, blind = m[_key(cf, True)], m[_key(cf, False)]
        rows.append([
            f"{cf:.0%}", f"{aware:.0f} s", f"{blind:.0f} s",
            f"{blind / aware:.2f}x",
        ])
    return [
        "R-F12: gang makespan, zone-aware vs zone-blind placement "
        "(2 zones, cross-zone comm 2x slower)",
        format_table(
            ["comm fraction", "zone-aware", "zone-blind", "blind/aware"],
            rows,
        ),
    ]
