"""R-F9 — Energy: consolidation on the converged cluster.

The DATE-venue angle: the converged scheduler's consolidate-packing mode
packs the mixed workload onto few nodes so the rest park, versus the
spread default and the siloed partition (which keeps every pool's nodes
warm). Reports energy (kWh), mean power, parked-node time, and the PLO
cost of consolidating.
Shape expected: consolidate < spread < siloed energy, with a modest
violation penalty for consolidation (less headroom per node). Smoke
compares consolidate and spread over 1.5 h.
"""

from repro.analysis.energy import PARKED_WATTS, cluster_energy, energy_series
from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 42

#: label → (table name, scheduler, scheduler_kwargs)
CONFIGS = {
    "consolidate": ("converged+consolidate", "converged",
                    {"packing": "consolidate"}),
    "spread": ("converged+spread", "converged", None),
    "siloed": ("siloed", "siloed", None),
}


def run_config(label: str, seed: int, duration: float) -> dict:
    _name, scheduler, scheduler_kwargs = CONFIGS[label]
    platform = build_platform(
        "adaptive", nodes=6, seed=seed,
        scheduler=scheduler, scheduler_kwargs=scheduler_kwargs,
    )
    deploy_service_mix(platform)
    for node in platform.cluster.nodes:
        platform.collector.declare(*energy_series(node))
    platform.run(duration)
    energy = cluster_energy(
        platform.collector, list(platform.cluster.nodes),
        start=0.0, end=duration,
    )
    parked_kwh_per_node = PARKED_WATTS * duration / 3.6e6
    return {
        "energy": energy,
        "parked_nodes": sum(
            1 for kwh in energy.per_node_kwh.values()
            if kwh <= parked_kwh_per_node * 1.05
        ),
        "violations": platform.result().total_violation_fraction(),
        "events": platform.engine.events_executed,
    }


def run_case(mode: str, seed: int = SEED) -> dict:
    if mode == "smoke":
        labels, duration = ("consolidate", "spread"), 1.5 * HOUR
    else:
        labels, duration = tuple(CONFIGS), 3 * HOUR
    runs = {label: run_config(label, seed, duration) for label in labels}
    metrics: dict = {}
    for label, run in runs.items():
        metrics[f"energy_kwh/{label}"] = run["energy"].total_kwh
        metrics[f"violations/{label}"] = run["violations"]
    metrics["energy_saving"] = (
        1 - metrics["energy_kwh/consolidate"] / metrics["energy_kwh/spread"])
    return {
        "seed": seed,
        "events_executed": sum(run["events"] for run in runs.values()),
        "metrics": metrics,
        "duration": duration,
        "runs": runs,
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    # Shape: consolidation parks nodes and saves energy without wrecking
    # the PLOs.
    assert m["energy_kwh/consolidate"] < m["energy_kwh/spread"]
    assert case["runs"]["consolidate"]["parked_nodes"] >= 1
    assert m["violations/consolidate"] < 0.15


def format_case(case: dict) -> list[str]:
    rows = [
        [
            CONFIGS[label][0],
            f"{run['energy'].total_kwh:.2f} kWh",
            f"{run['energy'].mean_watts:.0f} W",
            f"{run['parked_nodes']}/6",
            f"{run['violations']:.1%}",
        ]
        for label, run in case["runs"].items()
    ]
    return [
        f"R-F9: cluster energy over {case['duration'] / HOUR:g} h "
        "(service mix)",
        format_table(
            ["configuration", "energy", "mean power", "parked nodes",
             "violations"],
            rows,
        ),
    ]
