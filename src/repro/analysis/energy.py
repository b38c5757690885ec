"""Energy accounting from per-node utilization series.

The DATE-venue concern: datacenter nodes draw substantial power even
idle, so *consolidating* work onto fewer nodes (and parking the empty
ones) saves energy that spreading forfeits. The model is the standard
linear one — parked power for nodes with nothing allocated, otherwise
idle power plus a dynamic term proportional to CPU utilization — applied
offline to the collector's ``node/<name>/...`` series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.collector import MetricsCollector

#: Allocation fraction at or below which a node counts as parked.
PARK_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PowerModel:
    """Linear node power model (watts).

    Parameters
    ----------
    parked_watts:
        Draw of a node with zero allocation (deep sleep / powered down by
        the cluster manager).
    idle_watts:
        Draw of an active node at 0% CPU.
    peak_watts:
        Draw at 100% CPU.
    """

    parked_watts: float = 15.0
    idle_watts: float = 120.0
    peak_watts: float = 300.0

    def __post_init__(self) -> None:
        if not 0 <= self.parked_watts <= self.idle_watts <= self.peak_watts:
            raise ValueError(
                "need 0 ≤ parked_watts ≤ idle_watts ≤ peak_watts"
            )

    def node_power(self, alloc_frac: float, cpu_usage_frac: float) -> float:
        """Instantaneous node draw in watts."""
        if alloc_frac <= PARK_THRESHOLD:
            return self.parked_watts
        dynamic = self.peak_watts - self.idle_watts
        return self.idle_watts + dynamic * max(0.0, min(1.0, cpu_usage_frac))


@dataclass(frozen=True)
class EnergyReport:
    """Energy over a window, per node and total."""

    window: float
    per_node_kwh: dict[str, float] = field(default_factory=dict)

    @property
    def total_kwh(self) -> float:
        return sum(self.per_node_kwh.values())

    @property
    def mean_watts(self) -> float:
        if self.window <= 0:
            return 0.0
        return self.total_kwh * 3.6e6 / self.window


def cluster_energy(
    collector: MetricsCollector,
    node_names: list[str],
    *,
    start: float,
    end: float,
    model: PowerModel | None = None,
) -> EnergyReport:
    """Integrate node power over ``[start, end]``.

    Walks each node's scraped ``alloc_frac``/``usage_frac`` samples and
    applies the power model stepwise (sample values hold until the next
    scrape).
    """
    model = model or PowerModel()
    if end <= start:
        raise ValueError("end must be after start")
    per_node: dict[str, float] = {}
    for name in node_names:
        alloc_series = collector.series(f"node/{name}/alloc_frac/cpu")
        usage_series = collector.series(f"node/{name}/usage_frac/cpu")
        times, allocs = alloc_series.to_lists()
        _times2, usages = usage_series.to_lists()
        joules = 0.0
        points = [
            (t, a, u)
            for t, a, u in zip(times, allocs, usages)
            if t <= end
        ]
        if not points:
            # Never scraped: assume parked for the whole window.
            per_node[name] = model.parked_watts * (end - start) / 3.6e6
            continue
        # Segment before the first sample: parked (nothing was running).
        first_time = max(start, points[0][0])
        joules += model.parked_watts * max(0.0, first_time - start)
        for i, (t, alloc, usage) in enumerate(points):
            seg_start = max(t, start)
            seg_end = points[i + 1][0] if i + 1 < len(points) else end
            seg_end = min(seg_end, end)
            if seg_end > seg_start:
                joules += model.node_power(alloc, usage) * (seg_end - seg_start)
        per_node[name] = joules / 3.6e6  # J → kWh
    return EnergyReport(window=end - start, per_node_kwh=per_node)
