"""Cost accounting over allocation time-series.

Computes what each application's reserved resources would cost at
cloud-style unit prices, offline from the collector's
``app/<name>/alloc/<resource>`` series. The collector stores only
declared series, so the caller declares :func:`cost_series` for each app
it will bill before the run. The evaluation uses it to translate
reclaimed allocation (R-T2) into money, the argument the paper's
converged platform makes to operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.resources import RESOURCES, ResourceVector
from repro.metrics.collector import MetricsCollector

#: Unit prices per resource-hour, loosely modelled on public-cloud
#: on-demand pricing: $/core-hour, $/GiB-hour, and $/(MB/s)-hour for
#: provisioned disk and network bandwidth.
CPU_HOUR = 0.048
MEMORY_GIB_HOUR = 0.006
DISK_BW_MBS_HOUR = 0.0008
NET_BW_MBS_HOUR = 0.0004
_PRICES = dict(
    zip(RESOURCES, (CPU_HOUR, MEMORY_GIB_HOUR, DISK_BW_MBS_HOUR, NET_BW_MBS_HOUR))
)


@dataclass(frozen=True)
class CostReport:
    """Cost breakdown for one application over a window."""

    app: str
    window: float
    per_resource: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.per_resource.values())


def cost_series(app: str) -> tuple[str, ...]:
    """The allocation series :func:`app_cost` integrates for ``app``."""
    return tuple(f"app/{app}/alloc/{resource}" for resource in RESOURCES)


def app_cost(
    collector: MetricsCollector,
    app: str,
    *,
    start: float = 0.0,
    end: float | None = None,
) -> CostReport:
    """Integrate an app's allocation series into dollars.

    Allocation series are app-aggregate (all replicas), so the result is
    the whole application's bill for ``[start, end]``.
    """
    if end is None:
        end = collector.engine.now
    if end <= start:
        raise ValueError("end must be after start")
    per_resource = {}
    for resource, series_name in zip(RESOURCES, cost_series(app)):
        if not collector.has_series(series_name):
            per_resource[resource] = 0.0
            continue
        unit_seconds = collector.series(series_name).integrate(start, end)
        per_resource[resource] = (unit_seconds / 3600.0) * _PRICES[resource]
    return CostReport(app=app, window=end - start, per_resource=per_resource)


def cluster_provisioned_cost(
    capacity: ResourceVector, duration_seconds: float
) -> float:
    """$ cost of keeping ``capacity`` provisioned for the duration.

    The operator-side denominator: hardware is paid for whether or not
    allocations use it, which is why reclaimed utilization is money.
    """
    if duration_seconds < 0:
        raise ValueError("duration must be non-negative")
    rate = sum(capacity[r] * _PRICES[r] for r in RESOURCES)  # $ per hour
    return rate * duration_seconds / 3600.0
