"""Metrics pipeline: time series and the scrape loop.

Stands in for Prometheus + metrics-server: workload models and the cluster
are sampled on a fixed scrape cadence, and controllers consume windowed
aggregates (mean, percentile, EWMA) exactly as they would from a real
monitoring stack — including the staleness a scrape interval introduces.
"""

from repro.metrics.timeseries import TimeSeries
from repro.metrics.collector import (
    MetricsCollector,
    MetricsSource,
    UndeclaredSeriesError,
)
from repro.metrics.faults import MetricsFaultInjector

__all__ = [
    "TimeSeries",
    "MetricsCollector",
    "MetricsSource",
    "UndeclaredSeriesError",
    "MetricsFaultInjector",
]
