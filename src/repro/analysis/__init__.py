"""Evaluation support: PLO monitoring, summary statistics, table output."""

from repro.analysis.stats import (
    UTILIZATION_SERIES,
    PLOMonitor,
    UtilizationSummary,
    overshoot,
    recovery_time,
    settling_time,
    utilization_summary,
)
from repro.analysis.report import format_table
from repro.analysis.cost import (
    CostReport,
    app_cost,
    cluster_provisioned_cost,
    cost_series,
)
from repro.analysis.energy import (
    EnergyReport,
    cluster_energy,
    energy_series,
)
from repro.analysis.recovery import (
    EpisodeRecovery,
    FailoverStats,
    RecoveryStats,
    error_series,
    failover_stats,
    fault_recovery_report,
    reconvergence_time,
    series_divergence,
    summarize,
)
from repro.analysis.traces import (
    actuations,
    critical_path,
    end_to_end_reaction,
    latency_quantiles,
    reaction_latencies,
    triggering_scrape,
)

__all__ = [
    "CostReport",
    "app_cost",
    "cluster_provisioned_cost",
    "cost_series",
    "EnergyReport",
    "cluster_energy",
    "energy_series",
    "PLOMonitor",
    "UtilizationSummary",
    "utilization_summary",
    "UTILIZATION_SERIES",
    "settling_time",
    "recovery_time",
    "overshoot",
    "format_table",
    "EpisodeRecovery",
    "FailoverStats",
    "RecoveryStats",
    "error_series",
    "failover_stats",
    "fault_recovery_report",
    "reconvergence_time",
    "series_divergence",
    "summarize",
    "actuations",
    "critical_path",
    "end_to_end_reaction",
    "latency_quantiles",
    "reaction_latencies",
    "triggering_scrape",
]
