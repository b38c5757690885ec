"""Public-API surface checks: exports exist and are importable.

A downstream user's first contact is ``from repro.X import Y``; this
test pins the advertised surface so refactors cannot silently drop it.
"""

import dataclasses
import importlib

import pytest

from repro.control import ResilienceConfig
from repro.platform.config import (
    ClusterSpec,
    DataPlaneConfig,
    OverloadConfig,
    PlatformConfig,
)


PUBLIC_SURFACE = {
    "repro": ["EvolvePlatform", "ResourceVector", "ClusterSpec",
              "PlatformConfig", "ExperimentResult", "RESOURCES",
              "__version__"],
    "repro.sim": ["Engine", "RngRegistry", "SimulationError", "Watchdog"],
    "repro.cluster": ["Cluster", "ClusterAPI", "Node", "Pod", "PodSpec",
                      "PodPhase", "WorkloadClass", "ResourceVector",
                      "FailureInjector", "ChaosMonkey", "QuotaManager",
                      "DegradationInjector", "ActuationFaultInjector",
                      "ActuationError", "FaultLog", "FaultEpisode",
                      "PartitionError", "Lease", "ScopedClusterAPI",
                      "PodNotFound", "NodeNotFound", "PartitionInjector",
                      "ZoneOutageInjector", "ControllerCrashInjector",
                      "ExecutorKillInjector", "StragglerInjector",
                      "DataLossInjector", "LeaderElected", "LeaderDeposed"],
    "repro.metrics": ["TimeSeries", "MetricsCollector", "MetricsSource",
                      "MetricsFaultInjector"],
    "repro.workloads": ["Application", "Microservice", "ServiceDemands",
                        "BigDataJob", "Stage", "HPCJob", "StreamJob",
                        "Operator", "LatencyPLO",
                        "ThroughputPLO", "DeadlinePLO", "ViolationTracker",
                        "ConstantTrace", "DiurnalTrace", "BurstyTrace",
                        "FlashCrowdTrace", "NoisyTrace", "OUTrace",
                        "ReplayTrace", "CompositeTrace", "StepTrace",
                        "RampTrace", "ScaledTrace"],
    "repro.control": ["PIDController", "PIDGains", "AdaptiveGainTuner",
                      "BottleneckEstimator", "MultiResourceController",
                      "AllocationBounds", "ControlDecision",
                      "ControlLoopManager", "ResilienceConfig",
                      "FeedforwardScaler", "ControllerStateStore",
                      "ReplicatedControlPlane", "FailoverEvent",
                      "StateSnapshot", "WalRecord"],
    "repro.autoscaler": ["StaticPolicy", "HorizontalPodAutoscaler",
                         "VerticalPodAutoscaler", "AdaptiveAutoscaler",
                         "HorizontalEscapePolicy"],
    "repro.scheduler": ["KubeScheduler", "ConvergedScheduler",
                        "SiloedScheduler", "GangAdmission",
                        "PreemptionPlan", "plan_gang"],
    "repro.storage": ["ObjectStore", "StorageObject", "spread_blocks",
                      "StorageRepairService"],
    "repro.platform": ["EvolvePlatform", "ClusterSpec", "PlatformConfig",
                       "build_nodes", "DataPlaneConfig"],
    "repro.analysis": ["PLOMonitor", "utilization_summary", "settling_time",
                       "recovery_time", "overshoot", "format_table",
                       "PriceSheet", "app_cost", "PowerModel",
                       "cluster_energy", "EpisodeRecovery", "RecoveryStats",
                       "fault_recovery_report", "reconvergence_time",
                       "summarize", "FailoverStats", "failover_stats",
                       "series_divergence", "actuations", "critical_path",
                       "end_to_end_reaction", "latency_quantiles",
                       "reaction_latencies", "triggering_scrape"],
    "repro.obs": ["Telemetry", "Tracer", "Trace", "Span",
                  "DecisionProvenance", "MetricsRegistry", "Counter",
                  "Gauge", "Histogram", "NAME_PATTERN", "lint_names",
                  "to_chrome_trace", "write_chrome_trace",
                  "write_trace_jsonl"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in PUBLIC_SURFACE[module_name]
        if not hasattr(module, name)
    ]
    assert not missing, f"{module_name} lost exports: {missing}"


def test_all_lists_are_accurate():
    for module_name in PUBLIC_SURFACE:
        module = importlib.import_module(module_name)
        declared = getattr(module, "__all__", None)
        if declared is None:
            continue
        missing = [name for name in declared if not hasattr(module, name)]
        assert not missing, f"{module_name}.__all__ lies: {missing}"


#: Every knob of the config dataclasses, in declaration order. A new
#: option changes this pin, so it arrives as a reviewed edit.
CONFIG_FIELDS = {
    PlatformConfig: (
        "seed", "scrape_interval", "control_interval", "min_allocation",
        "max_allocation", "controller_replicas", "controller_ha",
        "snapshot_interval", "overload", "data_plane", "telemetry", "slos",
    ),
    DataPlaneConfig: (
        "enabled", "straggler_patience", "speculation_quantile",
        "stage_max_attempts", "retry_backoff_base", "restore_delay",
        "repair_bandwidth_mbps",
    ),
    OverloadConfig: (
        "admission", "backpressure", "brownout", "high_watermark",
        "low_watermark", "pending_high", "max_shed_per_cycle",
        "starvation_timeout", "evict_running", "brownout_enter_error",
        "brownout_exit_error", "brownout_enter_periods",
        "brownout_exit_periods", "brownout_demand_factor",
        "brownout_latency_penalty",
    ),
    ResilienceConfig: (
        "safe_mode_after", "freshness_timeout", "retry_base_delay",
        "retry_max_delay", "retry_jitter", "max_retries",
        "breaker_failure_threshold", "breaker_flap_window",
        "breaker_flap_threshold", "breaker_open_duration",
    ),
    ClusterSpec: ("node_count", "node_capacity", "system_reserved", "groups", "zones"),
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    fields = tuple(f.name for f in dataclasses.fields(config))
    assert fields == CONFIG_FIELDS[config]


def test_cli_module_importable():
    from repro import cli
    assert callable(cli.main)
