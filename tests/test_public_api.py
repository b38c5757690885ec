"""Public-API surface checks: exports exist and are importable.

A downstream user's first contact is ``from repro.X import Y``; this
test pins the advertised surface so refactors cannot silently drop it.
"""

import importlib

import pytest


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


def test_cli_module_importable():
    from repro import cli
    assert callable(cli.main)
