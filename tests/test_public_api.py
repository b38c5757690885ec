"""Public-API surface checks: exports exist and are importable.

A downstream user's first contact is ``from repro.X import Y``; this
test pins the advertised surface so refactors cannot silently drop it.
"""

import ast
import dataclasses
import functools
import importlib
import json
from pathlib import Path

import pytest

from repro.platform.config import (
    ClusterSpec,
    OverloadConfig,
    PlatformConfig,
    SLOSpec,
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
                      "MetricsFaultInjector", "UndeclaredSeriesError"],
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
                      "ControlLoopManager", "FeedforwardScaler", "ControllerStateStore",
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
                       "build_nodes"],
    "repro.analysis": ["PLOMonitor", "utilization_summary", "settling_time",
                       "recovery_time", "overshoot", "format_table",
                       "app_cost", "cluster_energy", "EpisodeRecovery", "RecoveryStats",
                       "UTILIZATION_SERIES", "cost_series", "energy_series",
                       "error_series",
                       "fault_recovery_report", "reconvergence_time",
                       "summarize", "FailoverStats", "failover_stats",
                       "series_divergence", "actuations", "critical_path",
                       "end_to_end_reaction", "latency_quantiles",
                       "reaction_latencies", "triggering_scrape"],
    "repro.scenarios": ["ConfigError", "PACK_VERSION", "PackEntry",
                        "ScenarioSpec", "UnknownScenarioError",
                        "build_platform", "load_pack", "load_report",
                        "load_scenario", "load_spec", "report_names",
                        "scenario_names"],
    "repro.scenarios.spec": ["ScenarioSpec", "WorkloadSpec", "ChaosEvent",
                             "ConfigError", "FORMAT_VERSION",
                             "SUPPORTED_FORMATS", "build_platform",
                             "load_spec", "schedule_fault_cycle",
                             "trace_from_dict", "demands_from_dict",
                             "plo_from_dict"],
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
        "seed", "control_interval", "max_allocation", "controller_replicas",
        "controller_ha", "snapshot_interval", "overload", "data_plane",
        "telemetry", "slos",
    ),
    OverloadConfig: (
        "admission", "backpressure", "brownout", "high_watermark",
        "low_watermark", "pending_high",
    ),
    ClusterSpec: ("node_count", "node_capacity", "system_reserved", "groups", "zones"),
    SLOSpec: (
        "name", "series", "objective", "comparator", "target", "warmup",
        "kind", "description",
    ),
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    fields = tuple(f.name for f in dataclasses.fields(config))
    assert fields == CONFIG_FIELDS[config]


REPO = Path(__file__).resolve().parent.parent
#: Where a caller counts: program code, not tests or examples.
PROGRAM_DIRS = ("src", "benchmarks", "bench")


def _passes_through(name: str, value: ast.expr) -> bool:
    """``name=name`` or ``name=<obj>.name``: forwarding, not choosing."""
    if isinstance(value, ast.Name):
        return value.id == name
    return isinstance(value, ast.Attribute) and value.attr == name


def _json_keys(value) -> set[str]:
    if isinstance(value, dict):
        keys = set(value)
        for item in value.values():
            keys |= _json_keys(item)
        return keys
    if isinstance(value, list):
        return set().union(*map(_json_keys, value))
    return set()


@functools.lru_cache(maxsize=None)
def program_setters() -> frozenset[str]:
    """Names program code sets: keyword arguments, string dict keys and
    string subscript-assignment targets under :data:`PROGRAM_DIRS`, minus
    same-name pass-throughs, plus every key of the JSON under ``src/``."""
    names: set[str] = set()
    for top in PROGRAM_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                pairs = []
                if isinstance(node, ast.keyword) and node.arg is not None:
                    pairs.append((node.arg, node.value))
                elif isinstance(node, ast.Dict):
                    pairs.extend(zip(node.keys, node.values))
                elif isinstance(node, ast.Assign):
                    pairs.extend(
                        (target.slice, node.value)
                        for target in node.targets
                        if isinstance(target, ast.Subscript)
                    )
                for key, value in pairs:
                    if isinstance(key, ast.Constant):
                        key = key.value
                    if isinstance(key, str) and not _passes_through(key, value):
                        names.add(key)
    for path in sorted((REPO / "src").rglob("*.json")):
        names |= _json_keys(json.loads(path.read_text()))
    return frozenset(names)


def test_every_config_field_has_a_program_setter():
    """An option no program sets is a constant: each field of the config
    dataclasses must be set somewhere outside tests and examples."""
    unset = [
        f"{config.__name__}.{f.name}"
        for config in CONFIG_FIELDS
        for f in dataclasses.fields(config)
        if f.name not in program_setters()
    ]
    assert not unset, f"fields only tests set (make them constants): {unset}"


def _literal(node: ast.expr) -> bool:
    """A number, bool or string constant, or a tuple of them."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, ast.Tuple):
        return all(map(_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (bool, int, float, str)
    )


def constructor_options() -> dict[str, tuple[list[str], list[str]]]:
    """Per public class under ``src/repro``: its ``__init__`` parameters
    in positional order, and those with a literal default."""
    options = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                args = init.args
                positional = [a.arg for a in args.posonlyargs + args.args][1:]
                defaults = list(zip(positional[::-1], args.defaults[::-1]))
                defaults += zip((a.arg for a in args.kwonlyargs), args.kw_defaults)
                literal = [name for name, d in defaults if d is not None and _literal(d)]
                options[cls.name] = (positional, literal)
    return options


def call_setters(options) -> tuple[set[str], set[tuple[str, str]]]:
    """What program code passes besides :func:`program_setters`: the
    strings of key tuples and ``setdefault`` calls plus the keys of the
    spec files under ``examples/``, and each (class, parameter) a call
    of the class sets by position."""
    names: set[str] = set()
    positional: set[tuple[str, str]] = set()
    for top in PROGRAM_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Tuple):
                    names.update(
                        e.value for e in node.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    )
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                first = node.args[0] if node.args else None
                if callee == "setdefault" and isinstance(first, ast.Constant):
                    names.add(first.value)
                params = options.get(callee, ((), ()))[0]
                for param, arg in zip(params, node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    positional.add((callee, param))
    for path in sorted((REPO / "examples").rglob("*.json")):
        names |= _json_keys(json.loads(path.read_text()))
    return names, positional


def test_every_constructor_option_has_a_program_setter():
    """A keyword parameter with a literal default that no program passes
    is a constant: make it one where it is read."""
    options = constructor_options()
    names, positional = call_setters(options)
    names |= program_setters()
    unset = [
        f"{cls}({param})"
        for cls, (_positional, literal) in sorted(options.items())
        for param in literal
        if param not in names and (cls, param) not in positional
    ]
    assert not unset, f"options only tests set (make them constants): {unset}"


def test_cli_module_importable():
    from repro import cli
    assert callable(cli.main)
