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
def program_setters(*, keywords: bool = True) -> frozenset[str]:
    """Names program code sets: keyword arguments (unless ``keywords``
    is false), string dict keys and string subscript-assignment targets
    under :data:`PROGRAM_DIRS`, minus same-name pass-throughs, plus every
    key of the JSON under ``src/``."""
    names: set[str] = set()
    for top in PROGRAM_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                pairs = []
                if isinstance(node, ast.keyword) and node.arg is not None:
                    if keywords:
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


def _option(default: ast.expr | None) -> bool:
    """A default that makes a parameter an option: a literal, or None."""
    if isinstance(default, ast.Constant) and default.value is None:
        return True
    return default is not None and _literal(default)


@functools.lru_cache(maxsize=None)
def _classes() -> tuple[ast.ClassDef, ...]:
    """Every class defined under ``src/repro``."""
    return tuple(
        cls
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(cls, ast.ClassDef)
    )


def constructor_options() -> dict[str, tuple[list[str], list[str]]]:
    """Per public class under ``src/repro``: its ``__init__`` parameters
    in positional order, and those with a literal or ``None`` default."""
    options = {}
    for cls in _classes():
        if cls.name.startswith("_"):
            continue
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            args = init.args
            positional = [a.arg for a in args.posonlyargs + args.args][1:]
            defaults = list(zip(positional[::-1], args.defaults[::-1]))
            defaults += zip((a.arg for a in args.kwonlyargs), args.kw_defaults)
            options[cls.name] = (positional, [n for n, d in defaults if _option(d)])
    return options


class _Scope:
    """An enclosing function: the target its parameters belong to (the
    class for an ``__init__``, else the function's name; None for a
    lambda), its parameter names and ``**`` name, and its class."""

    def __init__(self, node, cls: str | None):
        args = node.args
        self.target = getattr(node, "name", None)
        if cls is not None and self.target == "__init__":
            self.target = cls
        self.params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        self.kwarg = args.kwarg.arg if args.kwarg else None
        self.cls = cls
        self.classmethod = cls is not None and any(
            getattr(d, "id", None) == "classmethod"
            for d in getattr(node, "decorator_list", ())
        )


class _CallSetters(ast.NodeVisitor):
    """What the calls of one program module pass, and to which target.

    A call's target is the class or function its callee names: ``C(...)``
    and ``obj.C(...)`` name ``C``, ``cls(...)`` in a classmethod its class,
    ``super().__init__(...)`` the bases of the enclosing class. A keyword
    ``p=p`` that forwards a parameter of an enclosing function is an edge
    from that parameter; ``**kwargs`` passed on is an edge from the
    function that took them. The keywords of a call whose callee has no
    name (``table[kind](...)``) count for every class.
    """

    def __init__(self, options, bases, found):
        self.options = options
        self.bases = bases
        self.found = found
        self.scopes: list[_Scope] = []

    def visit_ClassDef(self, node):
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                self._enter(item, node.name)
            else:
                self.visit(item)

    def visit_FunctionDef(self, node):
        self._enter(node, self.scopes[-1].cls if self.scopes else None)

    visit_Lambda = visit_FunctionDef

    def _enter(self, node, cls):
        self.scopes.append(_Scope(node, cls))
        self.generic_visit(node)
        self.scopes.pop()

    def _owner(self, name: str, *, kwarg: bool = False) -> str | None:
        """The target of the innermost function taking ``name`` (as its
        ``**`` parameter with ``kwarg``); None if none or a lambda does."""
        for scope in reversed(self.scopes):
            if scope.kwarg == name if kwarg else name in scope.params:
                return scope.target
        return None

    def _callees(self, func) -> set[str] | None:
        cls = next((s.cls for s in reversed(self.scopes) if s.cls), None)
        if isinstance(func, ast.Name):
            if func.id == "cls" and any(s.classmethod for s in self.scopes):
                return {cls}
            return {func.id}
        if not isinstance(func, ast.Attribute):
            return None
        receiver = getattr(func.value, "func", None)
        if func.attr == "__init__" and getattr(receiver, "id", None) == "super":
            return set(self.bases.get(cls, ()))
        return {func.attr}

    def visit_Dict(self, node):
        # {"p": p} forwarding a parameter of the enclosing function (the
        # policy_kwargs a bench builds): its callers choose the value.
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(value, ast.Name)
                and value.id == key.value
                and self._owner(key.value) is not None
            ):
                self.found["anywhere"].add(key.value)
        self.generic_visit(node)

    def visit_Call(self, node):
        found = self.found
        callees = self._callees(node.func)
        for kw in node.keywords:
            name = getattr(kw.value, "id", None)
            if callees is None:
                if kw.arg is not None:
                    found["anywhere"].add(kw.arg)
            elif kw.arg is None:
                owner = name and self._owner(name, kwarg=True)
                if owner:
                    found["spreads"] |= {(owner, c) for c in callees}
            elif name == kw.arg and (owner := self._owner(name)):
                found["forwards"] |= {((owner, name), c) for c in callees}
            else:
                found["set"] |= {(c, kw.arg) for c in callees}
        for callee in callees or ():
            for param, arg in zip(self.options.get(callee, ((), ()))[0], node.args):
                if isinstance(arg, ast.Starred):
                    break
                found["set"].add((callee, param))
        if getattr(node.func, "attr", None) == "setdefault" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant):
                found["anywhere"].add(first.value)
        self.generic_visit(node)


def constructor_setters(options) -> tuple[set[tuple[str, str]], set[str]]:
    """The (class, parameter) pairs program code sets, and the names that
    count for every class: string dict keys, ``setdefault`` keys and
    key tuples under :data:`PROGRAM_DIRS`, the keys of the spec files
    under ``src/`` and ``examples/``, the keywords of calls whose callee
    has no name, and dict entries ``"p": p`` forwarding a parameter.
    A keyword passed to a class counts for it, and for its bases when
    its ``__init__`` passes ``**kwargs`` on (a class without an
    ``__init__`` passes everything on); a keyword passed to a function
    counts for what the function forwards it or its ``**kwargs`` to,
    such as the platform's ``deploy_*``/``submit_*`` verbs and
    ``InvariantChecker.attach``."""
    bases = {
        cls.name: [getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases]
        for cls in _classes()
    }
    found = {"set": set(), "forwards": set(), "spreads": set(), "anywhere": set()}
    for cls in _classes():
        if not any(getattr(f, "name", None) == "__init__" for f in cls.body):
            found["spreads"] |= {(cls.name, base) for base in bases[cls.name]}
    for top in PROGRAM_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            _CallSetters(options, bases, found).visit(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Tuple):
                    found["anywhere"].update(
                        e.value for e in node.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    )
    found["anywhere"] |= program_setters(keywords=False)
    for path in sorted((REPO / "examples").rglob("*.json")):
        found["anywhere"] |= _json_keys(json.loads(path.read_text()))
    credited = set(found["set"])
    while True:
        before = len(credited)
        credited |= {
            (target, param)
            for (source, param), target in found["forwards"]
            if (source, param) in credited
        }
        credited |= {
            (target, param)
            for source, target in found["spreads"]
            for owner, param in list(credited)
            if owner == source
        }
        if len(credited) == before:
            return credited, found["anywhere"]


#: Options no program sets that stay because a tier-1 test needs them,
#: with that test. The gate fails once a program sets one (drop it here).
KEPT_FOR_TESTS = {
    "InvariantChecker(invariants)": (
        "tests/verify/test_invariants.py checks one invariant at a time; "
        "test_checker.py and test_reference_equivalence.py run episodes "
        "with a chosen list"
    ),
    "PoissonArrivals(rate_bound)": (
        "tests/workloads/test_arrivals.py::test_explicit_rate_bound and the "
        "poisson-bursty-bound stream of test_window_streams.py"
    ),
}


def test_every_constructor_option_has_a_program_setter():
    """A keyword parameter with a literal or ``None`` default that no
    program passes to its class is a constant, or dead: make it one where
    it is read, or delete it."""
    options = constructor_options()
    credited, anywhere = constructor_setters(options)
    unset = {
        f"{cls}({param})"
        for cls, (_positional, params) in sorted(options.items())
        for param in params
        if param not in anywhere and (cls, param) not in credited
    }
    only_tests = sorted(unset - set(KEPT_FOR_TESTS))
    assert not only_tests, f"options only tests set (make them constants): {only_tests}"
    stale = sorted(set(KEPT_FOR_TESTS) - unset)
    assert not stale, f"kept for tests, but a program sets them now: {stale}"


def test_cli_module_importable():
    from repro import cli
    assert callable(cli.main)
