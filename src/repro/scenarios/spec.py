"""The scenario spec: one description of a run, one builder.

A :class:`ScenarioSpec` holds everything a run needs: the cluster, the
scheduler and policy, the workloads with their traces, the chaos
schedule, SLOs and the horizon. :func:`build_platform` is the only code
that turns a spec into a wired :class:`EvolvePlatform`; ``repro run``,
``report``, ``arena``, ``fuzz`` and R-T10/R-T11/R-T12 all load and build
through it. docs/scenarios.md describes every key, the short and the
general workload form, and the rule that keeps older readers working: a
spec that needs nothing of format 5 is written as format 4. Every value
a spec sets is checked by one rule, against the annotation of the
parameter it reaches (:func:`_checked`).
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Union, get_args, get_origin

from repro.cluster.chaos import (
    ControllerCrashInjector,
    DataLossInjector,
    ExecutorKillInjector,
    StragglerInjector,
    ZoneOutageInjector,
)
from repro.cluster.resources import ResourceVector
from repro.obs.slo import SLOSpec
from repro.platform.config import (
    ClusterSpec,
    NodeGroup,
    OverloadConfig,
    PlatformConfig,
)
from repro.platform.evolve import EvolvePlatform
from repro.storage.objectstore import StorageError
from repro.storage.placement import spread_blocks
from repro.workloads.arrivals import (
    CorrelatedSurge,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
)
from repro.workloads.base import Application
from repro.workloads.bigdata import BigDataJob, Stage
from repro.workloads.hpc import HPCJob
from repro.workloads.microservice import DemandPhase, Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO
from repro.workloads.stream import StreamJob
from repro.workloads.traceio import load_trace
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    LoadTrace,
    NoisyTrace,
    OUTrace,
    RampTrace,
    ReplayTrace,
    ScaledTrace,
    StepTrace,
)

#: Bump when the spec layout changes incompatibly. Version 2 adds
#: ``zones`` / ``overload`` and the ``zone-outage`` / ``overload-surge``
#: chaos domains; version 3 adds ``ft`` (data-plane fault tolerance)
#: and the ``executor-kill`` / ``straggler`` / ``data-loss`` domains;
#: version 4 adds the trace-model fields ``arrival_model``,
#: ``heavy_tail`` and ``surge`` plus the ``samples`` micro param;
#: version 5 adds the general workload form and the keys of
#: :data:`_V5_KEYS`. Older files still load: every new key defaults
#: to the old behaviour.
FORMAT_VERSION = 5
SUPPORTED_FORMATS = (1, 2, 3, 4, 5)

#: Open-loop arrival models for microservices; ``"rate"`` is the
#: rate-curve sampling of formats 1-3.
ARRIVAL_MODELS = ("rate", "poisson", "mmpp")

WORKLOAD_KINDS = ("micro", "stream", "bigdata", "hpc")
NODE_DOMAINS = ("crash", "degrade")
CONTROLLER_DOMAINS = ("controller-crash", "partition")
ZONE_DOMAINS = ("zone-outage",)
OVERLOAD_DOMAINS = ("overload-surge",)
DATA_DOMAINS = ("executor-kill", "straggler", "data-loss")


class ConfigError(ValueError):
    """A scenario spec that cannot be loaded or built."""


@contextmanager
def spec_file(path: str | Path):
    """Name the spec file ``path`` in a :class:`ConfigError` raised inside."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


#: What the library raises for a value it rejects while a spec is wired.
_LIBRARY_ERRORS = (TypeError, ValueError, KeyError, StorageError, OSError)


def _config_error(section: str, exc: Exception) -> ConfigError:
    """``exc`` as a :class:`ConfigError` naming the spec section."""
    if isinstance(exc, KeyError):
        return ConfigError(f"{section}: missing required key {exc.args[0]!r}")
    return ConfigError(f"{section}: {exc}")


# -- the one rule: a value against the parameter it sets -------------------------

#: The Python types a JSON value of each plain annotation may have, and
#: how an error names them. A bool is not a number, and a float must be
#: finite: a NaN or infinite demand, objective, allocation or time would
#: run without an error and yield meaningless figures.
_JSON = {
    float: ((int, float), "a finite number"),
    int: ((int,), "an integer"),
    bool: ((bool,), "a bool"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
    list: ((list,), "a list"),
    type(None): ((type(None),), "null"),
}


def _test(annotation) -> tuple:
    """An annotation as a plain test: ``(types, label, build)``, where
    ``build(value, where)`` builds a nested value, or is None."""
    if annotation in _JSON:
        return (*_JSON[annotation], None)
    origin, args = get_origin(annotation), get_args(annotation)
    if origin in (Union, UnionType):
        tests = [_test(arg) for arg in args]
        nested = [t[2] for t in tests if t[0] != (type(None),)]
        return (
            sum((t[0] for t in tests), ()),
            " or ".join(dict.fromkeys(t[1] for t in tests)),
            nested[0] if len(nested) == 1 else None,
        )
    # A tuple's items share its first item's type (here, pairs of floats).
    if origin in (list, tuple, Sequence):
        return ((list,), "a list", partial(_items, _test(args[0]), origin is tuple))
    if origin in (dict, Mapping):
        return ((dict,), "an object", partial(_entries, _test(args[1])))
    # A class: an object of its parameters, unless the spec writes it in
    # a form of its own that the builder turns into it.
    build = None if annotation in _BUILT_HERE else partial(_build, annotation)
    return ((dict,), "an object", build)


def _items(test: tuple, as_tuple: bool, value: list, where: str):
    built = [_value(test, item, f"{where}[{i}]") for i, item in enumerate(value)]
    return tuple(built) if as_tuple else built


def _entries(test: tuple, value: dict, where: str) -> dict:
    return {key: _value(test, item, f"{where}.{key}") for key, item in value.items()}


_INF = math.inf


def _value(test: tuple, value, where: str):
    """``value`` checked against one resolved annotation, then built."""
    types, label, build = test
    if type(value) not in types or type(value) is float and not -_INF < value < _INF:
        raise ConfigError(f"{where} must be {label}, got {value!r}")
    return value if build is None else build(value, where)


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


#: Resolved parameters by target: ``(tests by key, required keys)``.
_PARAMS: dict = {}


def _params(target, skip=()) -> tuple[dict, tuple]:
    """The keys a spec may set on ``target``, as plain tests, and the
    required ones: the annotations are read here, once per target. The
    parameters in ``skip`` are the builder's."""
    if target in _PARAMS:
        return _PARAMS[target]
    sources, keys = _SOURCES.get(target, ((target,), None))
    params, required = {}, []
    for source in sources:
        for name, p in inspect.signature(source, eval_str=True).parameters.items():
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) or name in skip:
                continue
            if name not in params and (keys is None or name in keys):
                params[name] = _test(p.annotation)
                if p.default is p.empty:
                    required.append(name)
    _PARAMS[target] = params, tuple(required)
    return _PARAMS[target]


def _checked(target, data: dict, where: str, skip=()) -> dict:
    """The keyword arguments the JSON object ``data`` gives ``target``,
    each checked against the annotation of its parameter and built.
    ``where`` names ``data`` in errors. A valid leaf costs no call."""
    if type(data) is not dict:
        raise ConfigError(f"{where} must be an object, got {data!r}")
    try:
        params, required = _PARAMS[target]
    except KeyError:
        params, required = _params(target, skip)
    for key in required:
        if key not in data:
            raise ConfigError(f"missing required key {_at(where, key)!r}")
    kwargs = {}
    for key in data:
        value = data[key]
        if key not in params:
            raise ConfigError(f"unknown key {_at(where, key)!r}")
        types, label, build = params[key]
        if type(value) not in types or (
            type(value) is float and not -_INF < value < _INF
        ):
            raise ConfigError(f"{_at(where, key)} must be {label}, got {value!r}")
        kwargs[key] = value if build is None else build(value, _at(where, key))
    return kwargs


def _build(target, data: dict, where: str, *args, **given):
    """``target(*args, **given)`` plus what ``data`` sets, checked."""
    return target(*args, **_checked(target, data, where, given), **given)


_OBJECT, _NUMBER = _test(dict), _test(float)


# -- the spec ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload; ``params`` is the short or the general form."""

    kind: str
    name: str
    params: dict

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r} "
                f"(choose from {', '.join(WORKLOAD_KINDS)})"
            )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "params": self.params}

    def general(self) -> dict:
        """The params in the general form."""
        if "allocation" in self.params:
            return self.params
        short = _SHORT[self.kind]
        if self.kind == "micro" and "samples" in self.params:
            short = _replay_micro
        return _build(short, self.params, "")


@dataclass(frozen=True)
class ChaosEvent:
    """One explicit fault: strike at ``at``, heal at ``at + duration``.

    ``target`` is an abstract index resolved against the candidate list
    at strike time, so it stays meaningful as scenarios shrink.
    """

    domain: str
    at: float
    duration: float
    target: int

    def __post_init__(self) -> None:
        if self.domain not in _FAULT_KINDS:
            raise ValueError(
                f"unknown chaos domain {self.domain!r} "
                f"(choose from {', '.join(_FAULT_KINDS)})"
            )
        # A NaN or negative time would strike or heal out of order (a
        # heal before its strike leaves a crashed node dark).
        for key in ("at", "duration"):
            value = float(getattr(self, key))
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{key} must be a finite number ≥ 0, got {value!r}"
                )
            object.__setattr__(self, key, value)

    def to_dict(self) -> dict:
        return asdict(self)


#: Top-level keys a spec file may hold besides the fields: its format,
#: the pack's metadata and a fuzz repro's violations. Only ``format`` is
#: read.
METADATA = ("format", "name", "description", "tags", "pack_version", "violations")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable scenario."""

    seed: int
    horizon: float
    nodes: int
    controller_replicas: int = 1
    scheduler: str = "converged"
    workloads: tuple[WorkloadSpec, ...] = ()
    chaos: tuple[ChaosEvent, ...] = ()
    #: Availability zones (v2); 1 = flat cluster.
    zones: int = 1
    #: Arm the overload stack: admission control, backpressure and
    #: brownout (v2). An object (v5) arms it with these watermarks.
    overload: bool | dict = False
    #: Arm data-plane fault tolerance (v3).
    ft: bool = False
    #: Open-loop arrival model for every microservice (v4).
    arrival_model: str = "rate"
    #: Pareto request-size marks on open-loop arrivals (v4).
    heavy_tail: bool = False
    #: One CorrelatedSurge schedule hits every microservice (v4).
    surge: bool = False
    # -- format 5 ----------------------------------------------------------
    policy: str = "adaptive"
    policy_kwargs: dict | None = None
    scheduler_kwargs: dict | None = None
    #: Resource vectors (``{"cpu": ..., ...}``) of a flat cluster's nodes.
    node_capacity: dict | None = None
    system_reserved: dict | None = None
    #: Node groups ``{name, count, capacity, labels}``; they replace the
    #: flat shape and their counts must add up to ``nodes``.
    groups: tuple[dict, ...] = ()
    #: Tenant → resource vector cap.
    quotas: dict | None = None
    #: The Poisson chaos monkey: ``{mtbf, repair_time,
    #: max_concurrent_failures}``.
    monkey: dict | None = None
    #: SLOs; a spec with SLOs runs with telemetry on.
    slos: tuple[SLOSpec, ...] = ()
    #: Per-replica allocation ceiling (a resource vector).
    max_allocation: dict | None = None
    #: Seconds between strikes of the R-T11 fault cycle
    #: (:func:`schedule_fault_cycle`).
    fault_cycle: float | None = None

    def __post_init__(self) -> None:
        if self.arrival_model not in ARRIVAL_MODELS:
            raise ValueError(
                f"arrival_model must be one of {ARRIVAL_MODELS}, "
                f"got {self.arrival_model!r}"
            )
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.fault_cycle is not None and not self.fault_cycle > 0:
            raise ValueError(f"fault_cycle must be positive, got {self.fault_cycle!r}")
        # Whole seconds in a file load as the floats every writer holds.
        object.__setattr__(self, "horizon", float(self.horizon))
        if self.fault_cycle is not None:
            object.__setattr__(self, "fault_cycle", float(self.fault_cycle))

    def to_dict(self) -> dict:
        data = {"format": 4}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in _V5_KEYS or value != f.default:
                data[f.name] = value
        data["workloads"] = [w.to_dict() for w in self.workloads]
        data["chaos"] = [c.to_dict() for c in self.chaos]
        if self.slos:
            data["slos"] = [asdict(slo) for slo in self.slos]
        if self.groups:
            data["groups"] = list(self.groups)
        if (
            data.keys() & _V5_KEYS
            or isinstance(self.overload, dict)
            or any("allocation" in w.params for w in self.workloads)
        ):
            data["format"] = FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Parse a spec; raises :class:`ConfigError` naming the bad key.

        Each value is checked against the annotation of its field; a key
        that is neither a field nor in :data:`METADATA` is refused.
        """
        version = data.get("format", FORMAT_VERSION)
        if type(version) is not int or version not in SUPPORTED_FORMATS:
            raise ConfigError(
                f"format {version!r} not supported "
                f"(this build reads formats {SUPPORTED_FORMATS})"
            )
        params, required = _params(cls)
        for key in required:
            if key not in data:
                raise ConfigError(f"missing required key {key!r}")
        kwargs = {}
        for key, value in data.items():
            if key in METADATA:
                continue
            if key not in params:
                raise ConfigError(f"unknown key {key!r}")
            try:
                kwargs[key] = _value(params[key], value, key)
            except (TypeError, ValueError) as exc:
                raise _config_error(key, exc) from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise _config_error("spec", exc) from exc


_FIELDS = [f.name for f in fields(ScenarioSpec)]
#: The fields format 5 added (``overload`` objects and general-form
#: workloads are format 5 too).
_V5_KEYS = frozenset(_FIELDS[_FIELDS.index("policy"):])


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a spec file: a pack entry, a report scenario, a fuzz repro.

    Raises :class:`ConfigError` when the file cannot be read, is not
    JSON, or does not describe a spec.
    """
    data = read_spec_file(path)
    with spec_file(path):
        return ScenarioSpec.from_dict(data)


def read_spec_file(path: str | Path) -> dict:
    """The JSON object a spec file holds, or :class:`ConfigError`."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


# -- general-form parts ----------------------------------------------------------

_TRACES = {
    "constant": ConstantTrace,
    "step": StepTrace,
    "ramp": RampTrace,
    "diurnal": DiurnalTrace,
    "flash_crowd": FlashCrowdTrace,
    "bursty": BurstyTrace,
    "ou": OUTrace,
    "noisy": NoisyTrace,
    "composite": CompositeTrace,
    "replay": ReplayTrace,
}
#: Trace kinds that draw from the workload's ``trace/<name>`` stream.
_DRAWING = ("bursty", "ou", "noisy")


def _replay_file(path: str, *, time_scale: float = 1.0, rate_scale: float = 1.0):
    """A ``replay`` trace read from a trace file."""
    return load_trace(path).trace(time_scale=time_scale, rate_scale=rate_scale)


def trace_from_dict(
    data: dict, stream: Callable[[], Any]
) -> LoadTrace:
    """A load trace from its ``kind`` and parameters.

    ``stream()`` returns the RNG of the kinds that draw (``bursty``,
    ``ou``, ``noisy``); it is called only for them, so other traces
    create no stream.
    """
    params = dict(_value(_OBJECT, data, "trace"))
    kind = params.pop("kind", None)
    if kind not in _TRACES:
        missing = "trace: missing required key 'kind'"
        raise ConfigError(missing if kind is None else f"unknown trace kind {kind!r}")
    target = _replay_file if kind == "replay" and "path" in params else _TRACES[kind]
    try:
        kwargs = _checked(target, params, "", ("rng",))
        if kind == "noisy":
            kwargs["base"] = trace_from_dict(kwargs["base"], stream)
        elif kind == "composite":
            kwargs["components"] = [
                trace_from_dict(c, stream) for c in kwargs["components"]
            ]
        if kind in _DRAWING:
            kwargs["rng"] = stream()
        return target(**kwargs)
    except _LIBRARY_ERRORS as exc:
        raise _config_error(f"trace kind {kind!r}", exc) from exc


def demands_from_dict(data: dict | list) -> ServiceDemands | list[DemandPhase]:
    """One demand profile, or a list of profiles with a ``start_time``."""
    if type(data) is not list:
        return _build(ServiceDemands, data, "demands")
    phases = []
    for i, entry in enumerate(data):
        where = f"demands[{i}]"
        profile = dict(_value(_OBJECT, entry, where))
        start = {k: profile.pop(k) for k in ("start_time",) if k in profile}
        demands = _build(ServiceDemands, profile, where)
        phases.append(_build(DemandPhase, start, where, demands=demands))
    return phases


_PLOS = {"latency": LatencyPLO, "throughput": ThroughputPLO}


def plo_from_dict(data: dict) -> LatencyPLO | ThroughputPLO:
    params = dict(_value(_OBJECT, data, "plo"))
    kind = params.pop("kind")
    if kind not in _PLOS:
        raise ConfigError(f"unknown plo kind {kind!r}")
    return _build(_PLOS[kind], params, "plo")


def _stage(data: dict, where: str) -> Stage:
    """A big-data stage; its ``work`` sets ``work_cpu_seconds``."""
    params = dict(_value(_OBJECT, data, where))
    work = _value(_NUMBER, params.pop("work"), f"{where}.work")
    return _build(Stage, params, where, work_cpu_seconds=work)


# -- the short form: each kind spelled out in the general form ---------------------


def _micro(trace, cpu_seconds, disk_mb, net_mb, cpu, memory, plo, replicas) -> dict:
    return {
        "trace": trace,
        "demands": {
            "cpu_seconds": cpu_seconds,
            "disk_mb": disk_mb,
            "net_mb": net_mb,
            "base_latency": 0.005,
        },
        "allocation": {"cpu": cpu, "memory": memory, "disk_bw": 10, "net_bw": 30},
        "plo": {"kind": "latency", "target": plo, "window": 30},
        "replicas": replicas,
    }


def _diurnal_micro(
    *, base: float, amplitude: float, period: float, cpu_seconds: float,
    cpu: float, memory: float, plo: float, replicas: int,
    disk_mb: float = 0.0, net_mb: float = 0.0,
) -> dict:
    trace = {"kind": "diurnal", "base": base, "amplitude": amplitude, "period": period}
    return _micro(trace, cpu_seconds, disk_mb, net_mb, cpu, memory, plo, replicas)


def _replay_micro(
    *, samples: list, cpu_seconds: float, cpu: float, memory: float,
    plo: float, replicas: int, time_scale: float = 1.0,
    rate_scale: float = 1.0, disk_mb: float = 0.0, net_mb: float = 0.0,
) -> dict:
    """A replayed rate curve (pack v2's diurnal-replay entry)."""
    trace = {"kind": "replay", "samples": samples, "time_scale": time_scale,
             "rate_scale": rate_scale}
    return _micro(trace, cpu_seconds, disk_mb, net_mb, cpu, memory, plo, replicas)


def _short_stream(
    *, rate: float, cpu_seconds: float, cpu: float, memory: float,
    plo: float, workers: int,
) -> dict:
    return {
        "trace": {"kind": "constant", "value": rate},
        "operators": [
            {"name": "parse", "cpu_seconds": cpu_seconds},
            {"name": "agg", "cpu_seconds": cpu_seconds / 2},
        ],
        "allocation": {"cpu": cpu, "memory": memory, "disk_bw": 10, "net_bw": 40},
        "plo": {"kind": "latency", "target": plo, "window": 30},
        "workers": workers,
    }


def _short_bigdata(
    *, scan_cpu: float, agg_cpu: float, input_mb: float, cpu: float,
    memory: float, executors: int, delay: float, dataset: bool = False,
) -> dict:
    general = {
        "stages": [
            {"name": "scan", "work": scan_cpu, "input_mb": input_mb},
            {"name": "agg", "work": agg_cpu, "input_mb": input_mb / 10,
             "deps": ["scan"]},
        ],
        "allocation": {"cpu": cpu, "memory": memory, "disk_bw": 60, "net_bw": 60},
        "executors": executors,
        "delay": delay,
    }
    if dataset:
        general["dataset"] = {"total_mb": 2000, "block_mb": 100}
    return general


def _short_hpc(
    *, ranks: int, duration: float, cpu: float, memory: float, delay: float
) -> dict:
    return {
        "ranks": ranks,
        "duration": duration,
        "allocation": {"cpu": cpu, "memory": memory, "disk_bw": 5, "net_bw": 40},
        "delay": delay,
    }


_SHORT = {
    "micro": _diurnal_micro,
    "stream": _short_stream,
    "bigdata": _short_bigdata,
    "hpc": _short_hpc,
}

#: Targets a spec sets only some parameters of: the callables whose
#: annotations check them, searched in order (each verb passes its
#: ``**kwargs`` on to the job class), and the keys a spec may set. A
#: workload's ``trace``, ``demands``, ``plo`` and ``stages`` pass as plain
#: objects that the parts above build; its ``dataset`` object is checked
#: against :func:`spread_blocks`, and the verb gets the bucket's name.
_SOURCES = {
    "micro": ((EvolvePlatform.deploy_microservice, Microservice, Application), (
        "trace", "demands", "allocation", "plo", "replicas", "managed", "labels",
        "node_selector")),
    "stream": ((EvolvePlatform.deploy_stream, StreamJob), (
        "trace", "operators", "allocation", "plo", "workers", "managed",
        "event_mb", "labels")),
    "bigdata": ((EvolvePlatform.submit_bigdata, BigDataJob), (
        "stages", "allocation", "executors", "dataset", "deadline", "delay",
        "accelerator", "labels")),
    "hpc": ((EvolvePlatform.submit_hpc, HPCJob), (
        "ranks", "duration", "allocation", "delay", "comm_fraction",
        "zone_penalty", "checkpoint_interval", "labels")),
    "monkey": ((EvolvePlatform.enable_chaos,), (
        "mtbf", "repair_time", "max_concurrent_failures")),
    spread_blocks: ((spread_blocks,), ("total_mb", "block_mb", "replication")),
}
#: Library classes a spec writes in a form of its own, which the parts
#: above build: a parameter of one takes a plain object.
_BUILT_HERE = (LoadTrace, Stage)


# -- the builder -------------------------------------------------------------------


def build_platform(spec: ScenarioSpec, *, telemetry: bool = False) -> EvolvePlatform:
    """Materialize a spec: platform, workloads and every fault schedule.

    A spec with SLOs runs with telemetry on whatever ``telemetry`` says.
    What the library rejects while a section is wired is raised as a
    :class:`ConfigError` naming the section.
    """
    section = "cluster"
    try:
        cluster = ClusterSpec(
            node_count=spec.nodes, zones=spec.zones, **_cluster_shape(spec)
        )
        section = "platform"
        armed = spec.overload is True or isinstance(spec.overload, dict)
        watermarks = spec.overload if isinstance(spec.overload, dict) else {}
        ceiling = {}
        if spec.max_allocation is not None:
            ceiling["max_allocation"] = _build(
                ResourceVector, spec.max_allocation, "max_allocation"
            )
        platform = EvolvePlatform(
            cluster_spec=cluster,
            config=PlatformConfig(
                seed=spec.seed,
                controller_replicas=spec.controller_replicas,
                telemetry=telemetry or bool(spec.slos),
                slos=spec.slos,
                overload=_build(
                    OverloadConfig, watermarks, "overload",
                    admission=armed, backpressure=armed, brownout=armed,
                ),
                data_plane=spec.ft,
                **ceiling,
            ),
            scheduler=spec.scheduler,
            policy=spec.policy,
            policy_kwargs=spec.policy_kwargs,
            scheduler_kwargs=spec.scheduler_kwargs,
        )
        surge = None
        if spec.surge:
            # One shared schedule from a dedicated stream; per-app lags
            # draw in deployment order, which spec.workloads fixes.
            surge = CorrelatedSurge(
                platform.rng.stream("workload/surge"),
                horizon=spec.horizon,
                mean_interval=max(120.0, spec.horizon / 3.0),
                duration=60.0,
                factor=4.0,
                max_lag=15.0,
            )
        for workload in spec.workloads:
            section = f"{workload.kind} {workload.name!r}"
            _deploy(platform, workload, spec, surge)
        if spec.quotas is not None:
            section = "quotas"
            for tenant, limit in spec.quotas.items():
                platform.set_tenant_quota(
                    tenant, _build(ResourceVector, limit, f"quotas.{tenant}")
                )
        section = "chaos"
        for event in spec.chaos:
            _schedule_chaos(platform, event)
        if spec.monkey is not None:
            section = "monkey"
            platform.enable_chaos(**_checked("monkey", spec.monkey, "monkey"))
        if spec.fault_cycle is not None:
            schedule_fault_cycle(platform, spec.fault_cycle, spec.horizon)
    except _LIBRARY_ERRORS as exc:
        raise _config_error(section, exc) from exc
    return platform


def _cluster_shape(spec: ScenarioSpec) -> dict:
    """The ClusterSpec keywords a format-5 spec sets."""
    shape = {}
    if spec.node_capacity is not None:
        shape["node_capacity"] = _build(
            ResourceVector, spec.node_capacity, "node_capacity"
        )
    if spec.system_reserved is not None:
        shape["system_reserved"] = _build(
            ResourceVector, spec.system_reserved, "system_reserved"
        )
    if spec.groups:
        shape["groups"] = tuple(
            _build(NodeGroup, group, f"groups[{i}]")
            for i, group in enumerate(spec.groups)
        )
        if sum(group.count for group in shape["groups"]) != spec.nodes:
            raise ValueError("nodes must equal the node groups' total count")
    return shape


def _micro_arrivals(
    platform: EvolvePlatform, name: str, trace: LoadTrace, spec: ScenarioSpec
):
    """The open-loop arrival process of one microservice (v4).

    Streams are per app (``workload/<name>/arrivals`` / ``…/sizes``) so
    adding a service never shifts a neighbour's draw sequence.
    """
    if spec.arrival_model == "rate":
        return None
    rng = platform.rng.stream(f"workload/{name}/arrivals")
    if spec.arrival_model == "poisson":
        process = PoissonArrivals(trace, rng)
    else:
        process = MMPPArrivals(
            trace, rng, factors=(0.3, 1.0, 3.0), horizon=spec.horizon
        )
    if spec.heavy_tail:
        process = MarkedArrivals(
            process,
            ParetoSizes(alpha=1.6),
            platform.rng.stream(f"workload/{name}/sizes"),
        )
    return process


def _deploy(
    platform: EvolvePlatform,
    workload: WorkloadSpec,
    spec: ScenarioSpec,
    surge: CorrelatedSurge | None,
) -> None:
    name, kind = workload.name, workload.kind
    p = workload.general()
    if kind == "bigdata" and "dataset" in p:
        # The job's input, written across the first half of the nodes.
        p = dict(p)
        nodes = list(platform.cluster.nodes)
        _build(spread_blocks, p.pop("dataset"), "dataset", platform.store,
               f"{name}-data", nodes=nodes[: max(1, len(nodes) // 2)])
        p["dataset"] = f"{name}-data"
    kwargs = _checked(kind, p, "")
    if kind in ("micro", "stream"):
        kwargs["trace"] = trace_from_dict(
            kwargs["trace"], partial(platform.rng.stream, f"trace/{name}")
        )
        if kwargs.get("plo") is not None:
            kwargs["plo"] = plo_from_dict(kwargs["plo"])
        kwargs.setdefault("managed", kwargs.get("plo") is not None)
    if kind == "micro":
        if surge is not None:
            kwargs["trace"] = surge.attach(kwargs["trace"], name=name)
        kwargs["demands"] = demands_from_dict(kwargs["demands"])
        arrivals = _micro_arrivals(platform, name, kwargs["trace"], spec)
        platform.deploy_microservice(name, arrivals=arrivals, **kwargs)
    elif kind == "stream":
        platform.deploy_stream(name, **kwargs)
    elif kind == "bigdata":
        kwargs["stages"] = [
            _stage(s, f"stages[{i}]") for i, s in enumerate(kwargs["stages"])
        ]
        platform.submit_bigdata(name, **kwargs)
    else:
        platform.submit_hpc(name, **kwargs)


# -- explicit chaos ------------------------------------------------------------------


class _OverloadSurge:
    """A flash crowd, not a fault: 4x one microservice's offered load.

    Exercises the shed → brownout → recover pipeline when the spec armed
    the overload stack; healing restores the original trace.
    """

    name = "overload-surge"

    def __init__(self, platform: EvolvePlatform):
        self.platform = platform

    def candidates(self) -> list[Microservice]:
        return [
            app
            for _name, app in sorted(self.platform.apps.items())
            if isinstance(app, Microservice)
        ]

    def strike(self, app: Microservice) -> tuple:
        trace = app.trace
        app.trace = ScaledTrace(trace, 4.0)
        return (app, trace)

    def heal(self, token: tuple) -> None:
        app, trace = token
        app.trace = trace


class _BoundedPartition:
    """Cut any live controller replica off for a fixed window.

    Unlike the chaos monkey's open-ended leader partition, the window
    closes by itself, so the event schedules no heal.
    """

    name = "partition"

    def __init__(self, platform: EvolvePlatform, duration: float):
        self.platform = platform
        self.duration = duration

    def candidates(self) -> list[str]:
        plane = self.platform.control_plane
        return [plane.identity(i) for i in plane.alive_indices()]

    def strike(self, identity: str) -> None:
        faults = self.platform.partition_faults
        now = self.platform.engine.now
        if not faults.is_partitioned(identity, now):
            faults.partition(identity, now, self.duration)


#: Chaos domain → the fault kind its events strike on a platform.
#: Explicit strikes of controller-crash and the data-plane kinds record
#: no FaultLog episode, so those kinds are built without a log.
_FAULT_KINDS = {
    "crash": lambda p, e: p.injector,
    "degrade": lambda p, e: p.degrader,
    "controller-crash": lambda p, e: ControllerCrashInjector(p.control_plane),
    "partition": lambda p, e: _BoundedPartition(p, e.duration),
    "zone-outage": lambda p, e: ZoneOutageInjector(p.injector),
    "overload-surge": lambda p, e: _OverloadSurge(p),
    "executor-kill": lambda p, e: ExecutorKillInjector(p.cluster),
    "straggler": lambda p, e: StragglerInjector(p.cluster),
    "data-loss": lambda p, e: DataLossInjector(p.store, p.cluster),
}

#: Domains whose events schedule no heal: self-healing respawns a killed
#: executor, the repair loop re-replicates wiped data, and a bounded
#: partition window closes by itself.
_NO_HEAL = ("executor-kill", "data-loss", "partition")


def _schedule_chaos(platform: EvolvePlatform, event: ChaosEvent) -> None:
    """Schedule one explicit strike/heal pair.

    The victim is ``candidates()[event.target % len(candidates)]`` at
    strike time. With no candidate (all nodes already down, no control
    plane, …) the event is a no-op instead of an error: a shrunken spec
    must stay runnable no matter which of its siblings were dropped.
    """
    kind = _FAULT_KINDS[event.domain](platform, event)
    has_target = (
        platform.control_plane is not None
        or event.domain not in CONTROLLER_DOMAINS
    )
    tokens: list = []

    def strike() -> None:
        candidates = kind.candidates() if has_target else []
        if candidates:
            victim = candidates[event.target % len(candidates)]
            tokens.append(kind.strike(victim))

    def heal() -> None:
        for token in tokens:
            kind.heal(token)

    platform.engine.schedule_at(event.at, strike)
    if event.domain not in _NO_HEAL:
        platform.engine.schedule_at(event.at + event.duration, heal)


#: The R-T11 fault cycle: one fault per period, in this order. Crash
#: before data-loss so mid-job node loss (the lineage trigger) lands
#: while the analytics job is still running.
FAULT_CYCLE = ("executor-kill", "crash", "data-loss", "straggler")
#: Seconds until a cycle strike heals: a crashed node stays dark, a
#: straggler stays slow; killed executors and wiped data need no heal.
_HEAL_AFTER = {"crash": 60.0, "straggler": 120.0}


def schedule_fault_cycle(
    platform: EvolvePlatform, period: float, duration: float
) -> None:
    """The R-T11 deterministic fault schedule.

    From t = 60 s, one fault every ``period`` seconds, cycling
    :data:`FAULT_CYCLE`. Victims come from a running strike counter over
    each kind's ordered candidates — a pure function of the scenario, no
    RNG draws. A crash is skipped while two or fewer nodes are healthy.
    Only crashes log FaultLog episodes.
    """
    kinds = {
        "executor-kill": ExecutorKillInjector(platform.cluster),
        "crash": platform.injector,
        "data-loss": DataLossInjector(platform.store, platform.cluster),
        "straggler": StragglerInjector(platform.cluster, factor=0.5),
    }
    strikes = itertools.count()

    def strike(kind) -> None:
        candidates = kind.candidates()
        if not candidates or (kind.name == "crash" and len(candidates) <= 2):
            return
        token = kind.strike(candidates[next(strikes) % len(candidates)])
        if kind.name in _HEAL_AFTER:
            platform.engine.schedule(
                _HEAL_AFTER[kind.name], lambda: kind.heal(token)
            )

    at = 60.0
    i = 0
    while at < duration - _HEAL_AFTER["crash"]:
        kind = kinds[FAULT_CYCLE[i % len(FAULT_CYCLE)]]
        platform.engine.schedule_at(at, lambda kind=kind: strike(kind))
        at += period
        i += 1
