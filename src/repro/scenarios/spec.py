"""The scenario spec: one description of a run, one builder.

A :class:`ScenarioSpec` holds everything a run needs: the cluster, the
scheduler and policy, the workloads with their traces, the chaos
schedule, SLOs and the horizon. :func:`build_platform` is the only code
that turns a spec into a wired :class:`EvolvePlatform`; ``repro run``,
``report``, ``arena``, ``fuzz`` and R-T10/R-T11/R-T12 all load and build
through it. docs/scenarios.md describes every key, the short and the
general workload form, and the rule that keeps older readers working: a
spec that needs nothing of format 5 is written as format 4.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable

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
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import DemandPhase, Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO
from repro.workloads.stream import Operator
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
#: :data:`_V5_PARSERS`. Older files still load: every new key defaults
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


# -- the spec ------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload; ``params`` is the short or the general form."""

    kind: str
    name: str
    params: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {data!r}")
        if data["kind"] not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {data['kind']!r} "
                f"(choose from {', '.join(WORKLOAD_KINDS)})"
            )
        return cls(
            kind=data["kind"], name=data["name"], params=dict(data["params"])
        )

    def general(self) -> dict:
        """The params in the general form."""
        if "allocation" in self.params:
            return self.params
        return _expand(self.kind, self.params)


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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEvent":
        if data["domain"] not in _FAULT_KINDS:
            raise ValueError(
                f"unknown chaos domain {data['domain']!r} "
                f"(choose from {', '.join(_FAULT_KINDS)})"
            )
        return cls(
            domain=data["domain"],
            at=float(data["at"]),
            duration=float(data["duration"]),
            target=int(data["target"]),
        )


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
        # An infinite horizon would never end; NaN fails the comparison.
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon!r}"
            )
        if self.fault_cycle is not None and not (
            self.fault_cycle > 0 and math.isfinite(self.fault_cycle)
        ):
            raise ValueError(
                f"fault_cycle must be positive and finite, got {self.fault_cycle!r}"
            )
        if self.groups and sum(g["count"] for g in self.groups) != self.nodes:
            raise ValueError("nodes must equal the node groups' total count")

    def to_dict(self) -> dict:
        data = {"format": 4}
        for key in _PARSERS:
            value = getattr(self, key)
            if key not in _V5_PARSERS or value != _DEFAULTS[key]:
                data[key] = value
        data["workloads"] = [w.to_dict() for w in self.workloads]
        data["chaos"] = [c.to_dict() for c in self.chaos]
        if self.slos:
            data["slos"] = [asdict(slo) for slo in self.slos]
        if self.groups:
            data["groups"] = list(self.groups)
        if (
            data.keys() & _V5_PARSERS.keys()
            or isinstance(self.overload, dict)
            or any("allocation" in w.params for w in self.workloads)
        ):
            data["format"] = FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Parse a spec; raises :class:`ConfigError` naming the bad key.

        Keys this format does not know (pack metadata, a repro file's
        ``violations``) are ignored.
        """
        version = data.get("format", FORMAT_VERSION)
        if version not in SUPPORTED_FORMATS:
            raise ConfigError(
                f"format {version} not supported "
                f"(this build reads formats {SUPPORTED_FORMATS})"
            )
        kwargs = {}
        for key, parse in _PARSERS.items():
            if key not in data:
                if key in _REQUIRED:
                    raise ConfigError(f"missing required key {key!r}")
                continue
            try:
                kwargs[key] = parse(data[key])
            except ConfigError:
                raise
            except (TypeError, ValueError, KeyError) as exc:
                raise _config_error(key, exc) from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError, KeyError) as exc:
            raise _config_error("spec", exc) from exc


def _json(kind: type) -> Callable[[Any], Any]:
    """A parser accepting only values of the JSON type ``kind``."""
    label = {str: "a string", dict: "an object", list: "a list"}[kind]

    def parse(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {label}, got {value!r}")
        return value

    return parse


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


#: Every key a spec file may set up to format 4, with its parser.
_PARSERS: dict[str, Callable[[Any], Any]] = {
    "seed": int,
    "horizon": float,
    "nodes": int,
    "controller_replicas": int,
    "scheduler": str,
    "workloads": lambda v: tuple(WorkloadSpec.from_dict(w) for w in v),
    "chaos": lambda v: tuple(ChaosEvent.from_dict(c) for c in v),
    "zones": int,
    "overload": lambda v: v if isinstance(v, dict) else bool(v),
    "ft": bool,
    "arrival_model": str,
    "heavy_tail": bool,
    "surge": bool,
}
#: The keys format 5 added (``overload`` objects and general-form
#: workloads are format 5 too).
_V5_PARSERS = {
    "policy": _json(str),
    "policy_kwargs": _json(dict),
    "scheduler_kwargs": _json(dict),
    "node_capacity": _json(dict),
    "system_reserved": _json(dict),
    "groups": lambda v: tuple(_json(list)(v)),
    "quotas": _json(dict),
    "monkey": _json(dict),
    "slos": lambda v: tuple(SLOSpec(**_json(dict)(s)) for s in _json(list)(v)),
    "max_allocation": _json(dict),
    "fault_cycle": _number,
}
_PARSERS.update(_V5_PARSERS)
_REQUIRED = ("seed", "horizon", "nodes")
_DEFAULTS = {f.name: f.default for f in fields(ScenarioSpec)}


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

#: Trace kinds built straight from their parameters.
_TRACES = {
    "constant": ConstantTrace,
    "ramp": RampTrace,
    "diurnal": DiurnalTrace,
    "flash_crowd": FlashCrowdTrace,
}
#: Trace kinds that draw from the workload's ``trace/<name>`` stream.
_DRAWING_TRACES = {"bursty": BurstyTrace, "ou": OUTrace}


def trace_from_dict(
    data: dict, stream: Callable[[], Any]
) -> LoadTrace:
    """A load trace from its ``kind`` and parameters.

    ``stream()`` returns the RNG of the kinds that draw (``bursty``,
    ``ou``, ``noisy``); it is called only for them, so other traces
    create no stream.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"trace: expected an object, got {data!r}")
    params = dict(data)
    kind = params.pop("kind", None)
    try:
        if kind in _TRACES:
            return _TRACES[kind](**params)
        if kind in _DRAWING_TRACES:
            return _DRAWING_TRACES[kind](**params, rng=stream())
        if kind == "step":
            steps = [tuple(s) for s in params.pop("steps")]
            return StepTrace(steps, **params)
        if kind == "noisy":
            base = trace_from_dict(params.pop("base"), stream)
            return NoisyTrace(base, **params, rng=stream())
        if kind == "composite":
            return CompositeTrace(
                [trace_from_dict(c, stream) for c in params.pop("components")]
            )
        if kind == "replay":
            path = params.pop("path", None)
            if path is not None:
                return load_trace(path).trace(**params)
            samples = [tuple(s) for s in params.pop("samples")]
            return ReplayTrace(samples, **params)
    except ConfigError:
        raise
    except _LIBRARY_ERRORS as exc:
        raise _config_error(f"trace kind {kind!r}", exc) from exc
    if kind is None:
        raise ConfigError("trace: missing required key 'kind'")
    raise ConfigError(f"unknown trace kind {kind!r}")


def demands_from_dict(data: dict | list) -> ServiceDemands | list[DemandPhase]:
    """One demand profile, or a list of profiles with a ``start_time``."""
    if isinstance(data, dict):
        return ServiceDemands(**data)
    phases = []
    for entry in data:
        profile = dict(entry)
        start = profile.pop("start_time")
        phases.append(DemandPhase(start, ServiceDemands(**profile)))
    return phases


_PLOS = {"latency": LatencyPLO, "throughput": ThroughputPLO}


def plo_from_dict(data: dict) -> LatencyPLO | ThroughputPLO:
    params = dict(data)
    kind = params.pop("kind")
    if kind not in _PLOS:
        raise ConfigError(f"unknown plo kind {kind!r}")
    return _PLOS[kind](**params)


def _expand(kind: str, p: dict) -> dict:
    """A short-form workload's params in the general form."""
    if kind == "micro":
        if "samples" in p:
            # A replayed rate curve (pack v2's diurnal-replay entry).
            trace = {"kind": "replay", "samples": p["samples"]}
            for key in ("time_scale", "rate_scale"):
                if key in p:
                    trace[key] = float(p[key])
        else:
            trace = {
                "kind": "diurnal",
                "base": p["base"],
                "amplitude": p["amplitude"],
                "period": p["period"],
            }
        return {
            "trace": trace,
            "demands": {
                "cpu_seconds": p["cpu_seconds"],
                "disk_mb": float(p.get("disk_mb", 0.0)),
                "net_mb": float(p.get("net_mb", 0.0)),
                "base_latency": 0.005,
            },
            "allocation": {
                "cpu": p["cpu"], "memory": p["memory"], "disk_bw": 10, "net_bw": 30
            },
            "plo": {"kind": "latency", "target": p["plo"], "window": 30},
            "replicas": p["replicas"],
        }
    if kind == "stream":
        return {
            "trace": {"kind": "constant", "value": p["rate"]},
            "operators": [
                {"name": "parse", "cpu_seconds": p["cpu_seconds"]},
                {"name": "agg", "cpu_seconds": p["cpu_seconds"] / 2},
            ],
            "allocation": {
                "cpu": p["cpu"], "memory": p["memory"], "disk_bw": 10, "net_bw": 40
            },
            "plo": {"kind": "latency", "target": p["plo"], "window": 30},
            "workers": p["workers"],
        }
    if kind == "bigdata":
        general = {
            "stages": [
                {"name": "scan", "work": p["scan_cpu"], "input_mb": p["input_mb"]},
                {
                    "name": "agg",
                    "work": p["agg_cpu"],
                    "input_mb": p["input_mb"] / 10,
                    "deps": ["scan"],
                },
            ],
            "allocation": {
                "cpu": p["cpu"], "memory": p["memory"], "disk_bw": 60, "net_bw": 60
            },
            "executors": p["executors"],
            "delay": p["delay"],
        }
        if p.get("dataset"):
            general["dataset"] = {"total_mb": 2000, "block_mb": 100}
        return general
    return {
        "ranks": p["ranks"],
        "duration": p["duration"],
        "allocation": {
            "cpu": p["cpu"], "memory": p["memory"], "disk_bw": 5, "net_bw": 40
        },
        "delay": p["delay"],
    }


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
            ceiling["max_allocation"] = ResourceVector(**spec.max_allocation)
        platform = EvolvePlatform(
            cluster_spec=cluster,
            config=PlatformConfig(
                seed=spec.seed,
                controller_replicas=spec.controller_replicas,
                telemetry=telemetry or bool(spec.slos),
                slos=spec.slos,
                overload=OverloadConfig(
                    admission=armed,
                    backpressure=armed,
                    brownout=armed,
                    **watermarks,
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
                platform.set_tenant_quota(tenant, ResourceVector(**limit))
        section = "chaos"
        for event in spec.chaos:
            _schedule_chaos(platform, event)
        if spec.monkey is not None:
            section = "monkey"
            monkey = spec.monkey
            platform.enable_chaos(
                mtbf=float(monkey.get("mtbf", 3600.0)),
                repair_time=float(monkey.get("repair_time", 300.0)),
                max_concurrent_failures=int(
                    monkey.get("max_concurrent_failures", 1)
                ),
            )
        if spec.fault_cycle is not None:
            schedule_fault_cycle(platform, spec.fault_cycle, spec.horizon)
    except ConfigError:
        raise
    except _LIBRARY_ERRORS as exc:
        raise _config_error(section, exc) from exc
    return platform


def _cluster_shape(spec: ScenarioSpec) -> dict:
    """The ClusterSpec keywords a format-5 spec sets."""
    shape = {}
    if spec.node_capacity is not None:
        shape["node_capacity"] = ResourceVector(**spec.node_capacity)
    if spec.system_reserved is not None:
        shape["system_reserved"] = ResourceVector(**spec.system_reserved)
    if spec.groups:
        shape["groups"] = tuple(
            NodeGroup(
                name=g["name"],
                count=g["count"],
                capacity=ResourceVector(**g["capacity"]),
                labels=g.get("labels", {}),
            )
            for g in spec.groups
        )
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


#: General-form keys passed to the platform verb as they are, when set.
_VERB_KEYS = {
    "micro": ("replicas", "labels", "node_selector"),
    "stream": ("workers", "event_mb", "labels"),
    "bigdata": ("executors", "deadline", "delay", "accelerator", "labels"),
    "hpc": ("delay", "comm_fraction", "zone_penalty", "checkpoint_interval", "labels"),
}


def _deploy(
    platform: EvolvePlatform,
    workload: WorkloadSpec,
    spec: ScenarioSpec,
    surge: CorrelatedSurge | None,
) -> None:
    name, kind = workload.name, workload.kind
    p = workload.general()
    options = {key: p[key] for key in _VERB_KEYS[kind] if key in p}
    allocation = ResourceVector(**p["allocation"])
    if kind in ("micro", "stream"):
        trace = trace_from_dict(
            p["trace"], partial(platform.rng.stream, f"trace/{name}")
        )
        plo = plo_from_dict(p["plo"]) if "plo" in p else None
        managed = p.get("managed", plo is not None)
    if kind == "micro":
        if surge is not None:
            trace = surge.attach(trace, name=name)
        platform.deploy_microservice(
            name,
            trace=trace,
            demands=demands_from_dict(p["demands"]),
            allocation=allocation,
            plo=plo,
            managed=managed,
            arrivals=_micro_arrivals(platform, name, trace, spec),
            **options,
        )
    elif kind == "stream":
        platform.deploy_stream(
            name,
            trace=trace,
            operators=[Operator(**op) for op in p["operators"]],
            allocation=allocation,
            plo=plo,
            managed=managed,
            **options,
        )
    elif kind == "bigdata":
        dataset = p.get("dataset")
        if dataset is not None:
            if not isinstance(dataset, dict):
                raise TypeError(
                    "dataset must be an object {total_mb, block_mb, "
                    f"replication}}, got {dataset!r}"
                )
            # The job's input, written across the first half of the nodes.
            options["dataset"] = f"{name}-data"
            nodes = list(platform.cluster.nodes)
            spread_blocks(
                platform.store,
                options["dataset"],
                total_mb=dataset["total_mb"],
                block_mb=dataset["block_mb"],
                nodes=nodes[: max(1, len(nodes) // 2)],
                replication=dataset.get("replication", 1),
            )
        platform.submit_bigdata(
            name, stages=_stages(p["stages"]), allocation=allocation, **options
        )
    else:
        platform.submit_hpc(
            name,
            ranks=p["ranks"],
            duration=p["duration"],
            allocation=allocation,
            **options,
        )


def _stages(stages) -> list[Stage]:
    """A big-data stage list: a list of objects, each ``deps`` a list of
    stage names. Checked here because a string iterates as its letters:
    ``"deps": "ab"`` would wait on stages ``a`` and ``b``."""
    if not isinstance(stages, list) or not all(isinstance(s, dict) for s in stages):
        raise TypeError(f"stages must be a list of objects, got {stages!r}")
    built = []
    for s in stages:
        deps = s.get("deps", [])
        if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
            raise TypeError(
                f"stage {s.get('name')!r}: deps must be a list of stage names, "
                f"got {deps!r}"
            )
        built.append(
            Stage(
                name=s["name"],
                work_cpu_seconds=s["work"],
                input_mb=s.get("input_mb", 0.0),
                deps=tuple(deps),
                max_parallelism=s.get("max_parallelism", 64),
                accel_speedup=s.get("accel_speedup", 1.0),
            )
        )
    return built


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
    if event.domain not in _FAULT_KINDS:
        raise ValueError(f"unknown chaos domain {event.domain!r}")
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
