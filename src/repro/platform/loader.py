"""Declarative experiment configs (JSON/dict) → a wired platform.

Lets users describe an experiment — cluster shape, scheduler, policy,
services/jobs with traces and PLOs, optional chaos — as plain data and
run it from the CLI without writing Python. Every ``kind`` value maps
1:1 onto a library class, so the schema is a thin veneer over the API.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, NodeGroup, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.storage.objectstore import StorageError
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import DemandPhase, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO
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
    StepTrace,
)


class ConfigError(ValueError):
    """Raised for malformed experiment configs."""


@contextmanager
def _section(name: str) -> Iterator[None]:
    """Report what the library rejects while wiring ``name`` as a
    :class:`ConfigError` naming that section of the config."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, StorageError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _require(data: Mapping[str, Any], key: str, context: str) -> Any:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{context}: expected an object, got {data!r}")
    if key not in data:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return data[key]


def resources_from_dict(data: Mapping[str, float]) -> ResourceVector:
    try:
        return ResourceVector.from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"bad resource vector: {exc}") from exc


def trace_from_dict(
    data: Mapping[str, Any], rng: np.random.Generator
) -> LoadTrace:
    """Build a load trace from its ``kind`` + parameters."""
    kind = _require(data, "kind", "trace")
    params = {k: v for k, v in data.items() if k != "kind"}
    with _section(f"trace kind {kind!r}"):
        if kind == "constant":
            return ConstantTrace(**params)
        if kind == "step":
            steps = [tuple(s) for s in _require(params, "steps", "step trace")]
            return StepTrace(steps, initial=params.get("initial", 0.0))
        if kind == "ramp":
            return RampTrace(**params)
        if kind == "diurnal":
            return DiurnalTrace(**params)
        if kind == "flash_crowd":
            return FlashCrowdTrace(**params)
        if kind == "bursty":
            return BurstyTrace(**params, rng=rng)
        if kind == "ou":
            return OUTrace(**params, rng=rng)
        if kind == "noisy":
            base = trace_from_dict(_require(params, "base", "noisy trace"), rng)
            rest = {k: v for k, v in params.items() if k != "base"}
            return NoisyTrace(base, **rest, rng=rng)
        if kind == "composite":
            components = [
                trace_from_dict(c, rng)
                for c in _require(params, "components", "composite trace")
            ]
            return CompositeTrace(components)
        if kind == "replay":
            path = params.pop("path", None)
            if path is not None:
                return load_trace(path).trace(**params)
            samples = [tuple(s) for s in _require(params, "samples", "replay")]
            rest = {k: v for k, v in params.items() if k != "samples"}
            return ReplayTrace(samples, **rest)
    raise ConfigError(f"unknown trace kind {kind!r}")


def demands_from_dict(data: Any):
    """A single demand profile, or a list of phased profiles."""
    with _section("bad demands"):
        if isinstance(data, Mapping):
            return ServiceDemands(**data)
        phases = []
        for entry in data:
            start = _require(entry, "start_time", "demand phase")
            profile = {k: v for k, v in entry.items() if k != "start_time"}
            phases.append(DemandPhase(start, ServiceDemands(**profile)))
        return phases


def plo_from_dict(data: Mapping[str, Any]):
    kind = _require(data, "kind", "plo")
    params = {k: v for k, v in data.items() if k != "kind"}
    with _section(f"plo kind {kind!r}"):
        if kind == "latency":
            return LatencyPLO(**params)
        if kind == "throughput":
            return ThroughputPLO(**params)
    raise ConfigError(f"unknown plo kind {kind!r}")


def cluster_spec_from_dict(data: Mapping[str, Any]) -> ClusterSpec:
    kwargs: dict[str, Any] = {}
    if "nodes" in data:
        kwargs["node_count"] = data["nodes"]
    if "capacity" in data:
        kwargs["node_capacity"] = resources_from_dict(data["capacity"])
    if "system_reserved" in data:
        kwargs["system_reserved"] = resources_from_dict(data["system_reserved"])
    if "zones" in data:
        kwargs["zones"] = int(data["zones"])
    if "groups" in data:
        groups = []
        for g in data["groups"]:
            groups.append(
                NodeGroup(
                    name=_require(g, "name", "node group"),
                    count=_require(g, "count", "node group"),
                    capacity=resources_from_dict(_require(g, "capacity", "group")),
                    labels=g.get("labels", {}),
                )
            )
        kwargs["groups"] = tuple(groups)
    with _section("bad cluster spec"):
        return ClusterSpec(**kwargs)


def platform_from_dict(config: Mapping[str, Any]) -> tuple[EvolvePlatform, float]:
    """Wire a platform from a config dict; returns (platform, duration)."""
    with _section("duration"):
        duration = float(config.get("duration", 3600.0))
    if duration <= 0:
        raise ConfigError("duration must be positive")
    with _section("seed"):
        platform_config = PlatformConfig(seed=int(config.get("seed", 0)))
    with _section("platform"):
        platform = EvolvePlatform(
            cluster_spec=cluster_spec_from_dict(config.get("cluster", {})),
            config=platform_config,
            scheduler=config.get("scheduler", "converged"),
            policy=config.get("policy", "adaptive"),
            policy_kwargs=config.get("policy_kwargs"),
            scheduler_kwargs=config.get("scheduler_kwargs"),
        )

    for i, svc in enumerate(config.get("services", [])):
        name = _require(svc, "name", f"services[{i}]")
        with _section(f"service {name!r}"):
            plo = plo_from_dict(svc["plo"]) if "plo" in svc else None
            platform.deploy_microservice(
                name,
                trace=trace_from_dict(
                    _require(svc, "trace", name), platform.rng.stream(f"trace/{name}")
                ),
                demands=demands_from_dict(_require(svc, "demands", name)),
                allocation=resources_from_dict(_require(svc, "allocation", name)),
                plo=plo,
                replicas=int(svc.get("replicas", 1)),
                managed=bool(svc.get("managed", plo is not None)),
                labels=svc.get("labels", {}),
                node_selector=svc.get("node_selector", {}),
            )

    for i, job in enumerate(config.get("bigdata", [])):
        name = _require(job, "name", f"bigdata[{i}]")
        with _section(f"bigdata job {name!r}"):
            stages = [
                Stage(
                    name=_require(s, "name", f"{name} stage"),
                    work_cpu_seconds=_require(s, "work", f"{name} stage"),
                    input_mb=s.get("input_mb", 0.0),
                    deps=tuple(s.get("deps", ())),
                    max_parallelism=s.get("max_parallelism", 64),
                    accel_speedup=s.get("accel_speedup", 1.0),
                )
                for s in _require(job, "stages", name)
            ]
            # A config cannot create buckets: a dataset the store does not
            # hold would only fail the job at its first executor tick.
            dataset = job.get("dataset")
            if dataset is not None and not platform.store.has_bucket(dataset):
                raise ConfigError(f"bigdata job {name!r}: unknown dataset {dataset!r}")
            platform.submit_bigdata(
                name,
                stages=stages,
                allocation=resources_from_dict(_require(job, "allocation", name)),
                executors=int(job.get("executors", 2)),
                dataset=dataset,
                deadline=job.get("deadline"),
                delay=float(job.get("delay", 0.0)),
                accelerator=job.get("accelerator"),
                labels=job.get("labels", {}),
            )

    for i, job in enumerate(config.get("streams", [])):
        name = _require(job, "name", f"streams[{i}]")
        with _section(f"stream {name!r}"):
            from repro.workloads.stream import Operator

            operators = [
                Operator(
                    name=_require(op, "name", f"{name} operator"),
                    cpu_seconds=_require(op, "cpu_seconds", f"{name} operator"),
                    selectivity=op.get("selectivity", 1.0),
                    state_mb_per_eps=op.get("state_mb_per_eps", 0.0),
                )
                for op in _require(job, "operators", name)
            ]
            plo = plo_from_dict(job["plo"]) if "plo" in job else None
            platform.deploy_stream(
                name,
                trace=trace_from_dict(
                    _require(job, "trace", name), platform.rng.stream(f"trace/{name}")
                ),
                operators=operators,
                allocation=resources_from_dict(_require(job, "allocation", name)),
                plo=plo,
                workers=int(job.get("workers", 1)),
                managed=bool(job.get("managed", plo is not None)),
                event_mb=float(job.get("event_mb", 0.01)),
                labels=job.get("labels", {}),
            )

    for i, job in enumerate(config.get("hpc", [])):
        name = _require(job, "name", f"hpc[{i}]")
        with _section(f"hpc job {name!r}"):
            platform.submit_hpc(
                name,
                ranks=int(_require(job, "ranks", name)),
                duration=float(_require(job, "job_duration", name)),
                allocation=resources_from_dict(_require(job, "allocation", name)),
                delay=float(job.get("delay", 0.0)),
                comm_fraction=float(job.get("comm_fraction", 0.2)),
                zone_penalty=float(job.get("zone_penalty", 0.0)),
                checkpoint_interval=job.get("checkpoint_interval"),
                labels=job.get("labels", {}),
            )

    with _section("quotas"):
        for tenant, limit in config.get("quotas", {}).items():
            platform.set_tenant_quota(tenant, resources_from_dict(limit))

    if "chaos" in config:
        chaos = config["chaos"]
        with _section("chaos"):
            platform.enable_chaos(
                mtbf=float(chaos.get("mtbf", 3600.0)),
                repair_time=float(chaos.get("repair_time", 300.0)),
                max_concurrent_failures=int(chaos.get("max_concurrent_failures", 1)),
            )
    return platform, duration


def platform_from_json(path: str) -> tuple[EvolvePlatform, float]:
    """Load a config file and wire the platform."""
    with open(path) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return platform_from_dict(config)
