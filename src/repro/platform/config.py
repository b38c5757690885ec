"""Experiment configuration: cluster shapes and platform knobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.obs.slo import SLOSpec
from repro.scheduler.admission import OverloadConfig

__all__ = [
    "NodeGroup",
    "ClusterSpec",
    "build_nodes",
    "OverloadConfig",
    "SLOSpec",
    "PlatformConfig",
]

#: Per-replica allocation floor of every managed application.
MIN_ALLOCATION = ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5)


@dataclass(frozen=True)
class NodeGroup:
    """A homogeneous slice of a heterogeneous cluster.

    EVOLVE's testbed mixes general-purpose workers with accelerated and
    storage-dense nodes; groups express that: each group contributes
    ``count`` nodes of one shape, labelled so selectors/preferences can
    target them (e.g. ``{"accelerator": "fpga"}``).
    """

    name: str
    count: int
    capacity: ResourceVector
    labels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"group {self.name!r}: count must be ≥ 1")
        if self.capacity.any_negative():
            raise ValueError(f"group {self.name!r}: negative capacity")


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster.

    Defaults approximate a small private-cloud rack: 8 nodes of 16 cores,
    64 GiB, 500 MB/s disk, 1.25 GB/s (10 GbE) network. For heterogeneous
    clusters pass ``groups``, which replaces the homogeneous
    ``node_count`` × ``node_capacity`` shape.
    """

    node_count: int = 8
    node_capacity: ResourceVector = field(
        default_factory=lambda: ResourceVector(
            cpu=16, memory=64, disk_bw=500, net_bw=1250
        )
    )
    system_reserved: ResourceVector = field(
        default_factory=lambda: ResourceVector(cpu=1, memory=2, disk_bw=20, net_bw=50)
    )
    groups: tuple[NodeGroup, ...] = ()
    #: Number of availability zones; nodes are labelled ``zone=z<i>``
    #: round-robin. 1 means a flat (zone-less) cluster.
    zones: int = 1

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be ≥ 1")
        if self.zones < 1:
            raise ValueError("zones must be ≥ 1")


def build_nodes(spec: ClusterSpec, *, name_prefix: str = "node") -> list[Node]:
    """Materialize the spec into node objects."""
    def zone_label(index: int) -> dict[str, str]:
        if spec.zones <= 1:
            return {}
        return {"zone": f"z{index % spec.zones}"}

    if not spec.groups:
        return [
            Node(
                f"{name_prefix}-{i:02d}",
                spec.node_capacity,
                system_reserved=spec.system_reserved,
                labels=zone_label(i),
            )
            for i in range(spec.node_count)
        ]
    nodes: list[Node] = []
    index = 0
    for group in spec.groups:
        for i in range(group.count):
            labels = dict(group.labels)
            labels.update(zone_label(index))
            nodes.append(
                Node(
                    f"{group.name}-{i:02d}",
                    group.capacity,
                    system_reserved=spec.system_reserved,
                    labels=labels,
                )
            )
            index += 1
    return nodes


@dataclass(frozen=True)
class PlatformConfig:
    """Cadences and defaults of the platform's control plane."""

    seed: int = 0
    control_interval: float = 10.0
    #: Per-replica allocation ceiling; the floor is :data:`MIN_ALLOCATION`.
    max_allocation: ResourceVector = field(
        default_factory=lambda: ResourceVector(
            cpu=8, memory=32, disk_bw=400, net_bw=1000
        )
    )
    # -- control-plane fault tolerance (repro.control.ha) -------------------
    #: Control-loop replicas behind lease-based leader election. 1 keeps
    #: the legacy single-controller path (no plane, bit-identical runs).
    controller_replicas: int = 1
    #: Force the replicated plane even with one replica — the crash-visible
    #: baseline of R-T8 (a sole replica that can die and restart).
    controller_ha: bool = False
    #: Seconds between controller-state snapshots; None disables them.
    snapshot_interval: float | None = 60.0
    # -- overload resilience (repro.scheduler.admission) ----------------------
    #: Admission control / load shedding, control-loop backpressure, and
    #: brownout degradation. Every feature defaults off, keeping seeded
    #: runs byte-identical to the pre-resilience platform.
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    # -- data-plane fault tolerance (repro.dataplane) --------------------------
    #: On → the big-data task engine (lineage recompute of lost outputs,
    #: speculative copies of straggler-held tasks, retry budgets), stream
    #: checkpoint/replay, the object-store repair loop and liveness-aware
    #: locality. Off → fluid big-data model, no stream checkpoints, no
    #: storage repair, liveness-blind locality (seed behaviour).
    data_plane: bool = False
    # -- observability (repro.obs) -------------------------------------------
    #: Enable causal decision tracing and the ``ctrl/*`` self-metrics
    #: registry. Observation-only: seeded runs are bit-identical with
    #: telemetry on or off.
    telemetry: bool = False
    #: Declarative SLOs evaluated by :class:`repro.obs.slo.SLOEngine`
    #: after each scrape round. Requires ``telemetry=True`` (the engine
    #: exports ``slo/*`` gauges and the RunReport needs the trace).
    #: Observation-only: seeded runs are bit-identical with SLOs on or
    #: off.
    slos: tuple[SLOSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if not MIN_ALLOCATION.fits_within(self.max_allocation):
            raise ValueError("MIN_ALLOCATION must fit within max_allocation")
        if self.controller_replicas < 1:
            raise ValueError("controller_replicas must be ≥ 1")
        if self.snapshot_interval is not None and self.snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        if self.slos and not self.telemetry:
            raise ValueError("slos require telemetry=True")
