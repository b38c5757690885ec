"""Simulated Kubernetes-like cluster substrate.

Provides the objects a real control plane would expose — nodes, pods,
resource vectors, an API facade with watch events — backed by the
discrete-event engine instead of real machines. The controller and
scheduler subsystems interact with the cluster only through
:class:`~repro.cluster.api.ClusterAPI`, mirroring how the original system
talks to the Kubernetes API server.
"""

from repro.cluster.resources import RESOURCES, ResourceVector
from repro.cluster.pod import Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.node import Node
from repro.cluster.events import (
    ClusterEvent,
    LeaderDeposed,
    LeaderElected,
    PodEvicted,
    PodFinished,
    PodResized,
    PodScheduled,
    PodStarted,
    PodSubmitted,
)
from repro.cluster.cluster import Cluster, ClusterError, NodeNotFound, PodNotFound
from repro.cluster.api import (
    ActuationError,
    ClusterAPI,
    Lease,
    PartitionError,
    ScopedClusterAPI,
)
from repro.cluster.chaos import (
    ActuationFaultInjector,
    ChaosMonkey,
    ControllerCrashInjector,
    DataLossInjector,
    DegradationInjector,
    ExecutorKillInjector,
    FailureInjector,
    FaultEpisode,
    FaultLog,
    PartitionInjector,
    StragglerInjector,
    ZoneOutageInjector,
)
from repro.cluster.quota import QuotaManager

__all__ = [
    "ActuationError",
    "ControllerCrashInjector",
    "Lease",
    "LeaderDeposed",
    "LeaderElected",
    "NodeNotFound",
    "PartitionError",
    "PartitionInjector",
    "PodNotFound",
    "ScopedClusterAPI",
    "ActuationFaultInjector",
    "ChaosMonkey",
    "DegradationInjector",
    "FailureInjector",
    "FaultEpisode",
    "FaultLog",
    "ZoneOutageInjector",
    "ExecutorKillInjector",
    "StragglerInjector",
    "DataLossInjector",
    "QuotaManager",
    "RESOURCES",
    "ResourceVector",
    "Pod",
    "PodPhase",
    "PodSpec",
    "WorkloadClass",
    "Node",
    "Cluster",
    "ClusterError",
    "ClusterAPI",
    "ClusterEvent",
    "PodSubmitted",
    "PodScheduled",
    "PodStarted",
    "PodFinished",
    "PodEvicted",
    "PodResized",
]
