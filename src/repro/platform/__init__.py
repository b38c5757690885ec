"""The EVOLVE platform facade: one object wiring every subsystem.

:class:`~repro.platform.evolve.EvolvePlatform` assembles the simulation
engine, cluster, metrics pipeline, a scheduler, an autoscaling policy, and
the PLO monitor, and exposes the three deployment verbs the converged
platform offers its users: deploy a service, submit an analytics job,
submit an HPC job.
"""

from repro.platform.config import (
    ClusterSpec,
    PlatformConfig,
    build_nodes,
)
from repro.platform.evolve import EvolvePlatform, ExperimentResult

__all__ = [
    "ClusterSpec",
    "PlatformConfig",
    "build_nodes",
    "EvolvePlatform",
    "ExperimentResult",
]
