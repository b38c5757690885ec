"""Vanilla Kubernetes-style scheduler: filter + LeastAllocated scoring.

Each pod is placed independently in submission order. Scoring follows the
default kube-scheduler LeastAllocated plugin: prefer the node with the
most free capacity, averaged across resource dimensions. There is no gang
awareness — ranks of an HPC job bind one by one as room appears, and a
partially-placed gang occupies resources while making no progress, which
is precisely the pathology the converged scheduler removes.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.cluster.resources import RESOURCES
from repro.scheduler.base import SchedulerBase


def least_allocated_score(node: Node, pod: Pod) -> float:
    """Higher is better: mean free fraction after placing the pod."""
    free_after = node.free - pod.allocation
    fractions = []
    for name in RESOURCES:
        cap = node.allocatable[name]
        fractions.append(free_after[name] / cap if cap > 0 else 0.0)
    return sum(fractions) / len(fractions)


def most_allocated_score(node: Node, pod: Pod) -> float:
    """Consolidating dual of :func:`least_allocated_score`.

    Prefers the busiest node that still fits, packing work onto few
    machines so the rest can be parked (the energy experiment R-F9).
    """
    return 1.0 - least_allocated_score(node, pod)


class KubeScheduler(SchedulerBase):
    """Default scheduler baseline."""

    policy_name = "k8s-default"
    gang_aware = False

    def select_node(self, pod: Pod) -> Node | None:
        feasible = self.feasible_nodes(pod)
        if not feasible:
            return None
        return max(feasible, key=lambda n: (least_allocated_score(n, pod), n.name))
