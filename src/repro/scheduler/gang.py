"""All-or-nothing gang admission for HPC jobs.

A gang binds only when a feasible simultaneous assignment exists for every
member; otherwise the whole gang waits. Feasibility is checked with a
first-fit-decreasing trial placement against a copy of current headroom,
so admission never partially commits resources.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.cluster.resources import ResourceVector


#: ``fits_within``'s tolerance: the search places a pod on a node whose
#: headroom is up to this much short of it, in each dimension.
_FIT_TOLERANCE = 1e-9
#: Relative slack for float rounding in the search's headroom arithmetic
#: and in the totals below.
_ROUNDING = 1.0 + 1e-9


def _exceeds_headroom(pods: list[Pod], headroom: dict[str, ResourceVector]) -> bool:
    """Whether ``pods`` need more than all of ``headroom`` together.

    The first-fit search places a pod within :data:`_FIT_TOLERANCE` of a
    node's headroom and clamps what is left at zero, so the pods it
    places on one node add up to at most that headroom plus the tolerance
    once per pod. A gang that needs more than the total plus that slack,
    in any dimension, has no placement, and the search would return None
    only after trying its pods.
    """
    slack = len(pods) * _FIT_TOLERANCE
    need = map(sum, zip(*(pod.allocation for pod in pods)))
    have = map(sum, zip(*headroom.values()))
    return any(n > (h + slack) * _ROUNDING for n, h in zip(need, have))


class GangAdmission:
    """Trial-placement gang admission.

    Stateless helper: give it the gang's pending pods and candidate nodes;
    it returns a full pod→node assignment or None.
    """

    def find_assignment(
        self, pods: list[Pod], nodes: list[Node]
    ) -> dict[str, str] | None:
        """Feasible simultaneous placement for all ``pods``, or None.

        Greedy first-fit-decreasing: largest pods (by dominant share of
        the mean node) first, each onto the feasible node with the most
        remaining headroom (balanced packing keeps nodes usable for the
        elastic workloads sharing the cluster).
        """
        if not pods:
            return {}
        if not nodes:
            return None
        headroom: dict[str, ResourceVector] = {n.name: n.free for n in nodes}
        if _exceeds_headroom(pods, headroom):
            return None
        mean_cap = self._mean_capacity(nodes)
        ordered = sorted(
            pods,
            key=lambda p: p.allocation.dominant_share(mean_cap),
            reverse=True,
        )
        assignment: dict[str, str] = {}
        for pod in ordered:
            best: str | None = None
            best_score = -1.0
            for node in nodes:
                if not pod.spec.selector_matches(node.labels):
                    continue
                free = headroom[node.name]
                if not pod.allocation.fits_within(free):
                    continue
                remaining = (free - pod.allocation).dominant_share(node.allocatable)
                if remaining > best_score:
                    best_score = remaining
                    best = node.name
            if best is None:
                return None
            assignment[pod.name] = best
            headroom[best] = (headroom[best] - pod.allocation).clamp_nonnegative()
        return assignment

    @staticmethod
    def _mean_capacity(nodes: list[Node]) -> ResourceVector:
        total = ResourceVector.zero()
        for node in nodes:
            total = total + node.allocatable
        return total / max(1, len(nodes))
