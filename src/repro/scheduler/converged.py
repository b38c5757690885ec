"""The converged scheduler — one control plane for all three worlds.

Placement policy per class:

* **HPC** — all-or-nothing gang admission (no stranded ranks), balanced
  packing, interference-discounted node choice.
* **Big-data** — executors scored toward nodes holding their dataset's
  blocks (locality bonus from the shared object store).
* **Microservices** — spread away from pressure and noisy neighbours
  (interference penalty).

:class:`SiloedScheduler` is the comparator: the same cluster statically
partitioned into one pool per world, each scheduled independently — the
pre-convergence status quo whose stranded capacity R-F4 measures.
"""

from __future__ import annotations

from repro.cluster.api import ClusterAPI
from repro.cluster.node import Node
from repro.cluster.pod import Pod, WorkloadClass
from repro.scheduler.base import SchedulerBase
from repro.scheduler.gang import GangAdmission
from repro.scheduler.interference import interference_penalty
from repro.scheduler.kube import least_allocated_score, most_allocated_score
from repro.scheduler.preemption import plan_cheapest_single, plan_gang
from repro.sim.engine import Engine
from repro.storage.objectstore import ObjectStore

#: Score bonus of a node that matches a pod's node preference.
PREFERENCE_WEIGHT = 1.0


class ConvergedScheduler(SchedulerBase):
    """Class-aware scheduler over the whole shared cluster.

    Parameters
    ----------
    store:
        Shared object store, used for big-data locality scoring (a pod
        whose dataset has no bucket there gets the plain packing score).
        A big-data pod's locality fraction adds to its packing score as
        it is, and a node matching its preference adds
        :data:`PREFERENCE_WEIGHT`.
    interference_weight:
        Strength of the interference penalty against the packing score.
    preemption:
        Allow evicting strictly-lower-priority pods to place pods (and
        whole gangs) that otherwise cannot fit. Victims re-queue through
        their application's self-healing.
    packing:
        ``"spread"`` (default, kube's LeastAllocated — headroom and
        interference friendly) or ``"consolidate"`` (MostAllocated —
        packs work onto few nodes so idle ones can be parked; the energy
        experiment's knob).
    zone_aware_gangs:
        Try to place each gang entirely inside one zone (fullest-first)
        before letting it span zones — cross-zone links stretch the
        gang's synchronous communication phase.
    """

    policy_name = "converged"

    def __init__(
        self,
        engine: Engine,
        api: ClusterAPI,
        *,
        store: ObjectStore,
        interference_weight: float = 0.5,
        preemption: bool = False,
        packing: str = "spread",
        zone_aware_gangs: bool = True,
    ):
        if packing not in ("spread", "consolidate"):
            raise ValueError(f"unknown packing mode {packing!r}")
        super().__init__(engine, api)
        self.packing = packing
        self.zone_aware_gangs = zone_aware_gangs
        self.single_zone_gangs = 0
        self.store = store
        self.interference_weight = interference_weight
        self.preemption = preemption
        self.gang_admission = GangAdmission()
        self.gangs_admitted = 0
        self.gangs_deferred = 0
        self.preemptions = 0
        # Per-cycle score cache keyed on (node.name, node.generation,
        # pod score inputs). Two score inputs are NOT tracked by the
        # generation counter and rely on being per-cycle invariants:
        # node usage, and object-store replica placement (the
        # locality_fraction read in _locality_bonus). Both can only
        # change between engine events, never inside one scheduling
        # cycle, so entries are valid for the duration of a cycle and
        # the cache is cleared on entry to schedule_cycle. The locality
        # read itself is served from the store's cache, which is keyed
        # on ObjectStore.epoch and so stays exact at any time; a score
        # cached here does not. If store replication is ever triggered
        # mid-cycle (e.g. from a bind), the store epoch must be folded
        # into this cache's key.
        # Bit-identical by construction: a hit returns the float the
        # scorer would have recomputed; tests/verify/test_differential.py
        # compares against a scorer without the cache.
        self._score_cache: dict[tuple, float] = {}
        self.score_cache_hits = 0

    def _apply_plan(self, plan) -> None:
        for victim in plan.victims:
            self.api.delete_pod(victim.name, reason="preempted")
            self.preemptions += 1
        for pod_name, node_name in plan.assignment.items():
            self.api.bind_pod(pod_name, node_name)
            self.binds += 1

    # -- cycle -------------------------------------------------------------------

    def schedule_cycle(self) -> None:
        self._score_cache.clear()
        pending = self.api.pending_pods()
        if self.admission is not None:
            pending = self.admission.admit_cycle(pending)
        gangs: dict[str, list[Pod]] = {}
        singles: list[Pod] = []
        for pod in pending:
            if pod.spec.gang_id is not None:
                gangs.setdefault(pod.spec.gang_id, []).append(pod)
            else:
                singles.append(pod)

        # Gangs first, FIFO by earliest member; deferred gangs do not
        # block later work (backfill).
        for gang_id in sorted(gangs, key=lambda g: min(p.created_at for p in gangs[g])):
            members = gangs[gang_id]
            if not self.api.quota_allows_gang([p.name for p in members]):
                self.gangs_deferred += 1
                self.failures += len(members)
                continue
            assignment = self._gang_assignment(members)
            if assignment is None:
                if self.preemption:
                    plan = plan_gang(self.api.list_nodes(), members)
                    if plan is not None:
                        self._apply_plan(plan)
                        self.gangs_admitted += 1
                        continue
                self.gangs_deferred += 1
                self.failures += len(members)
                continue
            for pod_name, node_name in assignment.items():
                self.api.bind_pod(pod_name, node_name)
                self.binds += 1
            self.gangs_admitted += 1

        for pod in singles:
            if not self.api.quota_allows_bind(pod.name):
                self.failures += 1
                continue
            node = self.select_node(pod)
            if node is None:
                if self.preemption:
                    plan = plan_cheapest_single(self.api.list_nodes(), pod)
                    if plan is not None:
                        self._apply_plan(plan)
                        continue
                self.failures += 1
                continue
            self.api.bind_pod(pod.name, node.name)
            self.binds += 1

        if self.admission is not None:
            self.admission.post_cycle()

    def _gang_assignment(self, members: list[Pod]) -> dict[str, str] | None:
        """Find a gang placement, preferring a single zone.

        Zones are tried fullest-capacity-first; a gang that fits nowhere
        alone falls back to spanning the whole cluster.
        """
        nodes = self.api.list_nodes()
        if self.zone_aware_gangs:
            zones: dict[str, list[Node]] = {}
            for node in nodes:
                zone = node.labels.get("zone")
                if zone is not None:
                    zones.setdefault(zone, []).append(node)
            if len(zones) > 1:
                ordered = sorted(
                    zones.values(),
                    key=lambda zone_nodes: -sum(n.free.cpu for n in zone_nodes),
                )
                for zone_nodes in ordered:
                    assignment = self.gang_admission.find_assignment(
                        members, zone_nodes
                    )
                    if assignment is not None:
                        self.single_zone_gangs += 1
                        return assignment
        return self.gang_admission.find_assignment(members, nodes)

    # -- scoring ---------------------------------------------------------------------

    def _locality_bonus(self, node: Node, pod: Pod) -> float:
        dataset = pod.spec.labels.get("dataset")
        if dataset is None or not self.store.has_bucket(dataset):
            return 0.0
        return self.store.locality_fraction(dataset, node.name)

    def score(self, node: Node, pod: Pod) -> float:
        """Composite placement score; higher is better."""
        if self.packing == "consolidate":
            score = most_allocated_score(node, pod)
        else:
            score = least_allocated_score(node, pod)
        if pod.spec.workload_class == WorkloadClass.BIGDATA:
            score += self._locality_bonus(node, pod)
        if pod.spec.preference_matches(node.labels):
            score += PREFERENCE_WEIGHT
        score -= self.interference_weight * interference_penalty(node, pod)
        return score

    @staticmethod
    def _pod_score_key(pod: Pod) -> tuple:
        """Everything :meth:`score` reads from the pod, as a hashable key.

        Two pending pods with equal keys score identically on any node,
        so replicas of one app share cache entries within a cycle.
        """
        spec = pod.spec
        alloc = pod.allocation
        return (
            spec.workload_class,
            spec.labels.get("dataset"),
            tuple(sorted(spec.node_preference.items())),
            alloc.cpu,
            alloc.memory,
            alloc.disk_bw,
            alloc.net_bw,
        )

    def select_node(self, pod: Pod) -> Node | None:
        feasible = self.feasible_nodes(pod)
        if not feasible:
            return None
        cache = self._score_cache
        pod_key = self._pod_score_key(pod)
        best = None
        best_rank: tuple[float, str] | None = None
        for node in feasible:
            key = (node.name, node.generation, pod_key)
            score = cache.get(key)
            if score is None:
                score = self.score(node, pod)
                cache[key] = score
            else:
                self.score_cache_hits += 1
            rank = (score, node.name)
            if best_rank is None or rank > best_rank:
                best = node
                best_rank = rank
        return best


class SiloedScheduler(SchedulerBase):
    """Statically-partitioned comparator: one node pool per world.

    Parameters
    ----------
    pools:
        Mapping from workload class to the node names it may use. Classes
        absent from the mapping (e.g. SYSTEM) may use any node.
    """

    policy_name = "siloed"

    def __init__(
        self,
        engine: Engine,
        api: ClusterAPI,
        *,
        pools: dict[WorkloadClass, list[str]],
    ):
        super().__init__(engine, api)
        all_nodes = {n.name for n in api.list_nodes()}
        for cls, names in pools.items():
            missing = set(names) - all_nodes
            if missing:
                raise ValueError(f"pool {cls.value!r}: unknown nodes {sorted(missing)}")
        self.pools = {cls: list(names) for cls, names in pools.items()}
        self.gang_admission = GangAdmission()

    def _pool_nodes(self, pod: Pod) -> list[Node]:
        names = self.pools.get(pod.spec.workload_class)
        if names is None:
            return self.api.list_nodes()
        return [self.api.get_node(n) for n in names]

    def schedule_cycle(self) -> None:
        pending = self.api.pending_pods()
        gangs: dict[str, list[Pod]] = {}
        singles: list[Pod] = []
        for pod in pending:
            if pod.spec.gang_id is not None:
                gangs.setdefault(pod.spec.gang_id, []).append(pod)
            else:
                singles.append(pod)

        for gang_id in sorted(gangs, key=lambda g: min(p.created_at for p in gangs[g])):
            members = gangs[gang_id]
            if not self.api.quota_allows_gang([p.name for p in members]):
                self.failures += len(members)
                continue
            nodes = self._pool_nodes(members[0])
            assignment = self.gang_admission.find_assignment(members, nodes)
            if assignment is None:
                self.failures += len(members)
                continue
            for pod_name, node_name in assignment.items():
                self.api.bind_pod(pod_name, node_name)
                self.binds += 1

        for pod in singles:
            if not self.api.quota_allows_bind(pod.name):
                self.failures += 1
                continue
            node = self.select_node(pod)
            if node is None:
                self.failures += 1
                continue
            self.api.bind_pod(pod.name, node.name)
            self.binds += 1

    def select_node(self, pod: Pod) -> Node | None:
        feasible = [
            n
            for n in self._pool_nodes(pod)
            if n.can_fit(pod.allocation) and pod.spec.selector_matches(n.labels)
        ]
        if not feasible:
            return None
        return max(feasible, key=lambda n: (least_allocated_score(n, pod), n.name))
