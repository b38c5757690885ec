"""The one scheduling cycle against the three cycle bodies it replaced.

``SchedulerBase._run_cycle`` is the only scheduling cycle: kube, siloed
and converged differ in node choice, candidate nodes, gang placement and
``gang_aware``. The reference subclasses below keep the earlier bodies:
the base cycle kube ran (every pod placed on its own), the converged
cycle with its zone-aware ``_gang_assignment``, and the siloed cycle with
its ``_pool_nodes`` and node choice; ``feasible_nodes`` as it was (every
node) serves the first two. Each case builds two clusters from the same
seeded input and drives a reference scheduler and the current one in
lockstep. After every cycle it compares each pod's phase and node, the
scheduler counters the earlier class kept, and, with admission armed,
``AdmissionController.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.pod import ACTIVE_PHASES, Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.quota import QuotaManager
from repro.cluster.resources import ResourceVector
from repro.scheduler.admission import AdmissionController, OverloadConfig
from repro.scheduler.converged import ConvergedScheduler, SiloedScheduler
from repro.scheduler.kube import KubeScheduler, least_allocated_score
from repro.scheduler.preemption import plan_cheapest_single, plan_gang
from repro.sim.engine import Engine
from repro.storage.objectstore import ObjectStore
from repro.storage.placement import spread_blocks
from tests.conftest import NODE_CAPACITY, make_api

# -- the replaced bodies ------------------------------------------------------


def reference_feasible_nodes(self, pod: Pod) -> list[Node]:
    return [
        n
        for n in self.api.list_nodes()
        if n.can_fit(pod.allocation) and pod.spec.selector_matches(n.labels)
    ]


class ReferenceKube(KubeScheduler):
    """Kube on the base cycle it ran: every pending pod placed on its own."""

    feasible_nodes = reference_feasible_nodes

    def schedule_cycle(self) -> None:
        pending = self.api.pending_pods()
        if self.admission is not None:
            pending = self.admission.admit_cycle(pending)
        for pod in pending:
            if not self.api.quota_allows_bind(pod.name):
                self.failures += 1
                continue
            node = self.select_node(pod)
            if node is None:
                self.failures += 1
                continue
            self.api.bind_pod(pod.name, node.name)
            self.binds += 1
        if self.admission is not None:
            self.admission.post_cycle()


class ReferenceConverged(ConvergedScheduler):
    """The converged cycle with its own zone-aware gang placement."""

    feasible_nodes = reference_feasible_nodes

    def _reference_apply_plan(self, plan) -> None:
        for victim in plan.victims:
            self.api.delete_pod(victim.name, reason="preempted")
            self.preemptions += 1
        for pod_name, node_name in plan.assignment.items():
            self.api.bind_pod(pod_name, node_name)
            self.binds += 1

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
                        self._reference_apply_plan(plan)
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
                        self._reference_apply_plan(plan)
                        continue
                self.failures += 1
                continue
            self.api.bind_pod(pod.name, node.name)
            self.binds += 1

        if self.admission is not None:
            self.admission.post_cycle()

    def _gang_assignment(self, members: list[Pod]) -> dict[str, str] | None:
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


class ReferenceSiloed(SiloedScheduler):
    """The siloed cycle with its pool filter and kube's node choice."""

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


#: Counters each earlier class kept, compared after every cycle.
COUNTERS = {
    "kube": ("binds", "failures"),
    "siloed": ("binds", "failures"),
    "converged": (
        "binds",
        "failures",
        "gangs_admitted",
        "gangs_deferred",
        "preemptions",
        "single_zone_gangs",
        "score_cache_hits",
    ),
}

# -- the seeded input -----------------------------------------------------------

NODES = 6
APPS = 8
CLASSES = (
    WorkloadClass.MICROSERVICE,
    WorkloadClass.BIGDATA,
    WorkloadClass.HPC,
    WorkloadClass.SYSTEM,
)
#: Watermarks that arm shedding on this load (the R-T10 bench's shape).
OVERLOAD = OverloadConfig(
    admission=True, high_watermark=0.8, low_watermark=0.65, pending_high=12
)


@dataclass(frozen=True)
class Case:
    scheduler: str
    seed: int = 0
    cycles: int = 150
    zones: int = 0
    zone_aware_gangs: bool = True
    preemption: bool = False
    quotas: bool = False
    selectors: bool = False
    admission: bool = False
    packing: str = "spread"
    #: Chance per cycle that each active pod finishes.
    departure: float = 0.02


CASES = {
    "kube": Case("kube", quotas=True, selectors=True),
    "kube-zones": Case("kube", seed=1, zones=3),
    "kube-admission": Case("kube", seed=2, admission=True, cycles=360, departure=0.01),
    "siloed": Case("siloed", quotas=True, selectors=True),
    "siloed-zones": Case("siloed", seed=10, zones=2),
    "converged": Case("converged", quotas=True, selectors=True),
    "converged-zones": Case("converged", seed=4, zones=3, selectors=True),
    "converged-zones-off": Case("converged", seed=4, zones=3, zone_aware_gangs=False),
    "converged-preemption": Case(
        "converged", seed=5, preemption=True, quotas=True, selectors=True
    ),
    "converged-preemption-zones": Case("converged", seed=6, preemption=True, zones=2),
    "converged-consolidate": Case("converged", seed=7, packing="consolidate", zones=2),
    "converged-admission": Case(
        "converged", seed=8, admission=True, cycles=360, departure=0.01
    ),
    "converged-admission-preemption": Case(
        "converged",
        seed=9,
        admission=True,
        preemption=True,
        quotas=True,
        cycles=360,
        departure=0.01,
    ),
}


class Side:
    """One cluster and its scheduler, built from a case."""

    def __init__(self, case: Case, *, reference: bool):
        self.engine = Engine()
        nodes = []
        for i in range(NODES):
            labels = {}
            if case.zones:
                labels["zone"] = f"z{i % case.zones}"
            if case.selectors and i % 2 == 0:
                labels["disk"] = "ssd"
            nodes.append(Node(f"node-{i}", NODE_CAPACITY, labels=labels))
        self.cluster = Cluster(self.engine, nodes)
        if case.quotas:
            quotas = QuotaManager()
            quotas.set_quota("a", ResourceVector(24.0, 80.0, 900.0, 2500.0))
            quotas.set_quota("b", ResourceVector(10.0, 30.0, 400.0, 900.0))
            self.cluster.quotas = quotas
        self.api = make_api(self.cluster)
        names = sorted(self.cluster.nodes)
        if case.scheduler == "kube":
            cls = ReferenceKube if reference else KubeScheduler
            self.scheduler = cls(self.engine, self.api)
        elif case.scheduler == "siloed":
            cls = ReferenceSiloed if reference else SiloedScheduler
            pools = {
                WorkloadClass.MICROSERVICE: names[0:2],
                WorkloadClass.BIGDATA: names[2:4],
                WorkloadClass.HPC: names[4:6],
            }
            self.scheduler = cls(self.engine, self.api, pools=pools)
        else:
            store = ObjectStore()
            spread_blocks(store, "events", total_mb=2000, block_mb=100, nodes=names[:3])
            spread_blocks(store, "logs", total_mb=600, block_mb=100, nodes=names[4:])
            cls = ReferenceConverged if reference else ConvergedScheduler
            self.scheduler = cls(
                self.engine,
                self.api,
                store=store,
                preemption=case.preemption,
                packing=case.packing,
                zone_aware_gangs=case.zone_aware_gangs,
            )
        self.admission = None
        if case.admission:
            self.admission = AdmissionController(self.engine, self.api, OVERLOAD)
            self.scheduler.admission = self.admission
        self.counters = COUNTERS[case.scheduler]

    def state(self):
        pods = [(p.name, p.phase, p.node_name) for p in self.cluster.pods.values()]
        counters = {name: getattr(self.scheduler, name) for name in self.counters}
        admission = None if self.admission is None else self.admission.stats()
        return pods, counters, admission


def _app(rng, index: int, case: Case) -> PodSpec:
    """One app's pod template: its replicas share every score input."""
    cls = CLASSES[index % len(CLASSES)]
    labels = {}
    if case.quotas and rng.random() < 0.6:
        labels["tenant"] = "ab"[int(rng.integers(2))]
    if cls is WorkloadClass.BIGDATA:
        labels["dataset"] = ("events", "logs", "absent")[int(rng.integers(3))]
    if rng.random() < 0.25:
        labels["shed-class"] = "best-effort"
    selector = {}
    preference = {}
    if case.selectors and rng.random() < 0.25:
        selector["disk"] = "ssd"
    if case.selectors and rng.random() < 0.3:
        preference["disk"] = "ssd"
    if case.zones and rng.random() < 0.3:
        preference["zone"] = "z1"
    return PodSpec(
        name=f"app{index}",
        app=f"app{index}",
        workload_class=cls,
        requests=ResourceVector(
            float(rng.choice([0.5, 1.0, 2.0, 4.0, 6.0])),
            float(rng.choice([1.0, 2.0, 4.0, 8.0])),
            float(rng.choice([10.0, 40.0, 100.0])),
            float(rng.choice([10.0, 50.0, 200.0])),
        ),
        priority=int(rng.choice([-1, 0, 5, 10, 20])),
        labels=labels,
        node_selector=selector,
        node_preference=preference,
    )


def _gang(rng, gang_id: str, case: Case) -> list[PodSpec]:
    ranks = int(rng.integers(2, 7))
    requests = ResourceVector(
        float(rng.choice([3.0, 4.0, 6.0, 8.0])), 8.0, 5.0, 120.0
    )
    labels = {}
    if case.quotas and rng.random() < 0.5:
        labels["tenant"] = "ab"[int(rng.integers(2))]
    selector = {"disk": "ssd"} if case.selectors and rng.random() < 0.2 else {}
    priority = int(rng.choice([0, 10, 20]))
    return [
        PodSpec(
            name=f"{gang_id}-r{r}",
            app=gang_id,
            workload_class=WorkloadClass.HPC,
            requests=requests,
            gang_id=gang_id,
            priority=priority,
            labels=labels,
            node_selector=selector,
        )
        for r in range(ranks)
    ]


def _draw(rng, t: int, case: Case, ref: Side, apps: list, later: dict) -> tuple:
    """One cycle's input, drawn against the reference side's state."""
    submit = list(later.pop(t, ()))
    for k in range(int(rng.poisson(0.8))):
        app = apps[int(rng.integers(len(apps)))]
        replicas = 3 if rng.random() < 0.15 else 1
        submit.extend(
            replace(app, name=f"{app.app}-{t}-{k}-{r}") for r in range(replicas)
        )
    if rng.random() < 0.08:
        ranks = _gang(rng, f"g{t}", case)
        if len(ranks) > 2 and rng.random() < 0.5:
            # Some ranks arrive late, as a re-created rank does: a gang
            # still pending then has different earliest and latest members.
            cut = int(rng.integers(1, len(ranks)))
            later.setdefault(t + int(rng.integers(1, 20)), []).extend(ranks[cut:])
            ranks = ranks[:cut]
        submit.extend(ranks)
    active = sorted(
        p.name for p in ref.cluster.pods.values() if p.phase in ACTIVE_PHASES
    )
    leave = [name for name in active if rng.random() < case.departure]
    running = [
        p.name for p in ref.cluster.pods.values() if p.phase is PodPhase.RUNNING
    ]
    usage = [(name, float(rng.random())) for name in running if rng.random() < 0.3]
    return submit, leave, usage


def _apply(side: Side, submit, leave, usage) -> None:
    for spec in submit:
        side.api.create_pod(spec)
    for name in leave:
        side.api.mark_finished(name)
    for name, fraction in usage:
        pod = side.cluster.pods[name]
        pod.record_usage(pod.allocation * fraction)


def seeded_input(case: Case):
    """``draw(t, ref)``: the case's seeded input for cycle ``t``."""
    rng = np.random.default_rng(case.seed)
    apps = [_app(rng, i, case) for i in range(APPS)]
    later: dict = {}
    return lambda t, ref: _draw(rng, t, case, ref, apps, later)


def run_lockstep(case: Case, observe=None, draw=None) -> Side:
    """Drive both sides through ``case``; return the reference side.

    ``draw(t, ref)`` gives each cycle's input (default: the seeded one),
    and ``observe(ref)`` runs after every cycle's comparison."""
    ref = Side(case, reference=True)
    new = Side(case, reference=False)
    draw = draw or seeded_input(case)
    for t in range(1, case.cycles + 1):
        for side in (ref, new):
            side.engine.run_until(float(t))
        step = draw(t, ref)
        for side in (ref, new):
            _apply(side, *step)
            side.scheduler._cycle()
        assert new.state() == ref.state(), f"cycle {t} diverged"
        if observe is not None:
            observe(ref)
    return ref


def _stranded(ref: Side) -> int:
    """Gangs with some ranks bound and others pending."""
    gangs: dict = {}
    for pod in ref.cluster.pods.values():
        if pod.spec.gang_id is not None:
            gangs.setdefault(pod.spec.gang_id, set()).add(pod.phase)
    return sum(
        1
        for phases in gangs.values()
        if PodPhase.PENDING in phases and phases & set(ACTIVE_PHASES)
    )


def reached(case: Case) -> dict[str, int]:
    """Run ``case`` in lockstep and count the branches its input met."""
    stranded = [0]

    def observe(ref: Side) -> None:
        stranded[0] += _stranded(ref)

    ref = run_lockstep(case, observe)
    sched = ref.scheduler
    counts = {
        "binds": sched.binds,
        "failures": sched.failures,
        "gang_ranks_bound": sum(
            1
            for pod in ref.cluster.pods.values()
            if pod.spec.gang_id is not None and pod.node_name is not None
        ),
        "stranded_gang_cycles": stranded[0],
    }
    for name in COUNTERS[case.scheduler]:
        counts[name] = getattr(sched, name)
    if case.quotas:
        counts["quota_denials"] = ref.cluster.quotas.denials
    if ref.admission is not None:
        stats = ref.admission.stats()
        for key in ("rejected_pending", "evicted_running", "aged_admissions"):
            counts[key] = stats[key]
    return counts


def expected(case: Case) -> list[str]:
    """The branches ``case`` must meet for agreement to mean something."""
    keys = ["binds", "failures", "gang_ranks_bound"]
    if case.scheduler == "kube":
        keys.append("stranded_gang_cycles")
    if case.scheduler == "converged":
        keys += ["gangs_admitted", "gangs_deferred", "score_cache_hits"]
        if case.zones and case.zone_aware_gangs:
            keys.append("single_zone_gangs")
    if case.preemption:
        keys.append("preemptions")
    if case.quotas:
        keys.append("quota_denials")
    if case.admission:
        keys += ["rejected_pending", "evicted_running", "aged_admissions"]
    return keys


@pytest.mark.parametrize("name", sorted(CASES))
def test_cycle_matches_reference(name):
    case = CASES[name]
    counts = reached(case)
    assert all(counts[key] > 0 for key in expected(case)), counts


def _gang_order_input(t: int, ref: Side) -> tuple:
    """Gangs ``a`` (two ranks, a third two cycles late) and ``b`` pend
    behind one filler per node until t=6 frees node-4 and node-5 (the
    siloed HPC pool) for one of them. FIFO by earliest member places
    ``a``; ordering by latest member would place ``b``."""

    def rank(gang: str, r: int) -> PodSpec:
        return PodSpec(
            name=f"{gang}-r{r}",
            app=gang,
            workload_class=WorkloadClass.HPC,
            requests=ResourceVector(6.0, 8.0, 5.0, 120.0),
            gang_id=gang,
        )

    submit: list[PodSpec] = []
    leave: list[str] = []
    if t == 1:
        submit = [
            PodSpec(
                name=f"fill-{i}",
                app="fill",
                workload_class=WorkloadClass.SYSTEM,
                requests=ResourceVector(12.0, 8.0, 10.0, 10.0),
            )
            for i in range(NODES)
        ]
    elif t == 2:
        submit = [rank("a", 0), rank("a", 1)]
    elif t == 3:
        submit = [rank("b", 0), rank("b", 1)]
    elif t == 4:
        submit = [rank("a", 2)]
    elif t == 6:
        leave = [
            pod.name
            for pod in ref.cluster.pods.values()
            if pod.spec.app == "fill" and pod.node_name in ("node-4", "node-5")
        ]
    return submit, leave, []


@pytest.mark.parametrize("scheduler", ["siloed", "converged"])
def test_gang_order_matches_reference(scheduler):
    ref = run_lockstep(Case(scheduler, cycles=8), draw=_gang_order_input)
    phases = {pod.name: pod.phase for pod in ref.cluster.pods.values()}
    assert all(phases[f"a-r{r}"] in ACTIVE_PHASES for r in range(3))
    assert phases["b-r0"] is phases["b-r1"] is PodPhase.PENDING
