"""The rewritten invariant checks against the bodies they replaced.

``repro.verify.invariants`` audits every cycle, so its hot loops read
state through float locals, first-holder dicts and list comprehensions
instead of per-pod vectors, holder lists and generators. This module
keeps the previous ``check`` bodies of the five rewritten invariants,
and the previous ``_StageTasks.useful_work``/``spec_inflight``, as the
reference. While :func:`_shadow` is installed, every call of a rewritten
check also runs its reference on a copy of the invariant's state and
asserts the same detail strings in the same order and the same state
afterwards; every data-plane check also compares each FT job's ledger
with the reference ledger by ``repr``, so a float that differs in its
last bit, or an int in place of a float, fails.

The shadow runs every planted corruption in ``test_invariants.py``, one
state with several breaches at once, and every cycle boundary of fuzz
episodes with fault-tolerant jobs, gangs and load shedding. The module
also checks that the checker is observation-only on chaos and FT
episodes.
"""

from __future__ import annotations

import copy
import inspect
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.cluster.pod import Pod, PodPhase
from repro.cluster.resources import ResourceVector
from repro.dataplane import STAGE_MAX_ATTEMPTS
from repro.verify import fuzzer
from repro.verify.invariants import (
    _TOLERANCE,
    CheckContext,
    DataPlaneConservation,
    GangAtomicity,
    NoDoubleBind,
    ResourceConservation,
    ShedConservation,
)
from tests.verify import test_invariants as planted

# -- the reference: check bodies before the allocation-free rewrite -----------


def ref_useful_work(rt):
    return sum(t.work if t.done else t.work - t.work_left for t in rt.tasks)


def ref_spec_inflight(rt):
    return sum(t.spec_progress() for t in rt.tasks if not t.done)


def ref_ft_accounting(job):
    if not job.ft:
        return None
    useful = sum(ref_useful_work(rt) for rt in job._runtime.values())
    spec_inflight = sum(ref_spec_inflight(rt) for rt in job._runtime.values())
    return {
        "retired": job.ft_retired_work,
        "useful": useful,
        "spec_inflight": spec_inflight,
        "wasted": job.ft_wasted_work,
        "reopened": job.ft_reopened_work,
    }


def ref_resource_conservation(self, ctx):
    out: list[str] = []
    for node in ctx.cluster.nodes.values():
        total = ResourceVector.zero()
        for pod in node.pods.values():
            total = total + pod.allocation
            if not pod.active:
                out.append(
                    f"node {node.name}: pod {pod.name} holds resources "
                    f"in phase {pod.phase.value}"
                )
        if not total.approx_equal(node.allocated, tolerance=_TOLERANCE):
            out.append(
                f"node {node.name}: allocation drift (tracked "
                f"{node.allocated!r}, actual {total!r})"
            )
        if not node.allocated.fits_within(
            node.allocatable, tolerance=_TOLERANCE
        ):
            out.append(
                f"node {node.name}: over-allocated (allocated "
                f"{node.allocated!r}, allocatable {node.allocatable!r})"
            )
        if node.allocated.any_negative():
            out.append(
                f"node {node.name}: negative allocation {node.allocated!r}"
            )
    return out


def ref_no_double_bind(self, ctx):
    out: list[str] = []
    holders: dict[str, list[str]] = {}
    for node in ctx.cluster.nodes.values():
        for pod_name in node.pods:
            holders.setdefault(pod_name, []).append(node.name)
    for pod_name, nodes in holders.items():
        if len(nodes) > 1:
            out.append(
                f"pod {pod_name} bound to {len(nodes)} nodes: "
                f"{sorted(nodes)}"
            )
    for pod in ctx.cluster.pods.values():
        held = holders.get(pod.name, ())
        if pod.active:
            if pod.node_name is None:
                out.append(f"active pod {pod.name} has no node")
            elif list(held) != [pod.node_name]:
                out.append(
                    f"pod {pod.name} records node {pod.node_name} but is "
                    f"held by {sorted(held)}"
                )
        elif held:
            out.append(
                f"{pod.phase.value} pod {pod.name} still holds node "
                f"resources on {sorted(held)}"
            )
    for pod in ctx.cluster.pending_pods():
        if pod.phase is not PodPhase.PENDING:
            out.append(
                f"non-pending pod {pod.name} ({pod.phase.value}) in the "
                "pending queue"
            )
    return out


def ref_gang_atomicity(self, ctx):
    out: list[str] = []
    gangs: dict[str, list] = {}
    for pod in ctx.cluster.pods.values():
        gang_id = pod.spec.gang_id
        if gang_id is None or pod.terminal:
            continue
        gangs.setdefault(gang_id, []).append(pod)
    for gang_id, members in gangs.items():
        bound = sum(1 for p in members if p.active)
        pending = sum(1 for p in members if p.phase is PodPhase.PENDING)
        size = max(self._size.get(gang_id, 0), bound + pending)
        self._size[gang_id] = size
        if bound and pending:
            if gang_id not in self._degraded:
                out.append(
                    f"gang {gang_id} partially scheduled: {bound} bound, "
                    f"{pending} pending, with no degrading fault"
                )
        elif bound and not pending and bound >= size:
            self._degraded.discard(gang_id)
    # Gangs with no live members left need no bookkeeping anymore.
    self._degraded &= set(gangs)
    for gone in [g for g in self._size if g not in gangs]:
        del self._size[gone]
    return out


def ref_shed_conservation(self, ctx):
    out: list[str] = []
    for name in self._shed:
        pod = ctx.cluster.pods.get(name)
        if pod is not None and not pod.terminal:
            out.append(
                f"shed pod {name} resurrected in phase {pod.phase.value}"
            )
    for pod in ctx.cluster.pending_pods():
        if pod.name in self._shed:
            out.append(f"shed pod {pod.name} back in the pending queue")
    for node in ctx.cluster.nodes.values():
        for pod_name in node.pods:
            if pod_name in self._shed:
                out.append(
                    f"shed pod {pod_name} still holds resources on "
                    f"node {node.name}"
                )
    admission = getattr(ctx.scheduler, "admission", None)
    if admission is not None:
        if admission.shed_total != self._observed:
            out.append(
                f"admission ledger counts {admission.shed_total} sheds "
                f"but the cluster published {self._observed} load-shed "
                "evictions"
            )
        by_class = sum(admission.shed_by_class.values())
        if by_class != admission.shed_total:
            out.append(
                f"per-class shed tallies sum to {by_class}, not "
                f"shed_total {admission.shed_total}"
            )
        split = admission.rejected_pending + admission.evicted_running
        if split != admission.shed_total:
            out.append(
                f"shed split {admission.rejected_pending} rejected + "
                f"{admission.evicted_running} evicted != shed_total "
                f"{admission.shed_total}"
            )
    elif self._observed:
        out.append(
            f"{self._observed} load-shed evictions published with no "
            "admission controller attached"
        )
    return out


def ref_data_plane_conservation(self, ctx):
    out: list[str] = []
    apps = ctx.apps or {}
    for app in apps.values():
        accounting = getattr(app, "ft_accounting", None)
        # The one edit to the old body: the ledger comes from the old
        # useful_work/spec_inflight, not from the rewritten ones.
        ledger = ref_ft_accounting(app) if callable(accounting) else None
        if ledger is not None:
            balance = (
                ledger["useful"]
                + ledger["spec_inflight"]
                + ledger["wasted"]
                + ledger["reopened"]
            )
            tol = _TOLERANCE * max(1.0, ledger["retired"])
            if abs(ledger["retired"] - balance) > tol:
                out.append(
                    f"job {app.name}: retired {ledger['retired']:.6f} != "
                    f"useful {ledger['useful']:.6f} + spec "
                    f"{ledger['spec_inflight']:.6f} + wasted "
                    f"{ledger['wasted']:.6f} + reopened "
                    f"{ledger['reopened']:.6f}"
                )
            total_work = sum(s.work_cpu_seconds for s in app.stages)
            if ledger["useful"] > total_work * (1 + _TOLERANCE) + _TOLERANCE:
                out.append(
                    f"job {app.name}: useful work {ledger['useful']:.6f} "
                    f"exceeds total stage work {total_work:.6f}"
                )
            for stage in app.stages:
                rt = app._runtime[stage.name]
                if rt.attempts > STAGE_MAX_ATTEMPTS and not app.failed:
                    out.append(
                        f"job {app.name}: stage {stage.name} at "
                        f"{rt.attempts} attempts (budget "
                        f"{STAGE_MAX_ATTEMPTS}) without quarantine"
                    )
                mirrored = sum(t.work_left for t in rt.tasks if not t.done)
                if abs(stage.remaining_work - mirrored) > _TOLERANCE * max(
                    1.0, stage.work_cpu_seconds
                ):
                    out.append(
                        f"job {app.name}: stage {stage.name} fluid counter "
                        f"{stage.remaining_work:.6f} != task-state sum "
                        f"{mirrored:.6f}"
                    )
        arrived = getattr(app, "total_arrived", None)
        if arrived is not None:
            processed = app.total_processed
            lag = app.lag_events
            tol = _TOLERANCE * max(1.0, arrived)
            if abs(arrived - (processed + lag)) > tol:
                out.append(
                    f"stream {app.name}: arrived {arrived:.6f} != "
                    f"processed {processed:.6f} + lag {lag:.6f}"
                )
    repair = ctx.repair
    if repair is not None:
        if abs(repair.repaired_mb - repair.repair_traffic_mb) > _TOLERANCE:
            out.append(
                f"repair ledger: repaired {repair.repaired_mb:.6f} MB != "
                f"traffic charged {repair.repair_traffic_mb:.6f} MB"
            )
    return out


REFERENCE = {
    ResourceConservation: ref_resource_conservation,
    NoDoubleBind: ref_no_double_bind,
    GangAtomicity: ref_gang_atomicity,
    ShedConservation: ref_shed_conservation,
    DataPlaneConservation: ref_data_plane_conservation,
}

# -- the shadow ----------------------------------------------------------------


def _state(invariant) -> dict:
    """An invariant's own bookkeeping (subscriptions excluded)."""
    return {k: v for k, v in vars(invariant).items() if k != "_unsubscribe"}


def _twin(invariant):
    """A copy whose bookkeeping containers the reference may mutate."""
    twin = copy.copy(invariant)
    for key, value in _state(invariant).items():
        setattr(twin, key, copy.copy(value))
    return twin


def _assert_ledgers_match(ctx) -> None:
    for app in (ctx.apps or {}).values():
        if callable(getattr(app, "ft_accounting", None)):
            assert repr(app.ft_accounting()) == repr(ref_ft_accounting(app))


def _shadowed(rewritten, reference, seen: Counter):
    def check(self, ctx):
        twin = _twin(self)
        details = list(rewritten(self, ctx))
        assert details == list(reference(twin, ctx))
        assert _state(self) == _state(twin)
        if isinstance(self, DataPlaneConservation):
            _assert_ledgers_match(ctx)
        seen[self.name] += 1
        seen["details"] += len(details)
        return details

    return check


def _shadow(monkeypatch) -> Counter:
    """Make every rewritten check assert agreement with its reference;
    returns a live count of compared checks per invariant and of the
    details they agreed on."""
    seen: Counter = Counter()
    for cls, reference in REFERENCE.items():
        monkeypatch.setattr(cls, "check", _shadowed(cls.check, reference, seen))
    return seen


# -- planted corruptions ---------------------------------------------------------

#: Test classes of test_invariants.py whose every test audits a rewritten
#: invariant at least once.
_REWRITTEN_TESTS = {
    "TestResourceConservation",
    "TestNoDoubleBind",
    "TestGangAtomicity",
    "TestShedConservation",
    "TestDataPlaneConservation",
}


def _planted_tests():
    for class_name, cls in sorted(vars(planted).items()):
        if not (class_name.startswith("Test") and inspect.isclass(cls)):
            continue
        for name in sorted(vars(cls)):
            if name.startswith("test_"):
                yield pytest.param(cls, name, id=f"{class_name}::{name}")


@pytest.mark.parametrize("cls, name", list(_planted_tests()))
def test_planted_corruption_matches_reference(cls, name, monkeypatch, request):
    seen = _shadow(monkeypatch)
    method = getattr(cls(), name)
    kwargs = {
        arg: request.getfixturevalue(arg)
        for arg in inspect.signature(method).parameters
    }
    method(**kwargs)
    if cls.__name__ in _REWRITTEN_TESTS:
        assert seen, "the planted test audited no rewritten invariant"


def test_several_breaches_at_once(engine, cluster, api, monkeypatch):
    """Every rewritten invariant finds two or more breaches in one state,
    and the rewrites report them exactly as the reference does."""
    from repro.cluster.chaos import FaultLog
    from repro.scheduler.admission import AdmissionController, OverloadConfig
    from repro.storage.objectstore import ObjectStore
    from repro.storage.repair import StorageRepairService
    from repro.workloads.bigdata import BigDataJob, Stage

    alloc = ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50)
    job = BigDataJob(
        "job", engine, api,
        stages=[Stage("map", 200.0), Stage("reduce", 80.0, deps=("map",))],
        initial_allocation=alloc, initial_executors=2,
        ft=True,
    )
    job.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(20.0)
    admission = AdmissionController(
        engine, api, OverloadConfig(admission=True)
    )
    repair = StorageRepairService(engine, ObjectStore(), api, log=FaultLog())
    invariants = [cls() for cls in REFERENCE]
    ctx = CheckContext(
        engine,
        cluster,
        scheduler=SimpleNamespace(admission=admission),
        apps={"job": job},
        repair=repair,
    )
    for invariant in invariants:
        invariant.bind(ctx)

    def submit(name, gang_id=None):
        return cluster.submit(planted._spec(name, gang_id=gang_id))

    # Two pods held twice, found in the opposite order of their second
    # holders: the report must follow the first-holder scan.
    for name in ("p1", "p2"):
        submit(name)
        cluster.bind(name, "node-0")
    cluster.get_node("node-1").bind(cluster.get_pod("p2"))
    cluster.get_node("node-2").bind(cluster.get_pod("p1"))
    submit("moved")
    cluster.bind("moved", "node-1")
    cluster.get_pod("moved").node_name = "node-2"
    submit("lost")
    cluster.bind("lost", "node-2")
    cluster.get_pod("lost").node_name = None
    submit("done")
    cluster.bind("done", "node-1")
    cluster.get_pod("done").phase = PodPhase.SUCCEEDED
    submit("queued").phase = PodPhase.RUNNING
    # Node accounting: drift on node-0, over-allocation and a negative
    # dimension on node-2.
    node0 = cluster.get_node("node-0")
    node0._allocated = node0._allocated + ResourceVector(cpu=0.5)
    node2 = cluster.get_node("node-2")
    node2._allocated = ResourceVector(cpu=-1, memory=999, disk_bw=0, net_bw=0)
    # Two torn gangs.
    for gang in ("g1", "g2"):
        for rank in range(2):
            submit(f"{gang}-{rank}", gang_id=gang)
        cluster.bind(f"{gang}-0", "node-1")
    # Shed pods that came back, and a ledger that balances nowhere.
    for name in ("s1", "s2"):
        submit(name)
        cluster.bind(name, "node-1")
        cluster.evict(name, reason="load-shed")
    cluster.get_pod("s1").phase = PodPhase.RUNNING
    cluster._pending["s2"] = cluster.get_pod("s2")
    cluster.get_node("node-0").bind(cluster.get_pod("s2"))
    admission.shed_total = 3
    admission.shed_by_class["batch"] = 1
    admission.rejected_pending = 1
    # Data plane: unbalanced ledger, an exhausted retry budget, a fluid
    # counter off its tasks, and repair traffic that never moved.
    job.ft_retired_work += 7.0
    job._runtime["map"].attempts = STAGE_MAX_ATTEMPTS + 1
    job.stages[0].remaining_work += 5.0
    repair.repaired_mb += 4.0

    seen = _shadow(monkeypatch)
    found = {inv.name: list(inv.check(ctx)) for inv in invariants}
    assert seen["details"] == sum(len(d) for d in found.values())
    for name, details in found.items():
        assert len(details) >= 2, (name, details)
    double = [d for d in found["no-double-bind"] if "nodes:" in d]
    assert double == [
        "pod p1 bound to 2 nodes: ['node-0', 'node-2']",
        "pod p2 bound to 2 nodes: ['node-0', 'node-1']",
    ]
    for invariant in invariants:
        invariant.unbind()


# -- fuzz episodes ---------------------------------------------------------------

#: Seed-7 fuzz episodes: 7 runs three FT big-data jobs under data-loss
#: chaos; 9 runs an HPC gang with FT and overload armed; 109 sheds load
#: (two batch pods) while FT big data and three HPC gangs run.
_EPISODES = (7, 9, 109)


@pytest.mark.parametrize("index", _EPISODES)
def test_every_cycle_of_fuzz_episode_matches_reference(index, monkeypatch):
    seen = _shadow(monkeypatch)
    platforms = []
    spec = fuzzer.generate_scenario(7, index)
    result = fuzzer.run_episode(spec, inject=platforms.append)
    assert result.ok, result.violations
    for invariant in REFERENCE:
        assert seen[invariant.name] == result.checks_run
    platform = platforms[0]
    kinds = {type(app).__name__ for app in platform.apps.values()}
    if index in (7, 109):
        assert spec.ft and "BigDataJob" in kinds
    if index in (9, 109):
        assert "HPCJob" in kinds
    if index == 109:
        assert platform.scheduler.admission.shed_total > 0


@pytest.mark.parametrize("index", (5, 7, 10))
def test_checker_is_observation_only(index):
    """Chaos and FT episodes run the same with and without the audit."""
    spec = fuzzer.generate_scenario(7, index)
    assert spec.ft and spec.chaos
    bare = fuzzer.run_episode(spec, invariants=[], collect_fingerprint=True)
    audited = fuzzer.run_episode(spec, collect_fingerprint=True)
    assert audited.ok and audited.checks_run > 0
    assert audited.events_executed == bare.events_executed
    assert audited.fingerprint == bare.fingerprint


def test_pod_active_matches_the_phase_set():
    phases = frozenset({PodPhase.SCHEDULED, PodPhase.RUNNING})
    pod = Pod(planted._spec("a"), created_at=0.0)
    for phase in PodPhase:
        pod.phase = phase
        assert pod.active is (phase in phases)
