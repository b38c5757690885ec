"""Fault injection: the cluster-side fault taxonomy.

Real-cluster evaluations survive more than clean machine loss: nodes slow
down or shed capacity without dying, metric scrapes drop or freeze, and
actuations (resizes, replica changes) transiently fail. This module holds
the cluster-facing faults so the control plane's recovery paths (pod
eviction → self-healing resubmit → rescheduling → controller
re-convergence, plus safe mode / retry / circuit breaking in the control
loop) can be exercised and tested.

Every chaos fault kind is one class. Each keeps its own verbs and also
speaks the one protocol every chaos driver uses:

* ``name`` — the kind's chaos-domain name;
* ``candidates()`` — the viable victims right now, in a deterministic
  order (an empty list means the kind cannot strike);
* ``strike(victim)`` — inject the fault on one candidate and return the
  token that undoes it;
* ``heal(token)`` — undo the strike; tolerates racing an external
  recovery.

The controller-crash and data-plane kinds record FaultLog episodes only
when built with a ``log``; the others always log (into a private
FaultLog unless given one).

The kinds, as ``name`` → class (FaultLog episode kind):

* ``crash`` → :class:`FailureInjector` (``node-crash``)
* ``degrade`` → :class:`DegradationInjector` (``node-degradation``)
* ``zone-outage`` → :class:`ZoneOutageInjector` (``zone-outage``)
* ``controller-crash`` → :class:`ControllerCrashInjector`
  (``controller-crash``)
* ``partition`` → :class:`PartitionInjector` (``controller-partition``)
* ``executor-kill`` → :class:`ExecutorKillInjector` (``executor-kill``)
* ``straggler`` → :class:`StragglerInjector` (``node-straggler``)
* ``data-loss`` → :class:`DataLossInjector` (``data-loss``)

Choosing the victim is the only decision the drivers own: the
:class:`ChaosMonkey` draws uniformly from its seeded RNG on a Poisson
clock, the scenario fuzzer resolves ``candidates()[target % len]`` for
an explicit schedule, and the R-T11 deterministic cycle
(:func:`repro.scenarios.spec.schedule_fault_cycle`) uses a running
strike counter.

:class:`ActuationFaultInjector` (transient resize / pod-creation
failures) is not a chaos kind: it is wired into
:class:`~repro.cluster.api.ClusterAPI`, which consults it on every gated
verb. Metrics-pipeline faults (dropped scrapes, frozen series, outliers)
live in :mod:`repro.metrics.faults`; every injector records its episodes
into a shared :class:`FaultLog` so :mod:`repro.analysis.recovery` can
compute per-episode MTTR and re-convergence time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine


# -- episode bookkeeping ---------------------------------------------------------


@dataclass
class FaultEpisode:
    """One injected fault, from strike to heal.

    ``end`` is None while the fault is still active. Episodes whose end is
    known at injection time (e.g. a scrape blackout window) are recorded
    closed immediately.
    """

    kind: str
    target: str
    start: float
    end: float | None = None
    detail: str = ""
    #: Name of the chaos domain that injected the episode ("" for faults
    #: not raised by a domain, e.g. brownout or actuation-retry records).
    #: The flight recorder's alert timeline attributes episodes by it.
    domain: str = ""
    #: Stable index within the owning FaultLog (-1 until logged); decision
    #: provenance references episodes by this id.
    eid: int = -1

    @property
    def active(self) -> bool:
        return self.end is None

    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start


class FaultLog:
    """Append-only record of fault episodes across all injectors.

    The recovery analysis (:mod:`repro.analysis.recovery`) joins these
    episodes against the controller's metric series to compute MTTR.
    """

    def __init__(self) -> None:
        self.episodes: list[FaultEpisode] = []

    def open(self, kind: str, target: str, start: float, *,
             detail: str = "", domain: str = "") -> FaultEpisode:
        episode = FaultEpisode(kind, target, start, detail=detail,
                               domain=domain)
        episode.eid = len(self.episodes)
        self.episodes.append(episode)
        return episode

    def close(self, episode: FaultEpisode, end: float) -> None:
        if episode.end is None:
            episode.end = end

    def record(self, kind: str, target: str, start: float, end: float, *,
               detail: str = "", domain: str = "") -> FaultEpisode:
        """Record an episode whose end is already known (window faults)."""
        episode = FaultEpisode(kind, target, start, end, detail, domain)
        episode.eid = len(self.episodes)
        self.episodes.append(episode)
        return episode

    def active(self) -> list[FaultEpisode]:
        return [e for e in self.episodes if e.active]

    def active_at(self, now: float) -> list[FaultEpisode]:
        """Episodes overlapping ``now`` (open episodes included)."""
        return [
            e for e in self.episodes
            if e.start <= now and (e.end is None or now < e.end)
        ]

    def by_kind(self, kind: str) -> list[FaultEpisode]:
        return [e for e in self.episodes if e.kind == kind]

    def close_open(self, end: float) -> int:
        """Close every still-open episode at ``end``; returns the count.

        Called when a simulation finishes so episodes that were never
        healed (a zone still dark at the horizon, a brownout still in
        force) get a definite duration instead of silently dropping out
        of — or worse, skewing — the MTTR / re-convergence statistics.
        """
        closed = 0
        for episode in self.episodes:
            if episode.end is None:
                episode.end = end
                closed += 1
        return closed


@dataclass(frozen=True)
class NodeFailure:
    """Record of one injected crash (kept for the legacy reporting path)."""

    time: float
    node_name: str
    evicted_pods: tuple[str, ...]


def _nominal_allocatable(node: Node) -> ResourceVector:
    """The node's healthy allocatable ceiling (capacity − reserved)."""
    return (node.capacity - node.system_reserved).clamp_nonnegative()


# -- node faults ------------------------------------------------------------------


class FailureInjector:
    """Binary node crash/recover; chaos kind ``crash``.

    Failing a node zeroes its allocatable capacity (so schedulers'
    ``can_fit`` rejects it naturally) and evicts its pods with reason
    ``node-failure``. Recovery restores the capacity *delta* removed at
    failure time rather than blindly re-imposing a snapshot: if the
    node's capacity legitimately changed while it was down (an operator
    resize, a degradation healed elsewhere), that change survives the
    recovery, clamped to the node's nominal allocatable ceiling.
    Candidates are the healthy nodes.
    """

    name = "crash"

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()
        self._down: dict[str, tuple[ResourceVector, FaultEpisode]] = {}
        self.failures: list[NodeFailure] = []
        self.recoveries = 0

    def is_failed(self, node_name: str) -> bool:
        return node_name in self._down

    def failed_nodes(self) -> list[str]:
        return sorted(self._down)

    def fail_node(self, node_name: str) -> NodeFailure:
        """Crash a node, evicting everything on it."""
        if self.is_failed(node_name):
            raise ClusterError(f"node {node_name!r} is already failed")
        node = self.cluster.get_node(node_name)
        evicted = tuple(sorted(node.pods))
        for pod_name in evicted:
            self.cluster.evict(pod_name, reason="node-failure")
        episode = self.log.open("node-crash", node_name, self.cluster.now)
        self._down[node_name] = (node.allocatable, episode)
        node.allocatable = ResourceVector.zero()
        node.generation += 1
        failure = NodeFailure(self.cluster.now, node_name, evicted)
        self.failures.append(failure)
        return failure

    def recover_node(self, node_name: str) -> None:
        """Bring a failed node back by restoring the removed capacity."""
        if not self.is_failed(node_name):
            raise ClusterError(f"node {node_name!r} is not failed")
        node = self.cluster.get_node(node_name)
        removed, episode = self._down.pop(node_name)
        node.allocatable = (node.allocatable + removed).elementwise_min(
            _nominal_allocatable(node)
        )
        node.generation += 1
        self.recoveries += 1
        self.log.close(episode, self.cluster.now)

    def healthy_nodes(self) -> list[Node]:
        return [
            n for n in self.cluster.nodes.values() if not self.is_failed(n.name)
        ]

    def candidates(self) -> list[str]:
        return [n.name for n in self.healthy_nodes()]

    def strike(self, node_name: str) -> str:
        self.fail_node(node_name)
        return node_name

    def heal(self, node_name: str) -> None:
        if self.is_failed(node_name):
            self.recover_node(node_name)


#: Fraction of allocatable a chaos ``degrade`` strike leaves on its victim.
DEGRADE_FACTOR = 0.5


class DegradationInjector:
    """Partial node degradation, capacity loss without death; kind ``degrade``.

    Degrading a node by ``factor`` keeps only that fraction of its current
    allocatable. Pods that no longer fit are evicted lowest-priority-first
    with reason ``node-degraded`` — the kubelet-pressure analogue — while
    the rest keep running (and keep their metrics flowing, unlike a
    crash). Restoring adds the removed slice back, clamped to the node's
    nominal ceiling so it composes with crashes and operator resizes.
    Candidates are the nodes that are neither dark nor already degraded;
    a chaos strike degrades by :data:`DEGRADE_FACTOR`.
    """

    name = "degrade"

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()
        self._degraded: dict[str, tuple[ResourceVector, FaultEpisode]] = {}
        self.degradations = 0
        self.restorations = 0
        self.evictions = 0

    def is_degraded(self, node_name: str) -> bool:
        return node_name in self._degraded

    def degraded_nodes(self) -> list[str]:
        return sorted(self._degraded)

    def degrade_node(self, node_name: str, factor: float) -> FaultEpisode:
        """Shrink a node's allocatable to ``factor`` of its current value."""
        if not 0.0 < factor < 1.0:
            raise ValueError("degradation factor must be in (0, 1)")
        if self.is_degraded(node_name):
            raise ClusterError(f"node {node_name!r} is already degraded")
        node = self.cluster.get_node(node_name)
        before = node.allocatable
        node.allocatable = before * factor
        node.generation += 1
        removed = before - node.allocatable
        # Shed load until the survivors fit the reduced capacity.
        while not node.allocated.fits_within(node.allocatable):
            victims = node.pods_by_priority()
            if not victims:
                break
            self.cluster.evict(victims[0].name, reason="node-degraded")
            self.evictions += 1
        episode = self.log.open(
            "node-degradation", node_name, self.cluster.now,
            detail=f"factor={factor:g}",
        )
        self._degraded[node_name] = (removed, episode)
        self.degradations += 1
        return episode

    def restore_node(self, node_name: str) -> None:
        """Return the degraded slice of capacity to the node."""
        if not self.is_degraded(node_name):
            raise ClusterError(f"node {node_name!r} is not degraded")
        node = self.cluster.get_node(node_name)
        removed, episode = self._degraded.pop(node_name)
        node.allocatable = (node.allocatable + removed).elementwise_min(
            _nominal_allocatable(node)
        )
        node.generation += 1
        self.restorations += 1
        self.log.close(episode, self.cluster.now)

    def candidates(self) -> list[str]:
        return [
            n.name
            for n in self.cluster.nodes.values()
            if not self.is_degraded(n.name) and not n.allocatable.is_zero()
        ]

    def strike(self, node_name: str) -> str:
        self.degrade_node(node_name, DEGRADE_FACTOR)
        return node_name

    def heal(self, node_name: str) -> None:
        if self.is_degraded(node_name):
            self.restore_node(node_name)


class ZoneOutageInjector:
    """Take out a whole availability zone at once; kind ``zone-outage``.

    Node crashes are independent by construction; real incidents are not —
    a power feed or top-of-rack switch takes a correlated slice of the
    cluster down together. A strike fails every healthy node carrying
    the same ``zone`` label, recording a *single* ``zone-outage`` episode
    (the unit the containment accounting and MTTR analysis care about)
    with the blast radius — node and displaced-pod counts — in its
    detail. Healing recovers the nodes that are still down; nodes
    recovered externally in the meantime are skipped. Candidates are the
    zones that still have a healthy labelled node.
    """

    name = "zone-outage"

    def __init__(self, injector: FailureInjector, *, log: FaultLog | None = None):
        self.injector = injector
        self.log = log if log is not None else injector.log
        self.outages = 0
        self.pods_displaced = 0

    def candidates(self) -> list[str]:
        return sorted(
            {
                zone
                for node in self.injector.healthy_nodes()
                if (zone := node.labels.get("zone")) is not None
            }
        )

    def strike_zone(self, zone: str) -> tuple:
        """Fail every healthy node in ``zone``; returns the heal token."""
        victims = [
            node.name
            for node in self.injector.healthy_nodes()
            if node.labels.get("zone") == zone
        ]
        if not victims:
            raise ClusterError(f"zone {zone!r} has no healthy nodes")
        episode = self.log.open(
            "zone-outage", zone, self.injector.cluster.now
        )
        displaced = 0
        for name in victims:
            displaced += len(self.injector.fail_node(name).evicted_pods)
        episode.detail = f"nodes={len(victims)} pods_displaced={displaced}"
        self.outages += 1
        self.pods_displaced += displaced
        return (zone, tuple(victims), episode)

    strike = strike_zone

    def heal(self, token: tuple) -> None:
        _zone, victims, episode = token
        for name in victims:
            if self.injector.is_failed(name):
                self.injector.recover_node(name)
        self.log.close(episode, self.injector.cluster.now)


# -- control-plane faults ---------------------------------------------------------


class ControllerCrashInjector:
    """Kill a control-plane replica; kind ``controller-crash``.

    ``plane`` is any object with the
    :class:`~repro.control.ha.ReplicatedControlPlane` surface (``engine``,
    ``leader_index()``, ``alive_indices()``, ``identity(i)``,
    ``is_alive(i)``, ``crash_replica(i)``, ``restart_replica(i)``). The
    candidate is the leader — exercising failover, snapshot restore and
    WAL replay — or, during a leader gap, any live replica.
    """

    name = "controller-crash"

    def __init__(self, plane, *, log: FaultLog | None = None):
        self.plane = plane
        self.log = log
        self.crashes = 0

    def candidates(self) -> list[int]:
        leader = self.plane.leader_index()
        return [leader] if leader is not None else self.plane.alive_indices()

    def strike(self, index: int) -> tuple:
        episode = None
        if self.log is not None:
            episode = self.log.open(
                "controller-crash", self.plane.identity(index),
                self.plane.engine.now,
            )
        self.plane.crash_replica(index)
        self.crashes += 1
        return (index, episode)

    def heal(self, token: tuple) -> None:
        index, episode = token
        if not self.plane.is_alive(index):
            self.plane.restart_replica(index)
        if episode is not None:
            self.log.close(episode, self.plane.engine.now)


class PartitionInjector:
    """Per-controller API-server partitions; kind ``partition``.

    Wired into :class:`~repro.cluster.api.ClusterAPI` (``api.partitions``);
    a partitioned identity's :class:`~repro.cluster.api.ScopedClusterAPI`
    raises :class:`~repro.cluster.api.PartitionError` from every verb.
    Windows may be bounded (``duration``) or open-ended (closed by
    :meth:`heal`). The chaos candidate is the leader of :attr:`plane` —
    the interesting case, since a partitioned leader must stop actuating
    and hand over without split-brain — unless it is already cut off; a
    chaos strike opens an open-ended window.
    """

    name = "partition"

    def __init__(self, *, log: FaultLog | None = None):
        self.log = log if log is not None else FaultLog()
        #: identity → (until-time or None for open-ended, episode)
        self._partitioned: dict[str, tuple[float | None, FaultEpisode]] = {}
        self.partitions_injected = 0
        #: The replicated control plane whose leader chaos strikes target;
        #: the platform sets it when it builds one.
        self.plane = None

    def partition(
        self, identity: str, now: float, duration: float | None = None
    ) -> FaultEpisode:
        """Cut ``identity`` off from the API server.

        With ``duration`` the window closes by itself (episode recorded
        closed immediately); without, it stays open until :meth:`heal`.
        """
        if identity in self._partitioned and self.is_partitioned(identity, now):
            raise ClusterError(f"controller {identity!r} is already partitioned")
        if duration is not None:
            if duration <= 0:
                raise ValueError("partition duration must be positive")
            episode = self.log.record(
                "controller-partition", identity, now, now + duration
            )
            self._partitioned[identity] = (now + duration, episode)
        else:
            episode = self.log.open("controller-partition", identity, now)
            self._partitioned[identity] = (None, episode)
        self.partitions_injected += 1
        return episode

    def is_partitioned(self, identity: str, now: float) -> bool:
        entry = self._partitioned.get(identity)
        if entry is None:
            return False
        until, _episode = entry
        if until is not None and now >= until:
            del self._partitioned[identity]
            return False
        return True

    def heal(self, identity: str, now: float | None = None) -> None:
        """Reconnect ``identity``; closes an open-ended episode.

        ``now`` defaults to the clock of :attr:`plane`.
        """
        if now is None:
            now = self.plane.engine.now
        entry = self._partitioned.pop(identity, None)
        if entry is not None:
            _until, episode = entry
            self.log.close(episode, now)

    def candidates(self) -> list[str]:
        leader = None if self.plane is None else self.plane.leader_index()
        if leader is None:
            return []
        identity = self.plane.identity(leader)
        if self.is_partitioned(identity, self.plane.engine.now):
            return []
        return [identity]

    def strike(self, identity: str) -> str:
        self.partition(identity, self.plane.engine.now)
        return identity


# -- data-plane faults ------------------------------------------------------------


class ExecutorKillInjector:
    """Kill one running executor pod of a data-parallel job; kind ``executor-kill``.

    A much smaller blast radius than a node crash: the node stays up,
    only the pod dies. With data-plane fault tolerance enabled the job
    re-opens exactly the lost in-flight task share; without it, the
    fluid model's global progress is untouched and only the executor
    slot is lost until self-healing resubmits it. Candidates are the
    running big-data pods, sorted by name.
    """

    name = "executor-kill"

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log
        self.kills = 0

    def candidates(self) -> list[str]:
        return sorted(
            pod.name
            for pod in self.cluster.pods.values()
            if pod.phase is PodPhase.RUNNING
            and pod.spec.workload_class is WorkloadClass.BIGDATA
        )

    def strike(self, pod_name: str) -> str:
        self.cluster.evict(pod_name, reason="executor-kill")
        self.kills += 1
        if self.log is not None:
            now = self.cluster.now
            self.log.record("executor-kill", pod_name, now, now,
                            domain=self.name)
        return pod_name

    def heal(self, token: str) -> None:
        """No-op: application self-healing resubmits the replica."""


class StragglerInjector:
    """Slow a node down without killing it; kind ``straggler``.

    Models the sick-but-alive machine (failing disk, thermal throttling,
    noisy neighbour) that motivates speculative execution: pods keep
    their binds and report progress, just slowly. Sets
    :attr:`Node.speed_factor` to ``factor``; only fault-tolerance-aware
    workload models read it, so the kind is inert for default workloads.
    Candidates are the live nodes at full speed.
    """

    name = "straggler"

    def __init__(
        self,
        cluster: Cluster,
        *,
        factor: float = 0.3,
        log: FaultLog | None = None,
    ):
        if not 0.0 < factor < 1.0:
            raise ValueError("straggler factor must be in (0, 1)")
        self.cluster = cluster
        self.factor = factor
        self.log = log
        self.strikes = 0

    def candidates(self) -> list[str]:
        return [
            node.name
            for node in self.cluster.nodes.values()
            if node.speed_factor >= 1.0 and not node.allocatable.is_zero()
        ]

    def strike(self, node_name: str) -> tuple:
        self.cluster.get_node(node_name).speed_factor = self.factor
        self.strikes += 1
        episode = None
        if self.log is not None:
            episode = self.log.open(
                "node-straggler",
                node_name,
                self.cluster.now,
                detail=f"speed_factor={self.factor}",
                domain=self.name,
            )
        return (node_name, episode)

    def heal(self, token: tuple) -> None:
        name, episode = token
        self.cluster.get_node(name).speed_factor = 1.0
        if episode is not None:
            self.log.close(episode, self.cluster.now)


class DataLossInjector:
    """Wipe every object-store replica on one node; kind ``data-loss``.

    The disk dies but the node keeps computing — the failure mode that
    exercises lineage recompute (a completed stage's shuffle output
    vanishes) and the storage repair loop (objects drop below their
    replication target) without any scheduler-visible capacity change.
    Candidates are the data-bearing nodes, sorted.
    """

    name = "data-loss"

    def __init__(self, store, cluster: Cluster, *, log: FaultLog | None = None):
        self.store = store
        self.cluster = cluster
        self.log = log
        self.strikes = 0
        self.replicas_dropped = 0

    def candidates(self) -> list[str]:
        return sorted(self.store.nodes_with_data())

    def strike(self, node_name: str) -> str:
        dropped = self.store.drop_node(node_name)
        self.strikes += 1
        self.replicas_dropped += dropped
        if self.log is not None:
            now = self.cluster.now
            self.log.record(
                "data-loss", node_name, now, now,
                detail=f"replicas_dropped={dropped}", domain=self.name,
            )
        return node_name

    def heal(self, token: str) -> None:
        """No-op: wiped data does not come back; repair re-replicates."""


# -- actuation faults -------------------------------------------------------------


class ActuationFaultInjector:
    """Transient actuation failures (resize / pod-creation verbs).

    Wired into :class:`~repro.cluster.api.ClusterAPI`; when a gated verb
    is attempted the API asks :meth:`should_fail` and raises
    :class:`~repro.cluster.api.ActuationError` on True. Two modes:

    * ``failure_probability`` — each actuation independently fails with
      this probability (flaky kubelet).
    * :meth:`outage` — every actuation inside the window fails (API-server
      brown-out). Outage episodes are recorded in the fault log.
    """

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        *,
        log: FaultLog | None = None,
    ):
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log = log if log is not None else FaultLog()
        self.failure_probability = 0.0
        self._outage_until = 0.0
        self.attempts = 0
        self.injected_failures = 0

    def outage(self, now: float, duration: float) -> FaultEpisode:
        """Fail every actuation for ``duration`` seconds from ``now``."""
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        self._outage_until = max(self._outage_until, now + duration)
        return self.log.record(
            "actuation-outage", "cluster-api", now, now + duration
        )

    def in_outage(self, now: float) -> bool:
        return now < self._outage_until

    def should_fail(self, now: float, verb: str = "") -> bool:
        """One actuation attempt; True means the API must reject it."""
        self.attempts += 1
        if self.in_outage(now):
            self.injected_failures += 1
            return True
        if (
            self.failure_probability > 0.0
            and float(self.rng.random()) < self.failure_probability
        ):
            self.injected_failures += 1
            return True
        return False


# -- random fault scheduling ----------------------------------------------------


def _pick(rng: np.random.Generator, items: list):
    """One of ``items``, drawn uniformly; a single item costs no draw."""
    if len(items) == 1:
        return items[0]
    return items[int(rng.integers(len(items)))]


class ChaosMonkey:
    """Random faults on a Poisson clock, with fixed repair time.

    Parameters
    ----------
    mtbf:
        Cluster-wide mean time between strikes (s).
    repair_time:
        Seconds a fault stays active before the monkey heals it.
    max_concurrent_failures:
        Never keep more than this many faults active at once (keeps soak
        runs from killing the whole cluster).
    domains:
        Fault kinds to draw from (objects with the protocol described in
        this module's docstring); defaults to crash-only against
        ``injector`` (the legacy behaviour). Each strike picks a kind
        uniformly, then a victim uniformly from its candidates; a kind
        with no candidate skips the strike.
    """

    def __init__(
        self,
        engine: Engine,
        injector: FailureInjector,
        rng: np.random.Generator,
        *,
        mtbf: float = 3600.0,
        repair_time: float = 300.0,
        max_concurrent_failures: int = 1,
        domains: list | None = None,
    ):
        if mtbf <= 0 or repair_time <= 0:
            raise ValueError("mtbf and repair_time must be positive")
        if max_concurrent_failures < 1:
            raise ValueError("max_concurrent_failures must be ≥ 1")
        self.engine = engine
        self.injector = injector
        self.rng = rng
        self.mtbf = mtbf
        self.repair_time = repair_time
        self.max_concurrent_failures = max_concurrent_failures
        self.domains = [injector] if domains is None else list(domains)
        if not self.domains:
            raise ValueError("need at least one fault domain")
        self.strikes = 0
        self._active = 0
        self._armed = False

    def start(self) -> None:
        if self._armed:
            raise RuntimeError("chaos monkey already started")
        self._armed = True
        self._arm_next()

    def stop(self) -> None:
        """Stop future strikes; already-scheduled heals still run."""
        self._armed = False

    def active_faults(self) -> int:
        return self._active

    def _arm_next(self) -> None:
        delay = float(self.rng.exponential(self.mtbf))
        self.engine.schedule(max(1.0, delay), self._strike)

    def _strike(self) -> None:
        if not self._armed:
            return
        if self._active < self.max_concurrent_failures:
            kind = _pick(self.rng, self.domains)
            candidates = kind.candidates()
            if candidates:
                token = kind.strike(_pick(self.rng, candidates))
                self.strikes += 1
                self._active += 1
                self.engine.schedule(
                    self.repair_time, lambda: self._heal(kind, token)
                )
        self._arm_next()

    def _heal(self, kind, token) -> None:
        self._active -= 1
        kind.heal(token)
