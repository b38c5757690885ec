"""Application driver base: replica management + periodic dynamics tick.

An :class:`Application` owns a set of replica pods, advances its
performance model on a fixed tick, writes measured usage into its pods,
and exposes metrics to the collector. Autoscalers actuate applications
through two verbs only — :meth:`Application.scale_to` (horizontal) and
:meth:`Application.set_target_allocation` (vertical) — mirroring the
Deployment-replicas / pod-resize surface of the real system.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Mapping

from repro.cluster.api import ActuationError, ClusterAPI
from repro.cluster.pod import TERMINAL_PHASES, Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine, PeriodicHandle

#: Seconds between model updates of every application.
TICK_INTERVAL = 1.0


def require_count(value, what: str) -> None:
    """Raise ``TypeError`` unless ``value`` is an integer and not a bool.

    A count is whatever ``operator.index`` accepts (``int``, numpy
    integers), so a float such as 2.5 fails here instead of where the
    count is first used as one, which for a delayed job is mid-run.
    """
    if not isinstance(value, bool):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


class Application:
    """Base class for all workload drivers.

    Parameters
    ----------
    name:
        Application name; pod names are ``{name}-{index}``.
    engine, api:
        Simulation engine and cluster API.
    workload_class:
        Which world the app belongs to (drives scheduler policy).
    initial_allocation:
        Per-replica resource grant at submission.
    initial_replicas:
        Pods submitted by :meth:`start`.

    The model advances every :data:`TICK_INTERVAL` seconds.
    """

    #: Pod priority for preemption ordering.
    priority = 0

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        workload_class: WorkloadClass,
        initial_allocation: ResourceVector,
        initial_replicas: int = 1,
        labels: Mapping[str, str] | None = None,
        node_selector: Mapping[str, str] | None = None,
        node_preference: Mapping[str, str] | None = None,
    ):
        require_count(initial_replicas, "replica count")
        if initial_replicas < 0:
            raise ValueError("initial_replicas must be ≥ 0")
        self.name = name
        self.engine = engine
        self.api = api
        self.workload_class = workload_class
        self.target_allocation = initial_allocation
        self.initial_replicas = initial_replicas
        self.labels = dict(labels or {})
        self.node_selector = dict(node_selector or {})
        self.node_preference = dict(node_preference or {})
        self.plo = None  # set by callers that attach an objective
        self.gang_id: str | None = None  # set by gang workloads (HPC)
        #: Self-healing: when pods are lost to preemption or node failure,
        #: resubmit replacements on the next tick until the desired count
        #: is restored. Off so unit tests observe the raw lifecycle; the
        #: platform turns it on for every deployment.
        self.maintain_replicas = False
        self._desired_replicas = initial_replicas
        self.replacements = 0
        # Crash-loop backoff for self-healing: repeated replacement rounds
        # within `restart_window` delay the next round exponentially
        # instead of resubmitting hot (CrashLoopBackOff analogue).
        self.restart_backoff_base = 5.0
        self.restart_backoff_cap = 300.0
        self.restart_window = 600.0
        self.restart_round_threshold = 3
        self.crash_loop_backoffs = 0
        self._replacement_rounds: deque[float] = deque(maxlen=32)
        self._resubmit_backoff_until = 0.0
        self._next_index = 0
        # Live pod objects, oldest first. The cluster never replaces or
        # drops a pod it has submitted, so holding the objects is the same
        # as looking their names up on every read.
        self._pods: list[Pod] = []
        # The running pods of ``_pods``, kept until the cluster's phase
        # epoch moves or ``_pods`` changes (which sets the epoch to None).
        # Replaced, never edited: callers may hold an earlier list.
        self._running: list[Pod] = []
        self._running_epoch: int | None = None
        # Phase epoch of the last prune: pods turn terminal only at a
        # phase write, so none has since while the epoch holds.
        self._pruned_epoch: int | None = None
        self._tick_handle: PeriodicHandle | None = None
        self._last_tick: float | None = None
        self.started = False
        self.finished = False

    # -- MetricsSource protocol ------------------------------------------------

    def metric_prefix(self) -> str:
        return f"app/{self.name}"

    def sample_metrics(self, now: float) -> dict[str, float]:
        """Default gauges every app exports, in a new dict subclasses extend.

        Allocation totals accumulate per-dimension scalars in the same
        left-to-right order the vector sum used, so seeded metric streams
        are unchanged while skipping per-pod vector allocations.
        """
        running = self.running_pods()
        a_cpu = a_mem = a_disk = a_net = 0.0
        u_cpu = u_mem = u_disk = u_net = 0.0
        for pod in running:
            alloc = pod.allocation
            a_cpu += alloc.cpu
            a_mem += alloc.memory
            a_disk += alloc.disk_bw
            a_net += alloc.net_bw
            usage = pod.usage
            u_cpu += usage.cpu
            u_mem += usage.memory
            u_disk += usage.disk_bw
            u_net += usage.net_bw
        return {
            "alloc/cpu": a_cpu,
            "alloc/memory": a_mem,
            "alloc/disk_bw": a_disk,
            "alloc/net_bw": a_net,
            "usage/cpu": u_cpu,
            "usage/memory": u_mem,
            "usage/disk_bw": u_disk,
            "usage/net_bw": u_net,
        }

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Submit initial replicas and begin ticking."""
        if self.started:
            raise RuntimeError(f"application {self.name!r} already started")
        self.started = True
        self._last_tick = self.engine.now
        for _ in range(self.initial_replicas):
            self._submit_replica()
        self._tick_handle = self.engine.every(TICK_INTERVAL, self._on_tick, priority=-5)

    def stop(self) -> None:
        """Stop ticking and delete all non-terminal pods."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        for pod in self.pods():
            if not pod.terminal:
                self.api.delete_pod(pod.name, reason="app-stopped")
        self._drop_pods()
        self.finished = True

    def _on_tick(self) -> None:
        now = self.engine.now
        dt = now - self._last_tick
        self._last_tick = now
        if self.api.phase_epoch != self._pruned_epoch:
            self._prune_terminal_pods()
        if (
            self.maintain_replicas
            and not self.finished
            and len(self._pods) < self._desired_replicas
        ):
            self._heal_replicas(now)
        if dt > 0:
            self.tick(dt, now)

    def _heal_replicas(self, now: float) -> None:
        """Resubmit lost replicas, with crash-loop backoff.

        One tick that resubmits (however many pods) counts as one
        *replacement round*. Once ``restart_round_threshold`` rounds land
        inside ``restart_window`` — pods dying as fast as they are
        replaced — the next round is delayed exponentially up to
        ``restart_backoff_cap`` instead of resubmitting immediately.
        Transient actuation faults on the resubmit path are absorbed and
        retried on a later tick. Called only while replicas are missing.
        """
        if now < self._resubmit_backoff_until:
            return
        resubmitted = 0
        try:
            while len(self._pods) < self._desired_replicas:
                self._submit_replica()
                self.replacements += 1
                resubmitted += 1
        except ActuationError:
            pass  # the next tick (or backoff expiry) retries
        if resubmitted == 0:
            return
        self._replacement_rounds.append(now)
        recent = [
            t for t in self._replacement_rounds if now - t <= self.restart_window
        ]
        excess = len(recent) - self.restart_round_threshold
        if excess >= 0:
            backoff = min(
                self.restart_backoff_cap,
                self.restart_backoff_base * (2.0 ** excess),
            )
            self._resubmit_backoff_until = now + backoff
            self.crash_loop_backoffs += 1

    def tick(self, dt: float, now: float) -> None:
        """Advance the performance model by ``dt`` seconds. Override."""
        raise NotImplementedError

    def _prune_terminal_pods(self) -> None:
        """Drop externally-evicted/finished pods from the replica list."""
        self._pods = [pod for pod in self._pods if pod.phase not in TERMINAL_PHASES]
        self._pruned_epoch = self.api.phase_epoch
        self._running_epoch = None

    def _drop_pods(self) -> None:
        """Forget every replica (the app stopped or finished)."""
        self._pods.clear()
        self._running_epoch = None

    def _finish(self, *, succeeded: bool) -> None:
        """Mark each live pod finished, forget the pods and stop ticking."""
        for pod in self.pods():
            if not pod.terminal:
                self.api.mark_finished(pod.name, succeeded=succeeded)
        self._drop_pods()
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self.finished = True

    # -- replica management ----------------------------------------------------------

    def _submit_replica(self) -> Pod:
        spec = PodSpec(
            name=f"{self.name}-{self._next_index}",
            app=self.name,
            workload_class=self.workload_class,
            requests=self.target_allocation,
            gang_id=self.gang_id,
            priority=self.priority,
            labels=self.labels,
            node_selector=self.node_selector,
            node_preference=self.node_preference,
        )
        self._next_index += 1
        pod = self.api.create_pod(spec)
        self._pods.append(pod)
        self._running_epoch = None
        return pod

    def pods(self) -> list[Pod]:
        """Every pod kept since the last prune, oldest first.

        The replica list is pruned at the start of each tick and in
        :meth:`scale_to`, so a pod evicted or finished since then is
        still listed, in its terminal phase.
        """
        return list(self._pods)

    def running_pods(self) -> list[Pod]:
        """The running replicas, oldest first.

        The same list object is returned until a pod changes phase or
        the replica list changes; callers must not modify it.
        """
        epoch = self.api.phase_epoch
        if epoch != self._running_epoch:
            self._running = [p for p in self._pods if p.phase == PodPhase.RUNNING]
            self._running_epoch = epoch
        return self._running

    @property
    def replica_count(self) -> int:
        """Desired replica count (live pods, running or pending)."""
        return len(self._pods)

    def scale_to(self, replicas: int) -> None:
        """Horizontal scaling verb: grow by submitting, shrink newest-first."""
        if replicas < 0:
            raise ValueError("replicas must be ≥ 0")
        self._desired_replicas = replicas
        self._prune_terminal_pods()
        while len(self._pods) < replicas:
            self._submit_replica()
        while len(self._pods) > replicas:
            victim = self._pods.pop()
            self._running_epoch = None
            if not victim.terminal:
                self.api.delete_pod(victim.name, reason="scaled-down")

    def set_target_allocation(self, allocation: ResourceVector) -> int:
        """Vertical scaling verb: resize every live pod toward ``allocation``.

        New replicas will be submitted with this allocation. Returns the
        number of pods whose resize was accepted by the cluster.
        """
        if allocation.any_negative():
            raise ValueError("allocation must be non-negative")
        self.target_allocation = allocation
        accepted = 0
        for pod in self.pods():
            if pod.active and self.api.patch_pod_allocation(pod.name, allocation):
                accepted += 1
        return accepted

    def current_allocation(self) -> ResourceVector:
        """Allocation of one running replica (they converge to the target).

        Falls back to the target when nothing is running yet.
        """
        running = self.running_pods()
        if not running:
            return self.target_allocation
        return running[0].allocation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name!r}, replicas={self.replica_count}, "
            f"class={self.workload_class.value})"
        )
