"""Application driver base: replica management + periodic dynamics tick.

An :class:`Application` owns a set of replica pods, advances its
performance model on a fixed tick, writes measured usage into its pods,
and exposes metrics to the collector. Autoscalers actuate applications
through two verbs only — :meth:`Application.scale_to` (horizontal) and
:meth:`Application.set_target_allocation` (vertical) — mirroring the
Deployment-replicas / pod-resize surface of the real system.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.cluster.api import ActuationError, ClusterAPI
from repro.cluster.pod import TERMINAL_PHASES, Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine, PeriodicHandle


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
    tick_interval:
        Seconds between model updates.
    priority:
        Pod priority for preemption ordering.
    maintain_replicas:
        Self-healing: when pods are lost to preemption or node failure,
        resubmit replacements on the next tick until the desired count is
        restored. Off by default so unit tests observe raw lifecycle;
        the platform enables it for all deployments.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        workload_class: WorkloadClass,
        initial_allocation: ResourceVector,
        initial_replicas: int = 1,
        tick_interval: float = 1.0,
        priority: int = 0,
        labels: Mapping[str, str] | None = None,
        node_selector: Mapping[str, str] | None = None,
        node_preference: Mapping[str, str] | None = None,
        maintain_replicas: bool = False,
    ):
        if initial_replicas < 0:
            raise ValueError("initial_replicas must be ≥ 0")
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        self.name = name
        self.engine = engine
        self.api = api
        self.workload_class = workload_class
        self.target_allocation = initial_allocation
        self.initial_replicas = initial_replicas
        self.tick_interval = tick_interval
        self.priority = priority
        self.labels = dict(labels or {})
        self.node_selector = dict(node_selector or {})
        self.node_preference = dict(node_preference or {})
        self.plo = None  # set by callers that attach an objective
        self.gang_id: str | None = None  # set by gang workloads (HPC)
        self.maintain_replicas = maintain_replicas
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
        self._tick_handle: PeriodicHandle | None = None
        self._last_tick: float | None = None
        self.started = False
        self.finished = False

    # -- MetricsSource protocol ------------------------------------------------

    def metric_prefix(self) -> str:
        return f"app/{self.name}"

    def sample_metrics(self, now: float) -> Mapping[str, float]:
        """Default gauges every app exports; subclasses extend.

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
            "replicas": float(len(self._pods)),
            "running_replicas": float(len(running)),
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
        self._tick_handle = self.engine.every(
            self.tick_interval, self._on_tick, priority=-5
        )

    def stop(self) -> None:
        """Stop ticking and delete all non-terminal pods."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        for pod in self.pods():
            if not pod.terminal:
                self.api.delete_pod(pod.name, reason="app-stopped")
        self._pods.clear()
        self.finished = True

    def _on_tick(self) -> None:
        now = self.engine.now
        dt = now - (self._last_tick if self._last_tick is not None else now)
        self._last_tick = now
        self._prune_terminal_pods()
        if self.maintain_replicas and not self.finished:
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
        retried on a later tick.
        """
        if len(self._pods) >= self._desired_replicas:
            return
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
        return pod

    def pods(self) -> list[Pod]:
        """Every pod kept since the last prune, oldest first.

        The replica list is pruned at the start of each tick and in
        :meth:`scale_to`, so a pod evicted or finished since then is
        still listed, in its terminal phase.
        """
        return list(self._pods)

    def running_pods(self) -> list[Pod]:
        return [p for p in self._pods if p.phase == PodPhase.RUNNING]

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
