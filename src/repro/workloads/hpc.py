"""Rigid gang-scheduled HPC jobs (MPI-like).

An HPC job consists of a fixed number of ranks that must all run
simultaneously (gang semantics) and synchronize continuously: the gang
advances at the pace of its *slowest* rank, so a single under-provisioned
or unstarted rank stalls the whole job. This rigidity is exactly what
traditional batch queues serve and what a converged scheduler must respect
when co-locating HPC with elastic workloads.
"""

from __future__ import annotations

from typing import Mapping

from repro.cluster.api import ClusterAPI
from repro.cluster.pod import Pod, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.workloads.base import Application


class HPCJob(Application):
    """A tightly-coupled job of ``ranks`` co-scheduled pods.

    Parameters
    ----------
    ranks:
        Number of pods in the gang (fixed; HPC jobs are not elastic).
    duration:
        Nominal runtime (s) when every rank runs at full allocation.
    allocation:
        Per-rank resource grant. CPU and network scale the synchronous
        compute/communication phases: a rank granted half its nominal CPU
        runs at half speed and drags the gang with it.
    comm_fraction:
        Fraction of each iteration spent in communication; weights how
        much a network squeeze (vs a CPU squeeze) slows the gang.
    checkpoint_interval:
        Nominal seconds of progress between checkpoints. Losing any rank
        (preemption, node failure) rolls the whole job back to its last
        checkpoint; ``None`` means no checkpointing — a rank loss restarts
        the job from zero, the cost the checkpointing ablation measures.
    zone_penalty:
        Relative communication slowdown per *additional* zone the gang
        spans (cross-zone links are slower than in-rack ones). 0 disables
        topology sensitivity; a gang spread over z zones has its
        communication phase stretched by ``1 + zone_penalty × (z − 1)``.
    """

    priority = 20

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        ranks: int,
        duration: float,
        allocation: ResourceVector,
        comm_fraction: float = 0.2,
        zone_penalty: float = 0.0,
        checkpoint_interval: float | None = None,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ):
        if ranks < 1:
            raise ValueError("ranks must be ≥ 1")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= comm_fraction < 1:
            raise ValueError("comm_fraction must be in [0, 1)")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if zone_penalty < 0:
            raise ValueError("zone_penalty must be non-negative")
        super().__init__(
            name,
            engine,
            api,
            workload_class=WorkloadClass.HPC,
            initial_allocation=allocation,
            initial_replicas=ranks,
            labels=labels,
            **kwargs,
        )
        self.gang_id = name
        self.ranks = ranks
        self.duration = duration
        self.nominal_allocation = allocation
        self.comm_fraction = comm_fraction
        self.zone_penalty = zone_penalty
        self.checkpoint_interval = checkpoint_interval
        self.progress = 0.0
        self.last_checkpoint = 0.0
        self.rollbacks = 0
        self._prev_ranks: set[Pod] = set()
        self.submitted_at: float | None = None
        self.gang_started_at: float | None = None
        self.completed_at: float | None = None
        self.current_rate = 0.0

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        self.submitted_at = self.engine.now
        super().start()

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def wait_time(self) -> float | None:
        """Queue wait: submission until the whole gang is running."""
        if self.gang_started_at is None or self.submitted_at is None:
            return None
        return self.gang_started_at - self.submitted_at

    def makespan(self) -> float | None:
        if self.completed_at is None or self.submitted_at is None:
            return None
        return self.completed_at - self.submitted_at

    # -- dynamics ------------------------------------------------------------------

    def _rank_speed(
        self, allocation: ResourceVector, *, comm_stretch: float = 1.0
    ) -> float:
        """Relative speed of one rank under ``allocation`` (1.0 = nominal).

        ``comm_stretch`` ≥ 1 inflates the communication phase (topology
        penalty for gangs spanning multiple zones).
        """
        nominal = self.nominal_allocation
        cpu_speed = (
            allocation.cpu / nominal.cpu if nominal.cpu > 0 else 1.0
        )
        net_speed = (
            allocation.net_bw / nominal.net_bw if nominal.net_bw > 0 else 1.0
        )
        cpu_speed = min(1.0, cpu_speed)
        net_speed = min(1.0, net_speed)
        # Compute and communication phases alternate; total iteration time
        # is the weighted sum of slowed-down phases.
        compute = (1 - self.comm_fraction) / max(cpu_speed, 1e-9)
        comm = self.comm_fraction * comm_stretch / max(net_speed, 1e-9)
        return 1.0 / (compute + comm)

    def _comm_stretch(self, running) -> float:
        """Topology factor from the zones the gang currently spans."""
        if self.zone_penalty <= 0:
            return 1.0
        zones = set()
        for pod in running:
            if pod.node_name is not None:
                node = self.api.get_node(pod.node_name)
                zones.add(node.labels.get("zone", ""))
        return 1.0 + self.zone_penalty * max(0, len(zones) - 1)

    def _detect_rank_loss(self) -> None:
        """Roll back to the last checkpoint when a rank disappeared."""
        current = set(self._pods)
        lost = self._prev_ranks - current
        self._prev_ranks = current
        if not lost or self.progress <= 0.0:
            return
        restore = self.last_checkpoint if self.checkpoint_interval else 0.0
        if restore < self.progress:
            self.progress = restore
            self.rollbacks += 1

    def tick(self, dt: float, now: float) -> None:
        """Advance the gang by ``dt``, writing each rank's usage directly.

        Ranks share one allocation object unless one was resized, so a
        rank's speed and usage are computed again only where the object
        changes along the rank list, and ranks on one object share one
        usage vector. A usage is ``min(allocation, want)`` clamped at 0,
        the vector ``Pod.record_usage`` stored. ``b if b < a else a`` and
        ``b if b > a else a`` stand for ``min(a, b)`` and ``max(a, b)``:
        they return the builtins' operand, so ties, signed zeros and NaN
        give the same floats.
        """
        if self.done:
            return
        self._detect_rank_loss()
        running = self.running_pods()
        from_fields = ResourceVector._from_fields
        usage_alloc = None
        if len(running) < self.ranks:
            # Gang incomplete: ranks that are up spin at the barrier,
            # burning a trickle of CPU but making no progress.
            self.current_rate = 0.0
            for pod in running:
                alloc = pod.allocation
                if alloc is not usage_alloc:
                    usage_alloc = alloc
                    cpu = alloc.cpu
                    cpu = cpu if cpu < 0.05 else 0.05
                    memory = alloc.memory
                    memory = memory if memory < 0.1 else 0.1
                    usage = from_fields(
                        cpu if cpu > 0.0 else 0.0,
                        memory if memory > 0.0 else 0.0,
                        0.0,
                        0.0,
                    )
                pod.usage = usage
            return
        if self.gang_started_at is None:
            self.gang_started_at = now
        # Synchronous execution: slowest rank gates everyone.
        stretch = self._comm_stretch(running)
        speed_alloc = None
        gang_rate = None
        for pod in running:
            alloc = pod.allocation
            if alloc is not speed_alloc:
                speed_alloc = alloc
                speed = self._rank_speed(alloc, comm_stretch=stretch)
                if gang_rate is None or speed < gang_rate:
                    gang_rate = speed
        self.current_rate = gang_rate
        progress = self.progress + gang_rate * dt / self.duration
        self.progress = progress = progress if progress < 1.0 else 1.0
        if self.checkpoint_interval is not None:
            step = self.checkpoint_interval / self.duration
            # Tolerance so a checkpoint boundary reached up to float
            # rounding (progress = n·step − ε) still counts as taken;
            # plain truncation would silently roll a whole interval back.
            self.last_checkpoint = int(progress / step + 1e-9) * step
        nominal = self.nominal_allocation
        cpu_want = nominal.cpu * gang_rate
        memory_want = nominal.memory
        net_want = nominal.net_bw * gang_rate
        for pod in running:
            alloc = pod.allocation
            if alloc is not usage_alloc:
                usage_alloc = alloc
                cpu = alloc.cpu
                cpu = cpu_want if cpu_want < cpu else cpu
                memory = alloc.memory
                memory = memory_want if memory_want < memory else memory
                net_bw = alloc.net_bw
                net_bw = net_want if net_want < net_bw else net_bw
                usage = from_fields(
                    cpu if cpu > 0.0 else 0.0,
                    memory if memory > 0.0 else 0.0,
                    0.0,
                    net_bw if net_bw > 0.0 else 0.0,
                )
            pod.usage = usage
        if progress >= 1.0:
            self._complete(now)

    def _complete(self, now: float) -> None:
        if self.completed_at is not None:
            return
        self.completed_at = now
        self.current_rate = 0.0
        self._finish(succeeded=True)

    # -- metrics -------------------------------------------------------------------

    def sample_metrics(self, now: float) -> dict[str, float]:
        # Only the base gauges; kept so bench/layers.py can wrap it per class.
        return super().sample_metrics(now)
