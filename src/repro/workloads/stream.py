"""Continuous stream-processing jobs (Flink-like operator chains).

The fourth workload flavour in the converged platform: a pipeline of
operators applied to an unbounded event stream. Unlike a request/response
microservice, a stream job never refuses work — falling behind shows up
as *lag* (events buffered upstream) and the user-facing measure is the
**watermark delay**: how far behind real time the pipeline's output is.

The model per tick:

* events arrive at ``trace.rate(t)`` and are split across workers;
* each worker runs the fused operator chain; the per-event CPU cost of
  operator *i* is discounted by the product of upstream selectivities
  (a filter that drops 90% of events makes everything after it 10× cheaper);
* worker capacity is the min of the CPU ceiling and the ingest-bandwidth
  ceiling (events/s × bytes/event over network);
* state memory grows with event rate (keyed windows), pressuring the
  memory dimension exactly like the microservice model.

A :class:`~repro.workloads.plo.LatencyPLO` attached to a stream job
targets the watermark delay (exported as the ``latency`` metric), so the
standard controller manages stream jobs unmodified.

Fault tolerance (opt-in via ``ft=True``, which the platform passes when
``PlatformConfig.data_plane`` is set): the job takes periodic checkpoint barriers. Losing a
worker pod rolls processing back to the last checkpoint — everything
processed since is replayed, accounted as extra backlog demand — and the
restarted pipeline spends :data:`~repro.dataplane.RESTORE_DELAY` seconds
rebuilding operator state before it processes again. With ``ft`` off the model is
untouched and seeded runs are bit-identical to the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.api import ClusterAPI
from repro.cluster.cluster import NodeNotFound
from repro.cluster.pod import Pod, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.dataplane import RESTORE_DELAY
from repro.sim.engine import Engine
from repro.workloads.base import Application
from repro.workloads.traces import LoadTrace

#: Seconds between checkpoint barriers of an FT stream job.
CHECKPOINT_INTERVAL = 30.0


@dataclass(frozen=True)
class Operator:
    """One stage of the fused operator chain.

    Parameters
    ----------
    name:
        Operator name (unique within the job).
    cpu_seconds:
        CPU time per event *reaching this operator*.
    selectivity:
        Fraction of events passed downstream (1.0 = map, 0.1 = strong
        filter, >1 would be a flat-map and is capped at 10).
    state_mb_per_eps:
        Keyed-window state (MB) held per event/second of throughput at
        this operator.
    """

    name: str
    cpu_seconds: float
    selectivity: float = 1.0
    state_mb_per_eps: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0:
            raise ValueError(f"operator {self.name!r}: negative cpu_seconds")
        if not 0 < self.selectivity <= 10:
            raise ValueError(f"operator {self.name!r}: selectivity in (0, 10]")
        if self.state_mb_per_eps < 0:
            raise ValueError(f"operator {self.name!r}: negative state")


class StreamJob(Application):
    """A long-running stream pipeline with elastic workers.

    Parameters
    ----------
    trace:
        Input event rate (events/s).
    operators:
        The chain, source side first.
    event_mb:
        Network bytes (MB) ingested per source event.
    ft:
        Data-plane fault tolerance: checkpoint barriers and replay.
    """

    #: Reported watermark-delay ceiling (s).
    max_lag_seconds = 600.0
    #: Fixed per-worker memory (GiB).
    mem_base = 0.5
    priority = 8

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        trace: LoadTrace,
        operators: Sequence[Operator],
        initial_allocation: ResourceVector,
        initial_workers: int = 1,
        event_mb: float = 0.01,
        ft: bool = False,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ):
        super().__init__(
            name,
            engine,
            api,
            workload_class=WorkloadClass.BIGDATA,
            initial_allocation=initial_allocation,
            initial_replicas=initial_workers,
            labels=labels,
            **kwargs,
        )
        ops = list(operators)
        if not ops:
            raise ValueError("need at least one operator")
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise ValueError("duplicate operator names")
        if event_mb < 0:
            raise ValueError("invalid stream parameters")
        self.trace = trace
        self.operators = ops
        self.event_mb = event_mb
        # Fused-chain cost per *source* event, and state per event/s.
        reach = 1.0
        cpu = 0.0
        state = 0.0
        for op in ops:
            cpu += reach * op.cpu_seconds
            state += reach * op.state_mb_per_eps
            reach *= op.selectivity
        self.cpu_per_event = cpu
        self.state_mb_per_eps = state
        self.output_selectivity = reach
        # Runtime state.
        self.lag_events = 0.0
        self.current_rate = 0.0          # processed source events/s
        self.current_lag_seconds = 0.0
        self.current_offered = 0.0
        self.total_processed = 0.0
        self.total_arrived = 0.0
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        #: set, checkpoint barriers and rollback/replay restarts are
        #: traced under the ``dp`` category.
        self.telemetry = None
        # -- checkpoint/replay state (off → seed behaviour) --
        self.ft = ft
        if self.ft:
            self.checkpoints = 0
            self.restarts = 0
            self.replayed_total = 0.0
            self.last_checkpoint_at = 0.0
            self._ckpt_processed = 0.0
            self._restore_until = 0.0
            self._prev_workers: set[Pod] = set()

    # -- model ------------------------------------------------------------------

    def _node_speed(self, pod: Pod) -> float:
        if pod.node_name is None:
            return 1.0
        try:
            return self.api.get_node(pod.node_name).speed_factor
        except NodeNotFound:  # pragma: no cover - nodes are never removed
            return 1.0

    def _ft_pre_tick(self, now: float) -> bool:
        """Checkpoint/rollback bookkeeping; True while restoring state."""
        assert self.ft
        current = set(self._pods)
        lost = self._prev_workers - current
        self._prev_workers = current
        if lost:
            # Restart from the last checkpoint barrier: everything
            # processed since is replayed as fresh backlog.
            self.restarts += 1
            replayed = self.total_processed - self._ckpt_processed
            if replayed > 0:
                self.lag_events += replayed
                self.replayed_total += replayed
                self.total_processed = self._ckpt_processed
            self._restore_until = now + RESTORE_DELAY
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "stream_restart", "dp", job=self.name,
                    lost=len(lost), replayed=replayed,
                )
        restoring = now < self._restore_until
        if (
            not restoring
            and now - self.last_checkpoint_at >= CHECKPOINT_INTERVAL
        ):
            self._ckpt_processed = self.total_processed
            self.last_checkpoint_at = now
            self.checkpoints += 1
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "stream_checkpoint", "dp", job=self.name,
                    processed=self.total_processed,
                )
        return restoring

    def tick(self, dt: float, now: float) -> None:
        """Advance the pipeline by ``dt``, writing each worker's usage
        directly.

        A worker's capacity (source events/s) is the lower of its CPU
        and ingest-bandwidth ceilings, cut by memory pressure from the
        state that throughput holds, and times its node's speed under
        FT. Without either ceiling the capacity is infinite, and with
        keyed state the cut's limit, ``1024 × memory / state_mb_per_eps``.
        Workers usually share one allocation object, so capacity and
        usage are computed again only where the object changes along the
        worker list; under FT they are computed per worker, because node
        speed differs per pod. A usage is ``min(want, allocation)``
        clamped at 0, the vector ``Pod.record_usage`` stored. ``b if b <
        a else a`` and ``b if b > a else a`` stand for ``min(a, b)`` and
        ``max(a, b)``: they return the builtins' operand, so ties, signed
        zeros and NaN give the same floats.
        """
        offered = self.trace.rate(now)
        offered = offered if offered > 0.0 else 0.0
        self.current_offered = offered
        workers = self.running_pods()
        arrivals = offered * dt
        self.total_arrived += arrivals
        ft = self.ft
        restoring = self._ft_pre_tick(now) if ft else False
        mem_base = self.mem_base
        from_fields = ResourceVector._from_fields
        usage_alloc = None
        if not workers or restoring:
            self.lag_events += arrivals
            self.current_rate = 0.0
            # Workers that are up rebuild operator state: backlog accrues
            # while the watermark estimate goes stale.
            for pod in workers:
                alloc = pod.allocation
                if alloc is not usage_alloc:
                    usage_alloc = alloc
                    memory = alloc.memory
                    memory = mem_base if mem_base < memory else memory
                    usage = from_fields(
                        0.0, memory if memory > 0.0 else 0.0, 0.0, 0.0
                    )
                pod.usage = usage
            if not workers:
                self.current_lag_seconds = self.max_lag_seconds
            return

        queued = self.lag_events + arrivals
        share_rate = queued / len(workers) / dt
        cpu_per_event = self.cpu_per_event
        event_mb = self.event_mb
        state_per_eps = self.state_mb_per_eps
        total_capacity = 0.0
        for pod in workers:
            alloc = pod.allocation
            if ft or alloc is not usage_alloc:
                usage_alloc = alloc
                cpu_cap, mem_cap, _disk, net_cap = alloc
                if cpu_per_event > 0:
                    capacity = cpu_cap / cpu_per_event
                    if event_mb > 0:
                        net_rate = net_cap / event_mb
                        capacity = net_rate if net_rate < capacity else capacity
                elif event_mb > 0:
                    capacity = net_cap / event_mb
                else:
                    capacity = math.inf
                # Memory pressure: state for the throughput this worker
                # handles.
                needed = mem_base + state_per_eps * capacity / 1024.0
                mem = 1e-9 if 1e-9 > mem_cap else mem_cap
                if needed > mem:
                    if capacity == math.inf:
                        # The cut's limit as capacity grows without
                        # bound; inf * (mem / inf) would be NaN.
                        capacity = 1024.0 * mem / state_per_eps
                    else:
                        capacity *= mem / needed
                if ft:
                    capacity *= self._node_speed(pod)
                rate = share_rate if share_rate < capacity else capacity
                state_mem = mem_base + state_per_eps * rate / 1024.0
                cpu = rate * cpu_per_event
                cpu = cpu_cap if cpu_cap < cpu else cpu
                # min(allocation, state) is already within the allocation.
                memory = state_mem if state_mem < mem_cap else mem_cap
                net_bw = rate * event_mb
                net_bw = net_cap if net_cap < net_bw else net_bw
                usage = from_fields(
                    cpu if cpu > 0.0 else 0.0,
                    memory if memory > 0.0 else 0.0,
                    0.0,
                    net_bw if net_bw > 0.0 else 0.0,
                )
            total_capacity += capacity
            pod.usage = usage
        processed = total_capacity * dt
        processed = processed if processed < queued else queued
        lag = queued - processed
        self.lag_events = lag = lag if lag > 0.0 else 0.0
        self.total_processed += processed
        self.current_rate = processed / dt
        if total_capacity > 0:
            lag_seconds = lag / total_capacity
            max_lag = self.max_lag_seconds
            self.current_lag_seconds = (
                lag_seconds if lag_seconds < max_lag else max_lag
            )
        else:
            self.current_lag_seconds = self.max_lag_seconds

    # -- metrics ---------------------------------------------------------------------

    def sample_metrics(self, now: float) -> dict[str, float]:
        metrics = super().sample_metrics(now)
        # Watermark delay doubles as the controller's latency signal.
        metrics["latency"] = self.current_lag_seconds
        metrics["throughput"] = self.current_rate
        metrics["offered"] = self.current_offered
        return metrics
