"""Latency-sensitive microservice model.

Each replica is an M/M/1-style queueing station whose service rate is the
*minimum* over per-resource capacities — CPU, disk bandwidth, and network
bandwidth each impose their own request-rate ceiling, and insufficient
memory inflates service time (thrashing). This multi-resource coupling is
deliberately what makes single-resource (CPU-only) autoscalers fail: when
the bottleneck is I/O, adding CPU does not move latency.

The model advances in discrete ticks with explicit backlog, so transients
(load spikes before the controller reacts) produce realistic latency
excursions rather than instantaneous equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.api import ClusterAPI
from repro.cluster.pod import Pod, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.base import Application
from repro.workloads.traces import LoadTrace

_ZERO = ResourceVector.zero()


@dataclass(frozen=True)
class ServiceDemands:
    """Per-request resource demands of a service.

    Parameters
    ----------
    cpu_seconds:
        CPU-seconds consumed per request.
    disk_mb / net_mb:
        Disk and network bytes (MB) moved per request.
    mem_base:
        Fixed per-replica memory footprint (GiB).
    mem_per_inflight:
        Additional memory per in-flight request (GiB).
    base_latency:
        Service time (s) at zero load with ample resources.
    """

    cpu_seconds: float
    disk_mb: float = 0.0
    net_mb: float = 0.0
    mem_base: float = 0.25
    mem_per_inflight: float = 0.001
    base_latency: float = 0.01

    def __post_init__(self) -> None:
        if self.cpu_seconds <= 0:
            raise ValueError("cpu_seconds must be positive")
        if min(self.disk_mb, self.net_mb, self.mem_base, self.mem_per_inflight) < 0:
            raise ValueError("demands must be non-negative")
        if self.base_latency <= 0:
            raise ValueError("base_latency must be positive")

    def scaled(self, factor: float) -> "ServiceDemands":
        """These demands with per-request CPU, disk and network times ``factor``."""
        return ServiceDemands(
            cpu_seconds=self.cpu_seconds * factor,
            disk_mb=self.disk_mb * factor,
            net_mb=self.net_mb * factor,
            mem_base=self.mem_base,
            mem_per_inflight=self.mem_per_inflight,
            base_latency=self.base_latency,
        )

    def capacity(self, allocation: ResourceVector) -> tuple[float, str]:
        """Max sustainable request rate under ``allocation``, and which
        resource imposes it (ignoring memory, handled via pressure).

        Strict ``<`` comparisons keep first-wins tie-breaking in the
        cpu → disk_bw → net_bw order without building candidate lists —
        this runs once per replica per model tick.
        """
        cap = allocation.cpu / self.cpu_seconds
        which = "cpu"
        if self.disk_mb > 0:
            disk_cap = allocation.disk_bw / self.disk_mb
            if disk_cap < cap:
                cap, which = disk_cap, "disk_bw"
        if self.net_mb > 0:
            net_cap = allocation.net_bw / self.net_mb
            if net_cap < cap:
                cap, which = net_cap, "net_bw"
        return cap, which


@dataclass(frozen=True)
class DemandPhase:
    """A demand profile taking effect at ``start_time`` (phase shifts)."""

    start_time: float
    demands: ServiceDemands


class _ReplicaState:
    """Mutable queueing state of one replica."""

    __slots__ = ("backlog", "last_wait")

    def __init__(self) -> None:
        self.backlog = 0.0       # queued requests
        self.last_wait = 0.0     # previous-tick response time (s)


class Microservice(Application):
    """A horizontally- and vertically-scalable user-facing service.

    Parameters
    ----------
    trace:
        Offered load over time (req/s), split evenly across running
        replicas by an ideal load balancer.
    arrivals:
        Optional open-loop arrival process
        (:class:`~repro.workloads.arrivals.ArrivalProcess`). When set,
        offered load comes from counting its events over each tick
        window instead of sampling ``trace.rate`` — the discrete stream
        carries the burstiness a rate curve averages away. A
        :class:`~repro.workloads.arrivals.MarkedArrivals` process also
        scales per-request demand by the tick's mean size mark
        (normalized by the distribution mean), modelling heavy-tailed
        request sizes. ``trace`` is still required: it is what the
        forecasters and scenario specs describe, and what arrival
        processes are driven by.
    demands:
        Per-request demand profile, or a sequence of :class:`DemandPhase`
        for workloads whose bottleneck shifts over time.

    The reported latency is the mean response time over the replicas.
    """

    #: Reported-latency ceiling (s); stands in for client timeouts.
    max_latency = 30.0
    #: Admission control: each replica sheds arrivals beyond
    #: ``capacity × queue_limit_seconds`` of backlog, as client timeouts
    #: and load shedders do — so an overloaded service recovers once
    #: load drops instead of draining an unbounded queue forever.
    queue_limit_seconds = 60.0
    priority = 10

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        trace: LoadTrace,
        arrivals: ArrivalProcess | None = None,
        demands: ServiceDemands | Sequence[DemandPhase],
        initial_allocation: ResourceVector,
        initial_replicas: int = 1,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ):
        super().__init__(
            name,
            engine,
            api,
            workload_class=WorkloadClass.MICROSERVICE,
            initial_allocation=initial_allocation,
            initial_replicas=initial_replicas,
            labels=labels,
            **kwargs,
        )
        self.trace = trace
        self.arrivals = arrivals
        self._marked = arrivals is not None and hasattr(arrivals, "window_marked")
        self.current_size_factor = 1.0
        if isinstance(demands, ServiceDemands):
            self._phases = [DemandPhase(0.0, demands)]
        else:
            phases = sorted(demands, key=lambda p: p.start_time)
            if not phases:
                raise ValueError("need at least one demand phase")
            self._phases = phases
        # -- brownout: the degraded PLO tier -------------------------------
        # While browned out, per-request demand is multiplied by
        # ``brownout_factor`` (serving a cheaper response) and the reported
        # latency carries a fixed penalty — the price users pay for the
        # degraded tier. The control loop drives enter/exit.
        self.brownout_capable = True
        self.brownout_active = False
        self.brownout_factor = 1.0
        self.brownout_penalty = 0.0
        self.brownout_seconds = 0.0
        self.brownouts_entered = 0
        self._brownout_cache: tuple | None = None
        self.total_dropped = 0.0
        self.current_drop_rate = 0.0
        self._replica_state: dict[Pod, _ReplicaState] = {}
        # Last-tick aggregates, exported on scrape.
        self.current_latency = self._phases[0].demands.base_latency
        self.current_throughput = 0.0
        self.current_offered = 0.0
        self.current_backlog = 0.0
        self.current_bottleneck = "cpu"
        self.total_served = 0.0

    # -- demand schedule ------------------------------------------------------

    def demands_at(self, t: float) -> ServiceDemands:
        """Demand profile in effect at time ``t``."""
        current = self._phases[0].demands
        for phase in self._phases:
            if t >= phase.start_time:
                current = phase.demands
            else:
                break
        return current

    # -- brownout ------------------------------------------------------------

    def enter_brownout(self, *, factor: float, latency_penalty: float) -> None:
        """Enter the degraded tier: per-request demand × ``factor`` at a
        ``latency_penalty``-second cost on reported latency."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("brownout factor must be in (0, 1]")
        if latency_penalty < 0:
            raise ValueError("latency_penalty must be non-negative")
        self.brownout_active = True
        self.brownout_factor = float(factor)
        self.brownout_penalty = float(latency_penalty)
        self.brownouts_entered += 1

    def exit_brownout(self) -> None:
        """Restore the full-fidelity tier."""
        self.brownout_active = False

    def _degraded_demands(self, demands: ServiceDemands) -> ServiceDemands:
        cached = self._brownout_cache
        if (
            cached is not None
            and cached[0] is demands
            and cached[1] == self.brownout_factor
        ):
            return cached[2]
        factor = self.brownout_factor
        degraded = demands.scaled(factor)
        self._brownout_cache = (demands, factor, degraded)
        return degraded

    # -- open-loop arrivals ---------------------------------------------------

    def _offered_from_arrivals(self, dt: float, now: float) -> tuple[float, float]:
        """Offered rate and mean-size factor for the tick window.

        The tick at ``now`` covers ``[now - dt, now)``; counting events
        there keeps the event stream and the rate estimate aligned.
        """
        if self._marked:
            times, sizes = self.arrivals.window_marked(now - dt, now)
            if len(times) == 0:
                return 0.0, 1.0
            mean = self.arrivals.mean_size()
            # np.mean's own sum and division.
            factor = float(sizes.sum()) / len(sizes) / mean if mean > 0 else 1.0
            return len(times) / dt, max(factor, 1e-6)
        events = self.arrivals.window(now - dt, now)
        return len(events) / dt, 1.0

    # -- dynamics -----------------------------------------------------------------

    def tick(self, dt: float, now: float) -> None:
        """Advance every running replica by ``dt`` in one loop on locals.

        ``b if b < a else a`` and ``b if b > a else a`` stand for
        ``min(a, b)`` and ``max(a, b)``: they return the same operand as
        the builtins, so ties, signed zeros and NaN give the same floats.
        Each replica's usage is written to ``pod.usage`` directly, clamped
        as ``Pod.record_usage`` clamps it: ``min(want, allocation)``, then
        ``max(0.0, ·)``.
        """
        demands = self.demands_at(now)
        if self.brownout_active:
            demands = self._degraded_demands(demands)
            self.brownout_seconds += dt
        if self.arrivals is not None:
            offered, size_factor = self._offered_from_arrivals(dt, now)
            self.current_size_factor = size_factor
            if size_factor != 1.0:
                demands = demands.scaled(size_factor)
        else:
            offered = self.trace.rate(now)
            offered = offered if offered > 0.0 else 0.0
        running = self.running_pods()
        self.current_offered = offered

        # Rebuilt from the running pods, so a replica that stopped
        # running since the last tick loses its state.
        old_states = self._replica_state
        states: dict[Pod, _ReplicaState] = {}
        self._replica_state = states
        max_latency = self.max_latency

        if not running:
            # Nothing serving: queue at the front door, report timeout-level
            # latency whenever there is load.
            self.current_throughput = 0.0
            self.current_latency = (
                max_latency if offered > 0 else demands.base_latency
            )
            self.current_backlog = 0.0
            return

        n = len(running)
        arrival_rate = offered / n
        arrivals = arrival_rate * dt
        cpu_seconds = demands.cpu_seconds
        disk_mb = demands.disk_mb
        net_mb = demands.net_mb
        mem_base = demands.mem_base
        mem_per_inflight = demands.mem_per_inflight
        base_latency = demands.base_latency
        queue_limit = self.queue_limit_seconds
        from_fields = ResourceVector._from_fields
        served_total = 0.0
        dropped_total = 0.0
        wait_sum = 0.0
        backlog_total = 0.0
        votes: dict[str, int] = {}
        cap_alloc = None

        for pod in running:
            alloc = pod.allocation
            # Replicas usually share one allocation object: compute its
            # capacity and read its fields once, and again only where the
            # object changes.
            if alloc is not cap_alloc:
                cap_alloc = alloc
                mu_raw, cap_which = demands.capacity(alloc)
                cpu_cap, memory, disk_cap, net_cap = alloc
                memory_floor = 1e-9 if 1e-9 > memory else memory
            which = cap_which
            state = old_states[pod] if pod in old_states else _ReplicaState()
            states[pod] = state
            backlog = state.backlog
            if mu_raw <= 0:
                dropped = backlog + arrivals
                backlog = 0.0
                served = 0.0
                wait = max_latency
                # Clamping a zero usage gives +0.0 in every field.
                pod.usage = _ZERO
            else:
                # Memory pressure from in-flight requests (Little's law on
                # the previous tick's wait, bounded to keep the fixed point
                # stable).
                last_wait = state.last_wait
                inflight = arrival_rate * (5.0 if 5.0 < last_wait else last_wait)
                required_mem = mem_base + mem_per_inflight * inflight
                pressure = required_mem / memory_floor
                if pressure > 1.0:
                    which = "memory"
                else:
                    pressure = 1.0
                mu = mu_raw / pressure

                queued = backlog + arrivals
                served = mu * dt
                served = served if served < queued else queued
                backlog = queued - served
                backlog = backlog if backlog > 0.0 else 0.0
                # Shed whatever exceeds the admission-control window.
                dropped = backlog - mu * queue_limit
                dropped = dropped if dropped > 0.0 else 0.0
                backlog -= dropped

                rho = arrival_rate / mu
                rho = 0.995 if 0.995 < rho else rho
                service_time = base_latency * pressure
                wait = service_time / (1.0 - rho) + (backlog / mu if mu > 0 else 0.0)
                wait = max_latency if max_latency < wait else wait

                served_rate = served / dt
                cpu = served_rate * cpu_seconds
                cpu = cpu_cap if cpu_cap < cpu else cpu
                # The memory want is min(required, allocation) already, so
                # the allocation clamp returns it unchanged.
                used_memory = memory if memory < required_mem else required_mem
                disk_bw = served_rate * disk_mb
                disk_bw = disk_cap if disk_cap < disk_bw else disk_bw
                net_bw = served_rate * net_mb
                net_bw = net_cap if net_cap < net_bw else net_bw
                pod.usage = from_fields(
                    cpu if cpu > 0.0 else 0.0,
                    used_memory if used_memory > 0.0 else 0.0,
                    disk_bw if disk_bw > 0.0 else 0.0,
                    net_bw if net_bw > 0.0 else 0.0,
                )
            state.backlog = backlog
            state.last_wait = wait
            served_total += served
            dropped_total += dropped
            wait_sum += wait
            backlog_total += backlog
            if which in votes:
                votes[which] += 1
            else:
                votes[which] = 1

        self.total_dropped += dropped_total
        self.current_drop_rate = dropped_total / dt
        self.current_throughput = served_total / dt
        latency = wait_sum / n
        self.current_latency = latency if latency < max_latency else max_latency
        self.current_backlog = backlog_total
        self.current_bottleneck = max(votes, key=votes.get)
        self.total_served += served_total
        if self.brownout_active and self.brownout_penalty > 0:
            latency = self.current_latency + self.brownout_penalty
            self.current_latency = latency if latency < max_latency else max_latency

    # -- metrics --------------------------------------------------------------------

    def sample_metrics(self, now: float) -> dict[str, float]:
        metrics = super().sample_metrics(now)
        metrics["latency"] = self.current_latency
        metrics["throughput"] = self.current_throughput
        metrics["offered"] = self.current_offered
        # The size-factor gauge exists only when a marked arrival
        # process is wired in.
        if self._marked:
            metrics["size_factor"] = self.current_size_factor
        return metrics
