"""The one-loop microservice tick against the per-replica step it replaced.

``Microservice.tick`` steps every running replica in one loop on
locals: replica state keyed by the ``Pod`` object in a dict rebuilt each
tick, ``ServiceDemands.capacity`` once per allocation object, and each
``min``/``max`` written as a comparison that returns the builtin's
operand. This module keeps the previous tick as the reference: state
keyed by pod name, one ``_step_replica`` call per replica, and
``Pod.record_usage`` with the ``min``/``max`` builtins.

Each scenario runs twice from the same state, once on each path. After
every tick of every service the two runs must agree by ``repr`` on the
service's latency, throughput, backlog, drop rate, bottleneck and
served and dropped totals, on every pod's usage, and on every replica's
backlog and last wait, so a float that differs in its last bit fails.
The tick writes each usage directly; the reference clamps it as the
old ``Pod.record_usage`` did, with ``min``/``max``.
"""

from __future__ import annotations

import cProfile
import functools
import math
import pstats

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.cluster.resources import ResourceVector
from repro.scheduler.kube import KubeScheduler
from repro.sim.engine import Engine
from repro.workloads.arrivals import MarkedArrivals, ParetoSizes, PoissonArrivals
from repro.workloads.microservice import (
    DemandPhase,
    Microservice,
    ServiceDemands,
    _ReplicaState,
)
from repro.workloads.traces import ConstantTrace, DiurnalTrace, StepTrace
from tests.conftest import make_api

NODE = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)
REPLICA = ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15)
DEMANDS = ServiceDemands(
    cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05, base_latency=0.01
)

# -- the reference: the tick before the one-loop rewrite -------------------------


def ref_record_usage(pod, usage):
    alloc = pod.allocation
    pod.usage = ResourceVector._from_fields(
        max(0.0, min(usage.cpu, alloc.cpu)),
        max(0.0, min(usage.memory, alloc.memory)),
        max(0.0, min(usage.disk_bw, alloc.disk_bw)),
        max(0.0, min(usage.net_bw, alloc.net_bw)),
    )


def ref_step_replica(svc, state, pod, arrival_rate, demands, dt):
    mu_raw, bottleneck = demands.capacity(pod.allocation)
    if mu_raw <= 0:
        dropped = state.backlog + arrival_rate * dt
        state.backlog = 0.0
        state.last_wait = svc.max_latency
        ref_record_usage(pod, ResourceVector.zero())
        return svc.max_latency, 0.0, dropped, bottleneck

    inflight = arrival_rate * min(state.last_wait, 5.0)
    required_mem = demands.mem_base + demands.mem_per_inflight * inflight
    mem = max(pod.allocation.memory, 1e-9)
    pressure = max(1.0, required_mem / mem)
    if pressure > 1.0:
        bottleneck = "memory"
    mu = mu_raw / pressure

    arrivals = arrival_rate * dt
    served = min(state.backlog + arrivals, mu * dt)
    state.backlog = max(0.0, state.backlog + arrivals - served)
    backlog_cap = mu * svc.queue_limit_seconds
    dropped = max(0.0, state.backlog - backlog_cap)
    state.backlog -= dropped

    rho = min(arrival_rate / mu, 0.995)
    service_time = demands.base_latency * pressure
    wait = service_time / (1.0 - rho) + (state.backlog / mu if mu > 0 else 0.0)
    wait = min(wait, svc.max_latency)
    state.last_wait = wait

    served_rate = served / dt
    ref_record_usage(
        pod,
        ResourceVector._from_fields(
            served_rate * demands.cpu_seconds,
            min(required_mem, pod.allocation.memory),
            served_rate * demands.disk_mb,
            served_rate * demands.net_mb,
        ),
    )
    return wait, served, dropped, bottleneck


def ref_sized_demands(demands, factor):
    """``Microservice._sized_demands`` as it was, before ``ServiceDemands.scaled``."""
    return ServiceDemands(
        cpu_seconds=demands.cpu_seconds * factor,
        disk_mb=demands.disk_mb * factor,
        net_mb=demands.net_mb * factor,
        mem_base=demands.mem_base,
        mem_per_inflight=demands.mem_per_inflight,
        base_latency=demands.base_latency,
    )


def ref_tick(svc, dt, now):
    demands = svc.demands_at(now)
    if svc.brownout_active:
        demands = svc._degraded_demands(demands)
        svc.brownout_seconds += dt
    if svc.arrivals is not None:
        offered, size_factor = svc._offered_from_arrivals(dt, now)
        svc.current_size_factor = size_factor
        if size_factor != 1.0:
            demands = ref_sized_demands(demands, size_factor)
    else:
        offered = max(0.0, svc.trace.rate(now))
    running = svc.running_pods()
    svc.current_offered = offered

    live = {p.name for p in running}
    for name in list(svc._replica_state):
        if name not in live:
            del svc._replica_state[name]

    if not running:
        svc.current_throughput = 0.0
        svc.current_latency = svc.max_latency if offered > 0 else demands.base_latency
        svc.current_backlog = 0.0
        return

    per_replica = offered / len(running)
    served_total = 0.0
    dropped_total = 0.0
    wait_sum = 0.0
    backlog_total = 0.0
    bottleneck_votes: dict[str, int] = {}

    for pod in running:
        state = svc._replica_state.setdefault(pod.name, _ReplicaState())
        wait, served, dropped, bottleneck = ref_step_replica(
            svc, state, pod, per_replica, demands, dt
        )
        served_total += served
        dropped_total += dropped
        wait_sum += wait
        backlog_total += state.backlog
        bottleneck_votes[bottleneck] = bottleneck_votes.get(bottleneck, 0) + 1

    svc.total_dropped += dropped_total
    svc.current_drop_rate = dropped_total / dt
    svc.current_throughput = served_total / dt
    svc.current_latency = min(svc.max_latency, wait_sum / len(running))
    svc.current_backlog = backlog_total
    svc.current_bottleneck = max(bottleneck_votes, key=bottleneck_votes.get)
    svc.total_served += served_total
    if svc.brownout_active and svc.brownout_penalty > 0:
        svc.current_latency = min(
            svc.max_latency, svc.current_latency + svc.brownout_penalty
        )


# -- scenarios --------------------------------------------------------------------


class World:
    """Nodes, a scheduler and the services of one scenario."""

    def __init__(self, *, nodes=2):
        self.engine = Engine()
        self.cluster = Cluster(
            self.engine, [Node(f"node-{i}", NODE) for i in range(nodes)]
        )
        self.api = make_api(self.cluster)
        KubeScheduler(self.engine, self.api).start()
        self.services: list[Microservice] = []

    def service(self, name, *, trace, demands=DEMANDS, allocation=REPLICA,
                replicas=1, **kw):
        svc = Microservice(
            name,
            self.engine,
            self.api,
            trace=trace,
            demands=demands,
            initial_allocation=allocation,
            initial_replicas=replicas,
            **kw,
        )
        self.services.append(svc)
        self.engine.schedule_at(0.0, svc.start)
        return svc

    def at(self, time, action):
        self.engine.schedule_at(time, action)

    def resize(self, svc, index, allocation):
        """Resize the ``index``-th running replica of ``svc`` alone."""
        pod = svc.running_pods()[index]
        assert self.api.patch_pod_allocation(pod.name, allocation)


def memory_pressure():
    """Too little memory for the in-flight requests; then less again.
    A second service's memory exactly meets its requirement."""
    world = World()
    svc = world.service(
        "svc",
        trace=DiurnalTrace(base=100, amplitude=50, period=600.0),
        demands=ServiceDemands(
            cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05, mem_per_inflight=0.02,
            base_latency=0.01,
        ),
        allocation=REPLICA.replace(memory=0.5),
        replicas=2,
    )
    world.at(150.5, lambda: svc.set_target_allocation(REPLICA.replace(memory=0.3)))
    # Memory exactly meets the requirement: a pressure of 1 is no pressure.
    world.service(
        "exact",
        trace=ConstantTrace(40.0),
        demands=ServiceDemands(cpu_seconds=0.008, mem_base=1.0, mem_per_inflight=0.0),
    )
    return world, 400.0


def zero_cpu_allocation():
    """A loaded replica's CPU drops to zero, then comes back."""
    world = World()
    svc = world.service("svc", trace=ConstantTrace(90.0))
    world.at(60.5, lambda: svc.set_target_allocation(REPLICA.replace(cpu=0.0)))
    world.at(120.5, lambda: svc.set_target_allocation(REPLICA))
    return world, 240.0


def brownout_penalty():
    """A browned-out service whose penalty reaches the latency ceiling."""
    world = World()
    svc = world.service(
        "svc", trace=StepTrace([(0.0, 40.0), (50.0, 110.0)]), replicas=1
    )
    world.at(70.5, lambda: svc.enter_brownout(factor=0.5, latency_penalty=0.25))
    world.at(140.5, lambda: svc.enter_brownout(factor=0.7, latency_penalty=29.99))
    world.at(200.5, svc.exit_brownout)
    return world, 300.0


def marked_arrivals():
    """Heavy-tailed request sizes scale the demand every tick."""
    world = World()
    trace = DiurnalTrace(base=50, amplitude=30, period=300.0)
    rng = np.random.default_rng(11)
    world.service(
        "svc",
        trace=trace,
        arrivals=MarkedArrivals(
            PoissonArrivals(trace, rng), ParetoSizes(1.5), rng
        ),
        replicas=2,
    )
    return world, 300.0


def demand_phase_shift():
    """The bottleneck moves from CPU to disk to network."""
    world = World()
    world.service(
        "svc",
        trace=ConstantTrace(70.0),
        demands=[
            DemandPhase(0.0, DEMANDS),
            DemandPhase(100.0, ServiceDemands(cpu_seconds=0.002, disk_mb=0.4)),
            DemandPhase(200.0, ServiceDemands(cpu_seconds=0.002, net_mb=0.5)),
        ],
        replicas=2,
    )
    return world, 300.0


def two_allocations():
    """Replicas at different allocations; at the end one is memory-bound
    and one CPU-bound, a 1:1 vote."""
    world = World()
    svc = world.service(
        "svc",
        trace=ConstantTrace(150.0),
        demands=ServiceDemands(
            cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05, mem_per_inflight=0.01,
            base_latency=0.01,
        ),
        replicas=3,
    )
    # The middle replica alone: allocations A, B, A.
    world.at(20.5, lambda: world.resize(svc, 1, REPLICA.replace(cpu=1.5)))
    world.at(60.5, lambda: world.resize(svc, 0, REPLICA.replace(memory=0.3)))
    world.at(100.5, lambda: svc.scale_to(2))
    return world, 200.0


def replica_replaced():
    """A loaded replica is evicted; self-healing brings a fresh one up."""
    world = World()
    svc = world.service("svc", trace=ConstantTrace(180.0), replicas=2)
    svc.maintain_replicas = True

    def kill():
        victim = svc.running_pods()[0]
        world.api.delete_pod(victim.name, reason="chaos")

    world.at(40.5, kill)
    world.at(90.5, kill)
    return world, 200.0


def overload_shedding():
    """An overload step that outlasts the queue limit sheds requests."""
    world = World()
    world.service(
        "svc",
        trace=StepTrace([(0.0, 50.0), (60.0, 400.0), (300.0, 30.0)]),
        replicas=2,
    )
    return world, 400.0


def disk_net_tie():
    """Disk and network impose the same ceiling; disk must win the tie."""
    world = World()
    world.service(
        "svc",
        trace=DiurnalTrace(base=120, amplitude=60, period=300.0),
        demands=ServiceDemands(cpu_seconds=0.004, disk_mb=0.1, net_mb=0.1),
        allocation=REPLICA.replace(cpu=2.0),
        replicas=2,
    )
    return world, 300.0


def signed_zero_and_nan():
    """A -0.0 demand and a NaN demand: the clamps must return the
    builtins' operands."""
    world = World()
    world.service(
        "zero",
        trace=ConstantTrace(60.0),
        demands=ServiceDemands(
            cpu_seconds=0.008, disk_mb=-0.0, net_mb=0.05, mem_base=-0.0,
            mem_per_inflight=-0.0,
        ),
    )
    world.service(
        "nan",
        trace=ConstantTrace(60.0),
        demands=ServiceDemands(cpu_seconds=math.nan, disk_mb=0.1),
    )
    return world, 100.0


def loaded_allocations():
    """Replicas on three allocation objects, in the order A, B, C, under
    a load the smallest cannot serve: the CPU-rich B uses more CPU than A
    holds, and the memory-poor C is under memory pressure, so each
    replica's pressure and usage clamps must read its own allocation."""
    world = World()
    svc = world.service("svc", trace=ConstantTrace(300.0), replicas=3)
    world.at(20.5, lambda: world.resize(svc, 1, REPLICA.replace(cpu=1.5)))
    world.at(20.5, lambda: world.resize(svc, 2, REPLICA.replace(memory=0.3)))
    return world, 150.0


def nan_allocation():
    """Two replicas whose allocations hold NaN for 30 s, beside one that
    does not: one NaN CPU and disk bandwidth, one NaN memory and network
    bandwidth.

    No cluster verb grants one, so the test writes it into the pods. A
    NaN CPU makes the capacity NaN; a NaN memory gives no pressure (the
    builtins' ``max(1.0, nan)`` is 1.0); each usage clamp must take the
    operand ``min`` takes, and the clamp at 0 turns a NaN usage into 0.0.
    """
    world = World()
    svc = world.service("svc", trace=ConstantTrace(120.0), replicas=3)
    held = {}

    def corrupt():
        first, second, _ = svc.running_pods()
        for pod, fields in (
            (first, {"cpu": math.nan, "disk_bw": math.nan}),
            (second, {"memory": math.nan, "net_bw": math.nan}),
        ):
            held[pod] = pod.allocation
            pod.allocation = pod.allocation.replace(**fields)

    def restore():
        for pod, allocation in held.items():
            pod.allocation = allocation

    world.at(40.5, corrupt)
    world.at(70.5, restore)
    return world, 120.0


SCENARIOS = {
    "memory-pressure": memory_pressure,
    "zero-cpu-allocation": zero_cpu_allocation,
    "brownout-penalty": brownout_penalty,
    "marked-arrivals": marked_arrivals,
    "demand-phase-shift": demand_phase_shift,
    "two-allocations": two_allocations,
    "replica-replaced": replica_replaced,
    "overload-shedding": overload_shedding,
    "disk-net-tie": disk_net_tie,
    "signed-zero-and-nan": signed_zero_and_nan,
    "loaded-allocations": loaded_allocations,
    "nan-allocation": nan_allocation,
}


# -- running both paths -------------------------------------------------------------


def _usage(pod) -> str:
    u = pod.usage
    return repr((u.cpu, u.memory, u.disk_bw, u.net_bw))


def _replicas(svc) -> list[tuple]:
    """Every replica state, by pod name (the reference keys by name)."""
    return sorted(
        (
            key.name if isinstance(key, Pod) else key,
            repr(state.backlog),
            repr(state.last_wait),
        )
        for key, state in svc._replica_state.items()
    )


def _snapshot(world, svc, now) -> tuple:
    return (
        svc.name,
        repr(now),
        repr(
            (
                svc.current_latency,
                svc.current_throughput,
                svc.current_backlog,
                svc.current_drop_rate,
                svc.total_served,
                svc.total_dropped,
            )
        ),
        svc.current_bottleneck,
        [(p.name, _usage(p)) for p in world.cluster.pods.values()],
        _replicas(svc),
    )


def _run(scenario, *, reference: bool, record=_snapshot):
    """The world and, per tick, ``record(world, service, now)``."""
    world, horizon = scenario()
    records: list = []
    for svc in world.services:
        step = functools.partial(ref_tick, svc) if reference else svc.tick

        def tick(dt, now, svc=svc, step=step):
            step(dt, now)
            records.append(record(world, svc, now))

        svc.tick = tick
    world.engine.run_until(horizon)
    return world, records


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_tick_matches_reference(name):
    _, fast = _run(SCENARIOS[name], reference=False)
    _, ref = _run(SCENARIOS[name], reference=True)
    assert len(fast) == len(ref) > 0
    for tick, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"{name}: tick {tick} ({got[0]} at t={got[1]}) differs"


def _seen(scenario):
    """Per tick: bottleneck, drop rate, replica count, size factor and
    latency."""
    _, seen = _run(
        scenario,
        reference=False,
        record=lambda world, svc, now: (
            svc.current_bottleneck,
            svc.current_drop_rate,
            len(svc._replica_state),
            svc.current_size_factor,
            svc.current_latency,
        ),
    )
    return seen


def test_scenarios_reach_the_paths_they_name():
    seen = _seen(memory_pressure)
    assert any(b == "memory" for b, *_ in seen)
    seen = _seen(zero_cpu_allocation)
    assert any(lat == Microservice.max_latency for *_, lat in seen)
    seen = _seen(brownout_penalty)
    assert any(lat == Microservice.max_latency for *_, lat in seen)
    seen = _seen(marked_arrivals)
    assert any(size != 1.0 for *_, size, _ in seen)
    seen = _seen(demand_phase_shift)
    assert {b for b, *_ in seen} >= {"cpu", "disk_bw", "net_bw"}
    seen = _seen(overload_shedding)
    assert any(drop > 0 for _, drop, *_ in seen)
    seen = _seen(disk_net_tie)
    assert {b for b, _, replicas, *_ in seen if replicas} == {"disk_bw"}
    _, seen = _run(
        nan_allocation,
        reference=False,
        record=lambda world, svc, now: [
            any(math.isnan(x) for x in pod.allocation)
            for pod in svc.running_pods()
        ],
    )
    assert any(sum(flags) == 2 for flags in seen)
    world, _ = _run(loaded_allocations, reference=False)
    a, b, c = (pod.usage for pod in world.services[0].running_pods())
    assert b.cpu > REPLICA.cpu == a.cpu  # B serves what A cannot
    assert c.memory == 0.3 and c.cpu < a.cpu  # C is slowed by memory


def test_replica_state_lives_while_its_pod_runs():
    world, _ = replica_replaced()
    world.engine.run_until(41.0)  # the first kill landed at 40.5
    (svc,) = world.services
    running = svc.running_pods()
    assert len(running) == 1
    assert list(svc._replica_state) == running
    world.engine.run_until(60.0)  # the replacement is up and loaded
    running = svc.running_pods()
    assert len(running) == 2
    assert list(svc._replica_state) == running


def test_micro_tick_call_budget():
    # Profiled calls per Microservice.tick on the fleet smoke shape (six
    # adaptive services on three nodes for 300 s, 1,800 ticks): 11.83
    # measured (Python 3.11) since each usage is written directly; the
    # budget is that plus ~25%. The tick through Pod.record_usage read
    # 14.72, and the per-replica step with min/max builtins 40.8. The run
    # is seeded, so the count is the same on every machine.
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.workloads.plo import LatencyPLO

    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=3),
        scheduler="converged",
        policy="adaptive",
    )
    services = [
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=3600.0,
                               phase=i * 120.0),
            demands=DEMANDS,
            allocation=REPLICA,
            plo=LatencyPLO(0.06, window=30),
        )
        for i in range(6)
    ]
    profile = cProfile.Profile()
    ticks = 0

    def profiled(step, dt, now):
        nonlocal ticks
        ticks += 1
        profile.runcall(step, dt, now)

    for svc in services:
        svc.tick = functools.partial(profiled, svc.tick)
    platform.run(300.0)
    assert ticks == 1_800
    # Each runcall also records the profiler's own disable() call.
    per_tick = (pstats.Stats(profile).total_calls - ticks) / ticks
    assert per_tick < 14.8, f"{per_tick:.1f} profiled calls per microservice tick"
