"""The stream tick against the per-worker tick it replaced.

``StreamJob.tick`` computes a worker's capacity and usage again only
where the allocation object changes along the worker list (per worker
under FT, where node speed differs per pod) and writes each usage
straight into the pod with the comparisons ``Pod.record_usage`` made.
This module keeps the previous tick as the reference: ``_worker_capacity``
for every worker, ``min``/``max`` builtins, and every usage built as a
``ResourceVector`` and stored through ``Pod.record_usage``.

Each scenario runs twice from the same state, once on each path. After
every tick of every job the two runs must agree by ``repr`` on the job's
lag, rate, watermark delay, processed and arrived totals, offered rate
and FT counters, and on every pod's usage, so a float that differs in its
last bit fails. The scenarios cover workers on one allocation object and
on objects A, B, A; FT with a slowed node and a lost worker (restart,
restore, resubmission); memory pressure; no network cost, no CPU cost
and neither (infinite capacity, and a separate test for keyed state
without either cost); a worker without memory; a worker
whose allocation holds NaN, also while the job restores; a job with no
running worker; and ticks whose ``dt`` is not 1.
"""

from __future__ import annotations

import cProfile
import functools
import math
import pstats
from dataclasses import replace

import pytest

from repro.arena import derive_slos
from repro.cluster.chaos import StragglerInjector
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.scenarios import load_scenario
from repro.scenarios.spec import build_platform
from repro.sim.engine import Engine
from repro.workloads.stream import Operator, StreamJob
from repro.workloads.traces import StepTrace
from tests.conftest import make_api

NODE = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)
WORKER = ResourceVector(cpu=2, memory=4, disk_bw=10, net_bw=50)
#: 0.005 CPU-s and 0.4 MB of state per source event: 400 events/s on
#: two cores, 5,000 on 50 MB/s at the default 0.01 MB per event.
CHAIN = [
    Operator("parse", cpu_seconds=0.002),
    Operator("filter", cpu_seconds=0.001, selectivity=0.2),
    Operator("window", cpu_seconds=0.01, state_mb_per_eps=2.0),
]
#: Above three workers' capacity from 100 s to 200 s, then below it.
SURGE = StepTrace([(0.0, 600.0), (100.0, 1_500.0), (200.0, 300.0)])

# -- the reference: the tick before one loop ------------------------------------


def ref_worker_capacity(job, pod):
    caps = []
    if job.cpu_per_event > 0:
        caps.append(pod.allocation.cpu / job.cpu_per_event)
    if job.event_mb > 0:
        caps.append(pod.allocation.net_bw / job.event_mb)
    capacity = min(caps) if caps else float("inf")
    needed = job.mem_base + job.state_mb_per_eps * capacity / 1024.0
    mem = max(pod.allocation.memory, 1e-9)
    if needed > mem:
        capacity *= mem / needed
    return capacity


def ref_tick(job, dt, now):
    offered = max(0.0, job.trace.rate(now))
    job.current_offered = offered
    workers = job.running_pods()
    arrivals = offered * dt
    job.total_arrived += arrivals
    restoring = job._ft_pre_tick(now) if job.ft else False
    if not workers or restoring:
        job.lag_events += arrivals
        job.current_rate = 0.0
        if workers:
            for pod in workers:
                pod.record_usage(
                    ResourceVector(memory=min(pod.allocation.memory, job.mem_base))
                )
        else:
            job.current_lag_seconds = job.max_lag_seconds
        return
    total_capacity = 0.0
    share = (job.lag_events + arrivals) / len(workers)
    for pod in workers:
        capacity = ref_worker_capacity(job, pod)
        if job.ft:
            capacity *= job._node_speed(pod)
        total_capacity += capacity
        processed_rate = min(capacity, share / dt)
        state_mem = job.mem_base + job.state_mb_per_eps * processed_rate / 1024.0
        pod.record_usage(
            ResourceVector(
                cpu=processed_rate * job.cpu_per_event,
                memory=min(pod.allocation.memory, state_mem),
                disk_bw=0.0,
                net_bw=processed_rate * job.event_mb,
            )
        )
    processed = min(job.lag_events + arrivals, total_capacity * dt)
    job.lag_events = max(0.0, job.lag_events + arrivals - processed)
    job.total_processed += processed
    job.current_rate = processed / dt
    if total_capacity > 0:
        job.current_lag_seconds = min(
            job.max_lag_seconds, job.lag_events / total_capacity
        )
    else:
        job.current_lag_seconds = job.max_lag_seconds


# -- scenarios --------------------------------------------------------------------


class World:
    """Nodes and the stream jobs of one scenario; workers are bound by hand."""

    def __init__(self, *, nodes=3):
        self.engine = Engine()
        self.cluster = Cluster(
            self.engine, [Node(f"node-{i}", NODE) for i in range(nodes)]
        )
        self.api = make_api(self.cluster)
        self.jobs: list[StreamJob] = []

    def job(
        self,
        name,
        *,
        trace=SURGE,
        workers=3,
        allocation=WORKER,
        operators=CHAIN,
        at=0.0,
        **kw,
    ):
        job = StreamJob(
            name,
            self.engine,
            self.api,
            trace=trace,
            operators=operators,
            initial_allocation=allocation,
            initial_workers=workers,
            **kw,
        )
        job.maintain_replicas = True
        self.jobs.append(job)
        self.engine.schedule_at(at, job.start)
        return job

    def bind(self, time, job, count=None):
        """At ``time``, bind up to ``count`` pending workers round-robin."""

        def bind():
            names = sorted(self.cluster.nodes)
            pending = [p for p in self.api.pending_pods() if p.app == job.name]
            for i, pod in enumerate(pending[:count]):
                self.api.bind_pod(pod.name, names[i % len(names)])

        self.engine.schedule_at(time, bind)

    def resize(self, time, job, worker, **dims):
        """At ``time``, resize one running worker in place (1 s to apply)."""

        def resize():
            pod = job.running_pods()[worker]
            assert self.api.patch_pod_allocation(
                pod.name, pod.allocation.replace(**dims)
            )

        self.engine.schedule_at(time, resize)

    def kill(self, time, job, worker):
        def kill():
            self.api.delete_pod(job.running_pods()[worker].name, reason="chaos")

        self.engine.schedule_at(time, kill)

    def overwrite(self, start, end, job, worker, **dims):
        """From ``start`` to ``end``, one worker's allocation holds ``dims``.

        No cluster verb grants a NaN or zero field, so this writes the
        allocation into the pod and puts the old one back at ``end``.
        """
        held = {}

        def corrupt():
            pod = job.running_pods()[worker]
            held[pod] = pod.allocation
            pod.allocation = pod.allocation.replace(**dims)

        def restore():
            for pod, allocation in held.items():
                pod.allocation = allocation

        self.engine.schedule_at(start, corrupt)
        self.engine.schedule_at(end, restore)


def one_object():
    """Three workers sharing one allocation object through a surge."""
    world = World()
    job = world.job("pipe")
    world.bind(0.5, job)
    return world, 400.0


def objects_a_b_a():
    """The middle worker resized: objects A, B, A along the list, then one
    object again after a job-wide resize."""
    world = World()
    job = world.job("pipe")
    world.bind(0.5, job)
    world.resize(30.5, job, 1, cpu=1, net_bw=20)
    world.engine.schedule_at(
        250.5, lambda: job.set_target_allocation(WORKER.replace(cpu=3))
    )
    return world, 400.0


def ft_slowed_and_lost():
    """FT: a straggler node, then a lost worker restarted from the last
    checkpoint, restored, and resubmitted; one worker's memory reads NaN
    while the job restores."""
    world = World()
    job = world.job("pipe", ft=True)
    world.bind(0.5, job)
    world.overwrite(96.2, 99.2, job, 1, memory=math.nan)
    straggler = StragglerInjector(world.cluster, factor=0.4)
    token = {}
    world.engine.schedule_at(
        40.5, lambda: token.setdefault("node", straggler.strike("node-1"))
    )
    world.kill(95.5, job, 0)
    world.bind(110.5, job)
    world.engine.schedule_at(160.5, lambda: straggler.heal(token["node"]))
    return world, 400.0


def memory_pressure():
    """State outgrows a worker's memory, so memory cuts capacity; for
    20 s one worker holds no memory at all (the cut's 1e-9 GiB floor)."""
    world = World()
    heavy = CHAIN[:2] + [Operator("window", cpu_seconds=0.01, state_mb_per_eps=40.0)]
    job = world.job(
        "pipe", operators=heavy, allocation=WORKER.replace(memory=1.5)
    )
    world.bind(0.5, job)
    world.resize(60.5, job, 2, memory=0.4)
    world.overwrite(120.5, 140.5, job, 0, memory=0.0)
    return world, 400.0


def costless():
    """No network cost, no CPU cost, and neither: infinite capacity."""
    world = World()
    free_cpu = [Operator("map", cpu_seconds=0.0)]
    for name, operators, event_mb in (
        ("no-net", CHAIN, 0.0),
        ("no-cpu", free_cpu, 0.01),
        ("neither", free_cpu, 0),
    ):
        job = world.job(name, operators=operators, event_mb=event_mb, workers=2)
        world.bind(0.5, job)
    return world, 300.0


def nan_allocation():
    """A worker whose allocation holds NaN CPU, memory and network for
    20 s: each clamp must take the operand ``min``/``max`` take."""
    world = World()
    job = world.job("pipe")
    world.bind(0.5, job)
    world.overwrite(
        40.5, 60.5, job, 1, cpu=math.nan, memory=math.nan, net_bw=math.nan
    )
    return world, 300.0


def no_workers():
    """Workers bound only at 50 s, all lost at 150 s, rebound at 170 s."""
    world = World()
    job = world.job("pipe", workers=2)
    world.bind(50.5, job)
    for _ in range(2):
        world.kill(150.5, job, 0)
    world.bind(170.5, job)
    return world, 300.0


def off_power_of_two():
    """Ticks from t = 1.3 on: the step across 128 s is not exactly 1 s."""
    world = World()
    job = world.job("pipe", at=0.3, ft=True)
    world.bind(0.5, job)
    return world, 400.0


SCENARIOS = {
    "one-object": one_object,
    "objects-a-b-a": objects_a_b_a,
    "ft-slowed-and-lost": ft_slowed_and_lost,
    "memory-pressure": memory_pressure,
    "costless": costless,
    "nan-allocation": nan_allocation,
    "no-workers": no_workers,
    "off-power-of-two": off_power_of_two,
}


# -- running both paths -------------------------------------------------------------


def _usage(pod) -> str:
    u = pod.usage
    return repr((u.cpu, u.memory, u.disk_bw, u.net_bw))


def _snapshot(world, job, now) -> tuple:
    ft = (job.checkpoints, job.restarts, repr(job.replayed_total)) if job.ft else ()
    return (
        job.name,
        repr(now),
        repr(job.lag_events),
        repr(job.current_rate),
        repr(job.current_lag_seconds),
        repr(job.total_processed),
        repr(job.total_arrived),
        repr(job.current_offered),
        ft,
        [(p.name, _usage(p)) for p in world.cluster.pods.values()],
    )


def _run(scenario, *, reference: bool):
    """The world, every tick's snapshot, and per tick (dt, running
    workers, their allocation objects as first-seen indices: ``(0, 1,
    0)`` is A, B, A)."""
    world, horizon = scenario()
    snapshots: list[tuple] = []
    steps: list[tuple[float, int, int]] = []
    for job in world.jobs:
        step = functools.partial(ref_tick, job) if reference else job.tick

        def tick(dt, now, job=job, step=step):
            running = job.running_pods()
            ids = [id(p.allocation) for p in running]
            steps.append((dt, len(running), tuple(map(ids.index, ids))))
            step(dt, now)
            snapshots.append(_snapshot(world, job, now))

        job.tick = tick
    world.engine.run_until(horizon)
    return world, snapshots, steps


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_tick_matches_reference(name):
    _, fast, _ = _run(SCENARIOS[name], reference=False)
    _, ref, _ = _run(SCENARIOS[name], reference=True)
    assert len(fast) == len(ref)
    for tick, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"{name}: tick {tick} ({got[0]} at t={got[1]}) differs"


def test_workers_step_on_objects_a_b_a():
    _, _, steps = _run(objects_a_b_a, reference=False)
    assert (0, 1, 0) in {objects for _, _, objects in steps}
    # After the job-wide resize every worker shares one object again.
    assert steps[-1][2] == (0, 0, 0)


def test_ft_worker_loss_restarts_and_restores():
    world, snapshots, _ = _run(ft_slowed_and_lost, reference=False)
    job = world.jobs[0]
    assert job.restarts == 1 and job.replayed_total > 0
    # Rates read 0 while restoring, with workers up.
    restoring = [s for s in snapshots if 95.0 < float(s[1]) < 100.0]
    assert restoring and all(s[3] == "0.0" for s in restoring)


def test_memory_pressure_cuts_capacity():
    world, _, _ = _run(memory_pressure, reference=False)
    job = world.jobs[0]
    squeezed = job.running_pods()[2]
    # Without the cut, 2 cores serve 400 events/s; at 0.4 GiB it serves
    # less, so its CPU use stays under what 400 events/s would take.
    assert 0.0 < squeezed.usage.cpu < 400 * job.cpu_per_event


def test_costless_jobs_have_unbounded_capacity():
    world, snapshots, _ = _run(costless, reference=False)
    last = {s[0]: s for s in snapshots}
    assert last["neither"][4] == "0.0"  # lag / inf
    assert last["no-net"][3] != "nan" and last["no-cpu"][3] != "nan"


def test_costless_worker_with_state_is_cut_by_its_memory():
    # No CPU and no network cost, but 4 MB of state per event/s: each
    # worker's capacity is the memory cut's limit, 1024 × 4 GiB / 4 =
    # 1,024 events/s, not inf × (4 / inf), which is NaN.
    world = World()
    job = world.job(
        "neither-with-state",
        trace=StepTrace([(0.0, 1_000.0), (100.0, 3_000.0), (200.0, 500.0)]),
        operators=[Operator("map", cpu_seconds=0.0, state_mb_per_eps=4.0)],
        event_mb=0.0,
        workers=2,
    )
    world.bind(0.5, job)
    world.engine.run_until(99.0)
    # Below capacity: the backlog from before the workers started is
    # gone, and each worker holds the state for its 500 events/s.
    assert job.lag_events == 0.0 and job.current_rate == 1_000.0
    state_mb = job.mem_base + 4.0 * 500.0 / 1024.0
    assert [pod.usage.memory for pod in job.running_pods()] == [state_mb] * 2
    world.engine.run_until(150.0)
    # The surge outruns both workers: they process 2,048 events/s and the
    # lag grows by the rest over the 51 ticks from 100 s to 150 s, with a
    # finite watermark delay.
    assert job.current_rate == 2_048.0
    assert job.lag_events == 51 * (3_000.0 - 2_048.0)
    assert job.current_lag_seconds == job.lag_events / 2_048.0
    assert 0.0 < job.current_lag_seconds < StreamJob.max_lag_seconds


def test_a_tick_without_workers_and_dt_off_one():
    _, _, steps = _run(no_workers, reference=False)
    assert any(running == 0 for _, running, _ in steps)
    _, _, steps = _run(off_power_of_two, reference=False)
    assert any(dt != 1.0 and running for dt, running, _ in steps)


def test_stream_tick_call_budget():
    # Profiled calls per StreamJob.tick over the stream ticks of the
    # adaptive flash-crowd and zone-outage arena cells at 450 s (one
    # stream job each, 900 ticks): 6.94 measured (Python 3.11); the
    # budget is that plus ~25%. The tick with a _worker_capacity call and
    # a Pod.record_usage call per worker read 32.3. The cells are seeded,
    # so the count is the same on every machine.
    profile = cProfile.Profile()
    ticks = 0

    def profiled(step, dt, now):
        nonlocal ticks
        ticks += 1
        profile.runcall(step, dt, now)

    for name in ("flash-crowd", "zone-outage"):
        spec = replace(load_scenario(name).spec, horizon=450.0, policy="adaptive")
        spec = replace(spec, slos=derive_slos(spec))
        platform = build_platform(spec, telemetry=True)
        for app in platform.apps.values():
            if isinstance(app, StreamJob):
                app.tick = functools.partial(profiled, app.tick)
        platform.run(spec.horizon)
    assert ticks == 900
    # Each runcall also records the profiler's own disable() call.
    per_tick = (pstats.Stats(profile).total_calls - ticks) / ticks
    assert per_tick < 8.7, f"{per_tick:.1f} profiled calls per stream tick"
