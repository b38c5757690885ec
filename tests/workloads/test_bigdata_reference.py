"""The fluid big-data tick against the per-tick recompute it replaced.

``BigDataJob.tick`` keeps three results while their inputs are unchanged:
the runnable-stage list, the executor→stage assignment, and one plan per
executor (stage work, stage input and the clamped usage vector). This
module keeps the previous fluid tick as the reference: ``runnable_stages``
and ``_assign_executors`` on every tick, and every executor step computed
afresh through ``ResourceVector(...)`` plus ``Pod.record_usage``. Its
body is the old one, less an unreachable ``math.inf`` fallback.

Each scenario runs twice from the same state, once on each path. After
every tick of every job the two runs must agree by ``repr`` on each
stage's remaining work and input, each pod's usage, the job's throughput
and its completion time, so a float that differs in its last bit fails.
Each scenario changes at least one input the plan is keyed on while the
stages run: which stage an executor serves, its allocation, its
accelerated CPU rate, its locality, the input bandwidth, whether input
remains, and ``dt``.
"""

from __future__ import annotations

import cProfile
import functools
import pstats

import numpy as np
import pytest

from repro.cluster.api import ClusterAPI
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.scheduler.kube import KubeScheduler
from repro.sim.engine import Engine
from repro.storage.objectstore import ObjectStore
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import (
    BigDataJob,
    Stage,
    fork_join_stages,
    skewed_fanout_stages,
)

NODE = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)
EXECUTOR = ResourceVector(cpu=2, memory=4, disk_bw=60, net_bw=60)

# -- the reference: the fluid tick before plans ---------------------------------


def ref_advance_executor(job, pod, stage, dt):
    cpu_rate = pod.allocation.cpu
    if (
        stage.accel_speedup > 1.0
        and job.accelerator is not None
        and pod.node_name is not None
        and job.api.get_node(pod.node_name).labels.get("accelerator")
        == job.accelerator
    ):
        cpu_rate *= stage.accel_speedup
    local_frac, in_bw = job._input_locality(pod, stage)
    if stage.input_mb > 0 and stage.remaining_input > 0:
        work_frac_rate = cpu_rate / stage.work_cpu_seconds
        input_frac_rate = in_bw / stage.input_mb
        frac_rate = min(work_frac_rate, input_frac_rate)
        stage_work = frac_rate * stage.work_cpu_seconds * dt
        stage_input = frac_rate * stage.input_mb * dt
        cpu_used = stage_work / dt
        io_used = min(in_bw, stage_input / dt)
    else:
        stage_work = cpu_rate * dt
        stage_input = 0.0
        cpu_used = cpu_rate
        io_used = 0.0
    stage_work = min(stage_work, stage.remaining_work)
    stage_input = min(stage_input, stage.remaining_input)
    stage.remaining_work = max(0.0, stage.remaining_work - stage_work)
    stage.remaining_input = max(0.0, stage.remaining_input - stage_input)
    pod.record_usage(
        ResourceVector(
            cpu=min(cpu_used, pod.allocation.cpu),
            memory=min(pod.allocation.memory, 0.5 + 0.1 * pod.allocation.cpu),
            disk_bw=io_used * local_frac,
            net_bw=io_used * (1 - local_frac),
        )
    )
    return stage_work


def ref_tick(job, dt, now):
    if job.done:
        return
    runnable = job.runnable_stages()
    if not runnable:
        job._complete(now)
        return
    executors = job.running_pods()
    assignment = job._assign_executors(runnable, executors)
    work_retired = 0.0
    for pod in executors:
        stage = assignment.get(pod.name)
        if stage is None:
            pod.record_usage(ResourceVector(memory=min(0.25, pod.allocation.memory)))
            continue
        work_retired += ref_advance_executor(job, pod, stage, dt)
    job.current_throughput = work_retired / dt
    if all(s.complete for s in job.stages):
        job._complete(now)


# -- scenarios --------------------------------------------------------------------


class World:
    """Nodes, a scheduler, an object store and the jobs of one scenario."""

    def __init__(self, *, nodes=4, labels=None, remote_penalty=0.7):
        labels = labels or {}
        self.engine = Engine()
        self.cluster = Cluster(
            self.engine,
            [Node(f"node-{i}", NODE, labels=labels.get(i)) for i in range(nodes)],
            config=ClusterConfig(startup_delay=10.0),
        )
        self.api = ClusterAPI(self.cluster)
        self.store = ObjectStore(remote_penalty=remote_penalty)
        KubeScheduler(self.engine, self.api).start()
        self.jobs: list[BigDataJob] = []

    def dataset(self, nodes, *, total_mb=8_000, skew=0.5, replication=1):
        spread_blocks(
            self.store,
            "lake",
            total_mb=total_mb,
            block_mb=100,
            nodes=[f"node-{i}" for i in nodes],
            replication=replication,
            skew=skew,
        )

    def job(self, name, stages, *, at=0.0, executors=6, allocation=EXECUTOR, **kw):
        job = BigDataJob(
            name,
            self.engine,
            self.api,
            stages=stages,
            initial_allocation=allocation,
            initial_executors=executors,
            store=self.store,
            dataset="lake" if self.store.has_bucket("lake") else None,
            **kw,
        )
        self.jobs.append(job)
        self.engine.schedule_at(at, job.start)
        return job

    def at(self, time, action):
        self.engine.schedule_at(time, action)


def fork_join_and_fanout():
    """The data-lake shape: a fork-join and a skewed fan-out job."""
    world = World()
    world.dataset([0, 1])
    world.job(
        "fork-join",
        fork_join_stages(
            width=4, source_work=600.0, branch_work=1200.0, join_work=400.0
        ),
    )
    world.job(
        "fan-out",
        skewed_fanout_stages(
            np.random.default_rng(0),
            fanout=6,
            base_work=800.0,
            source_work=400.0,
            join_work=300.0,
        ),
        at=37.5,
    )
    return world, 2_000.0


def resize_mid_stage():
    """Executors grow a core in the branches, then lose most memory."""
    world = World(nodes=2)
    world.dataset([0])
    job = world.job("job", fork_join_stages(width=4))
    grown = EXECUTOR.replace(cpu=3)
    world.at(90.5, lambda: job.set_target_allocation(grown))
    # Memory alone: the CPU rate and the bandwidths stay as they were,
    # and only the usage vector's memory changes.
    world.at(140.5, lambda: job.set_target_allocation(grown.replace(memory=0.5)))
    return world, 1_000.0


def executor_killed():
    """An executor dies mid-stage; self-healing brings a replacement up."""
    world = World(nodes=2)
    world.dataset([0, 1])
    job = world.job(
        "job",
        skewed_fanout_stages(np.random.default_rng(3), fanout=6),
        maintain_replicas=True,
    )

    def kill():
        victim = job.running_pods()[2]
        world.api.delete_pod(victim.name, reason="chaos")

    world.at(30.5, kill)
    world.at(150.5, kill)
    return world, 2_000.0


def dark_replica_node():
    """A node holding the whole dataset goes dark and comes back.

    Liveness changes without a store-epoch bump. Disk and network
    bandwidth are equal at a remote penalty of 1, so the input bandwidth
    is the same at locality 1 and 0 and only the usage split tells them
    apart. While the node is dark the remote penalty drops, which moves
    the input bandwidth and nothing else.
    """
    world = World(nodes=2, remote_penalty=1.0)
    world.dataset([0, 1], skew=0.0, replication=2)
    dark: set[str] = set()
    world.store.node_liveness = lambda name: name not in dark
    world.job("job", [Stage("scan", 300.0, input_mb=40_000.0)])
    world.at(40.5, lambda: dark.add("node-0"))
    world.at(60.5, lambda: setattr(world.store, "remote_penalty", 0.5))
    world.at(80.5, lambda: dark.discard("node-0"))
    return world, 1_000.0


def accelerator_node():
    """Accelerable branches on an FPGA node; the FPGA then goes away."""
    world = World(nodes=2, labels={0: {"accelerator": "fpga"}})
    world.dataset([1])
    world.job(
        "job",
        fork_join_stages(width=4, accel_speedup=4.0),
        accelerator="fpga",
    )
    labels = world.cluster.get_node("node-0").labels
    world.at(70.5, lambda: labels.pop("accelerator"))
    return world, 1_000.0


def input_runs_out_first():
    """A stage that has read most of its input steps CPU-only after it."""
    world = World(nodes=2)
    scan = Stage("scan", 900.0, input_mb=2_000.0)
    scan.remaining_input = 200.0
    world.job("job", [scan, Stage("sink", 100.0, deps=("scan",))])
    return world, 1_000.0


def off_power_of_two():
    """Ticks from t = 1.3 on: the step across 128 s is not exactly 1 s."""
    world = World(nodes=2)
    world.dataset([0])
    world.job("job", fork_join_stages(width=4), at=0.3)
    return world, 1_000.0


SCENARIOS = {
    "fork-join-and-fanout": fork_join_and_fanout,
    "resize-mid-stage": resize_mid_stage,
    "executor-killed": executor_killed,
    "dark-replica-node": dark_replica_node,
    "accelerator-node": accelerator_node,
    "input-runs-out-first": input_runs_out_first,
    "off-power-of-two": off_power_of_two,
}


# -- running both paths -------------------------------------------------------------


def _usage(pod) -> str:
    u = pod.usage
    return repr((u.cpu, u.memory, u.disk_bw, u.net_bw))


def _snapshot(world, job, now) -> tuple:
    return (
        job.name,
        repr(now),
        [(s.name, repr(s.remaining_work), repr(s.remaining_input)) for s in job.stages],
        [(p.name, _usage(p)) for p in world.cluster.pods.values()],
        repr(job.current_throughput),
        repr(job.completed_at),
    )


def _run(scenario, *, reference: bool):
    """The world, every tick's snapshot, and per tick (dt, executors
    stepped, plans reused from the previous tick)."""
    world, horizon = scenario()
    snapshots: list[tuple] = []
    steps: list[tuple[float, int, int]] = []
    for job in world.jobs:
        step = functools.partial(ref_tick, job) if reference else job.tick

        def tick(dt, now, job=job, step=step):
            before = dict(job._plans)
            step(dt, now)
            snapshots.append(_snapshot(world, job, now))
            reused = sum(before.get(pod) is plan for pod, plan in job._plans.items())
            steps.append((dt, len(job._plans), reused))

        job.tick = tick
    world.engine.run_until(horizon)
    return world, snapshots, steps


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_tick_matches_reference(name):
    world, fast, steps = _run(SCENARIOS[name], reference=False)
    _, ref, _ = _run(SCENARIOS[name], reference=True)
    assert len(fast) == len(ref)
    for tick, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"{name}: tick {tick} ({got[0]} at t={got[1]}) differs"
    assert all(job.done for job in world.jobs), f"{name}: a job did not finish"
    # The scenario exercised reuse, not only the recompute path.
    assert sum(reused for _, _, reused in steps) > 0


def test_a_tick_steps_with_dt_off_one():
    _, _, steps = _run(off_power_of_two, reference=False)
    assert any(dt != 1.0 and stepped for dt, stepped, _ in steps)


def test_dark_node_leaves_the_store_epoch_alone():
    world, horizon = dark_replica_node()
    epoch = world.store.epoch
    world.engine.run_until(horizon)
    assert world.store.epoch == epoch


def test_plan_map_holds_only_the_last_tick_steps():
    world, _ = executor_killed()
    world.engine.run_until(32.0)  # two ticks after the first kill
    (job,) = world.jobs
    assert len(job._plans) == 5
    assert all(pod.phase is PodPhase.RUNNING for pod in job._plans)


def test_fluid_tick_call_budget():
    # Profiled calls per fluid BigDataJob.tick on the data-lake smoke shape
    # (four nodes, a skewed dataset, a fork-join and a skewed fan-out job,
    # 420 simulated seconds, 802 ticks): 53.2 measured (Python 3.11); the
    # budget is that plus ~25%. The per-tick recompute read 218.1 here.
    # The run is seeded, so the count is the same on every machine.
    world, _ = fork_join_and_fanout()
    profile = cProfile.Profile()
    ticks = 0

    def profiled(step, dt, now):
        nonlocal ticks
        ticks += 1
        profile.runcall(step, dt, now)

    for job in world.jobs:
        job.tick = functools.partial(profiled, job.tick)
    world.engine.run_until(420.0)
    # Each runcall also records the profiler's own disable() call.
    per_tick = (pstats.Stats(profile).total_calls - ticks) / ticks
    assert per_tick < 66, f"{per_tick:.1f} profiled calls per fluid tick"
