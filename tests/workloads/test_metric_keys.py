"""Each workload class exports exactly the gauges some program reads.

The key lists are pinned in order: under a per-sample metrics fault the
declared keys pass through the fault filter in this order, and the
filter's RNG draws are part of the seeded stream.
"""

import numpy as np
import pytest

from repro.cluster.cluster import STARTUP_DELAY
from repro.cluster.resources import ResourceVector
from repro.workloads.arrivals import MarkedArrivals, ParetoSizes, PoissonArrivals
from repro.workloads.bigdata import BigDataJob, Stage
from repro.workloads.hpc import HPCJob
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.stream import Operator, StreamJob
from repro.workloads.traces import ConstantTrace

ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=100)

#: What every application exports: the per-resource totals the control
#: loop, the HPA/VPA baselines and the cost analysis read.
BASE = (
    "alloc/cpu", "alloc/memory", "alloc/disk_bw", "alloc/net_bw",
    "usage/cpu", "usage/memory", "usage/disk_bw", "usage/net_bw",
)
#: Latency and throughput PLOs, SLOs and the feedforward scaler's input.
SERVING = BASE + ("latency", "throughput", "offered")


def _run(engine, api, app, seconds=60.0):
    app.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(engine.now + STARTUP_DELAY + seconds)
    return list(app.sample_metrics(engine.now))


def _micro(engine, api, **kwargs):
    return Microservice(
        "svc", engine, api, trace=ConstantTrace(50.0),
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
        initial_allocation=ALLOC, **kwargs,
    )


def test_microservice(engine, api):
    assert _run(engine, api, _micro(engine, api)) == list(SERVING)


def test_microservice_with_marked_arrivals(engine, api):
    marked = MarkedArrivals(
        PoissonArrivals(ConstantTrace(50.0), np.random.default_rng(0)),
        ParetoSizes(alpha=1.6),
        np.random.default_rng(1),
    )
    svc = _micro(engine, api, arrivals=marked)
    assert _run(engine, api, svc) == [*SERVING, "size_factor"]


def test_microservice_during_and_after_a_brownout(engine, api):
    svc = _micro(engine, api)
    svc.enter_brownout(factor=0.5, latency_penalty=0.01)
    assert _run(engine, api, svc) == list(SERVING)
    svc.exit_brownout()
    engine.run_until(engine.now + 10.0)
    assert svc.brownouts_entered == 1
    assert list(svc.sample_metrics(engine.now)) == list(SERVING)


@pytest.mark.parametrize("ft", [False, True], ids=["ft-off", "ft-on"])
def test_stream(engine, api, ft):
    job = StreamJob(
        "stream", engine, api, trace=ConstantTrace(100.0),
        operators=[Operator("parse", 0.004), Operator("agg", 0.002)],
        initial_allocation=ALLOC, ft=ft,
    )
    assert _run(engine, api, job) == list(SERVING)


@pytest.mark.parametrize("ft", [False, True], ids=["ft-off", "ft-on"])
def test_bigdata(engine, api, ft):
    job = BigDataJob(
        "job", engine, api, stages=[Stage("map", 5000.0)],
        initial_allocation=ALLOC, ft=ft,
    )
    # progress is what a DeadlinePLO reads.
    assert _run(engine, api, job) == [*BASE, "progress"]


def test_hpc(engine, api):
    job = HPCJob("mpi", engine, api, ranks=2, duration=1000.0, allocation=ALLOC)
    assert _run(engine, api, job) == list(BASE)
