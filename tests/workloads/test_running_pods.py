"""``Application.running_pods`` keeps its list until a pod changes phase.

The list is rebuilt only when the cluster's phase epoch moves (bind,
start, finish, evict) or the app's own replica list changes (submit,
``scale_to``, prune, ``stop``, a finished job dropping its pods). This
module drives every one of those through a platform run and checks,
after every engine event and for every app, that the returned list is
the one a fresh scan of the replica list gives, in order, and that a
second call returns the same object.
"""

from __future__ import annotations

from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.bigdata import fork_join_stages
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace

DEMANDS = ServiceDemands(cpu_seconds=0.008, disk_mb=0.1, base_latency=0.01)
REPLICA = ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15)
EXECUTOR = ResourceVector(cpu=2, memory=4, disk_bw=60, net_bw=60)


def _running(app):
    """The scan ``running_pods`` used to run on every call."""
    return [p for p in app._pods if p.phase == PodPhase.RUNNING]


def _world():
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=11),
        scheduler="converged",
        policy="adaptive",
    )
    web = platform.deploy_microservice(
        "web", trace=ConstantTrace(120.0), demands=DEMANDS,
        allocation=REPLICA, plo=LatencyPLO(0.06, window=30), replicas=3,
    )
    platform.deploy_microservice(
        "api", trace=ConstantTrace(40.0), demands=DEMANDS,
        allocation=REPLICA, replicas=2, managed=False,
    )
    job = platform.submit_bigdata(
        "etl",
        stages=fork_join_stages(
            width=2, source_work=40.0, branch_work=60.0, join_work=20.0,
            input_mb=64.0, branch_parallelism=2,
        ),
        allocation=EXECUTOR,
        executors=3,
        delay=20.0,
    )
    at = platform.engine.schedule_at
    api, injector = platform.api, platform.injector
    crashed = []

    def evict_running():
        api.delete_pod(web.running_pods()[0].name, reason="chaos")

    def crash_node():
        crashed.append(platform.apps["api"].running_pods()[0].node_name)
        injector.fail_node(crashed[0])

    def evict_starting():
        starting = [p for p in web._pods if p.phase == PodPhase.SCHEDULED]
        api.delete_pod(starting[-1].name, reason="chaos")

    at(30.5, evict_running)  # self-healing resubmits on the next tick
    at(60.5, lambda: web.scale_to(5))
    at(90.5, crash_node)
    at(150.5, lambda: injector.recover_node(crashed[0]))
    at(180.5, lambda: web.scale_to(2))
    at(210.5, lambda: web.scale_to(4))
    at(212.5, evict_starting)
    at(300.5, lambda: platform.apps["api"].stop())
    return platform, job


def test_kept_list_matches_a_fresh_scan_after_every_event():
    platform, job = _world()
    engine, api = platform.engine, platform.api
    platform.start_control_plane()
    kept: dict[str, tuple] = {}
    reused = rebuilt = 0
    while engine.peek() is not None and engine.peek() <= 400.0:
        engine.step()
        for name, app in platform.apps.items():
            got = app.running_pods()
            assert got == _running(app), f"{name} at t={engine.now}"
            assert app.running_pods() is got
            # No phase write and the same replica list as after the
            # last event (not pruned, nothing added or removed): the
            # same list object.
            state = (api.phase_epoch, app._pods, list(app._pods))
            last = kept.get(name)
            if last is not None and last[0] == state[0] and last[1] is state[1] \
                    and last[2] == state[2]:
                assert got is last[3], f"{name} at t={engine.now}"
                reused += 1
            else:
                rebuilt += 1
            kept[name] = (*state, got)
    assert job.finished and job.running_pods() == []
    assert platform.apps["api"].finished
    assert injector_struck(platform)
    assert reused > 20 * rebuilt


def injector_struck(platform) -> bool:
    return bool(platform.injector.failures) and platform.injector.recoveries == 1


def test_a_prune_waits_for_a_phase_write():
    # Pods turn terminal only at a phase write, so from one tick to the
    # next with the epoch unchanged the replica list object is kept. The
    # unmanaged service is never scaled, only crashed and healed.
    platform, _ = _world()
    app, api = platform.apps["api"], platform.api
    ticks = []
    step = app.tick

    def tick(dt, now):
        pods = app._pods
        ticks.append((api.phase_epoch, pods, any(p.terminal for p in pods)))
        step(dt, now)

    app.tick = tick
    platform.run(300.0)
    kept = pruned = 0
    for (epoch, pods, _), (next_epoch, next_pods, terminal) in zip(
        ticks, ticks[1:]
    ):
        assert not terminal  # every tick starts pruned
        if next_epoch == epoch:
            assert next_pods is pods
            kept += 1
        elif next_pods is not pods:
            pruned += 1
    assert kept > 200 and pruned > 5
