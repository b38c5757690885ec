"""Edge-case tests for converged scheduler scoring knobs."""

import pytest

from repro.cluster.pod import WorkloadClass
from repro.scheduler.converged import ConvergedScheduler
from repro.scheduler.kube import least_allocated_score, most_allocated_score
from repro.storage.objectstore import ObjectStore
from tests.conftest import make_spec


def test_invalid_packing_mode(engine, api):
    with pytest.raises(ValueError, match="packing"):
        ConvergedScheduler(engine, api, store=ObjectStore(), packing="tetris")


def test_most_allocated_is_dual(engine, api):
    api.create_pod(make_spec("filler", cpu=8))
    api.bind_pod("filler", "node-0")
    pod = api.create_pod(make_spec("new", cpu=1))
    busy = api.get_node("node-0")
    idle = api.get_node("node-1")
    assert least_allocated_score(idle, pod) > least_allocated_score(busy, pod)
    assert most_allocated_score(busy, pod) > most_allocated_score(idle, pod)
    for node in (busy, idle):
        assert most_allocated_score(node, pod) == pytest.approx(
            1.0 - least_allocated_score(node, pod)
        )


def test_consolidate_fills_one_node_first(engine, api):
    scheduler = ConvergedScheduler(engine, api, store=ObjectStore(),
                                   packing="consolidate",
                                   interference_weight=0.0)
    scheduler.start()
    for i in range(4):
        api.create_pod(make_spec(f"p{i}", cpu=2))
        engine.run_until(engine.now + 1.0)
    nodes_used = {api.get_pod(f"p{i}").node_name for i in range(4)}
    assert len(nodes_used) == 1


def test_preference_weight_breaks_ties(engine, api):
    api.get_node("node-1").labels["accelerator"] = "fpga"
    scheduler = ConvergedScheduler(
        engine, api, store=ObjectStore(), interference_weight=0.0
    )
    spec = make_spec("exec", workload_class=WorkloadClass.BIGDATA)
    pod = api.create_pod(spec)
    object.__setattr__(pod.spec, "node_preference", {"accelerator": "fpga"})
    assert scheduler.select_node(pod).name == "node-1"
