"""Unit tests for gang admission."""

from unittest.mock import patch

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.scheduler.gang import GangAdmission, _exceeds_headroom
from tests.conftest import make_spec


CAP = ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=500)


def pods(n, cpu=4.0, gang="g"):
    return [
        Pod(make_spec(f"rank-{i}", cpu=cpu, gang_id=gang), created_at=0.0)
        for i in range(n)
    ]


def nodes(n):
    return [Node(f"node-{i}", CAP) for i in range(n)]


def test_empty_gang_trivially_assignable():
    assert GangAdmission().find_assignment([], nodes(1)) == {}


def test_no_nodes_fails():
    assert GangAdmission().find_assignment(pods(1), []) is None


def test_gang_fits_one_per_node():
    assignment = GangAdmission().find_assignment(pods(3, cpu=6), nodes(3))
    assert assignment is not None
    assert len(assignment) == 3
    assert len(set(assignment.values())) == 3  # spread


def test_gang_packs_two_per_node():
    assignment = GangAdmission().find_assignment(pods(4, cpu=4), nodes(2))
    assert assignment is not None
    per_node = {}
    for node in assignment.values():
        per_node[node] = per_node.get(node, 0) + 1
    assert all(count == 2 for count in per_node.values())


def test_oversized_gang_rejected_atomically():
    # 5 ranks × 6 cpu onto 2 nodes × 8 cpu: impossible.
    assignment = GangAdmission().find_assignment(pods(5, cpu=6), nodes(2))
    assert assignment is None


def test_respects_existing_load():
    node_list = nodes(2)
    filler = Pod(make_spec("filler", cpu=7), created_at=0.0)
    node_list[0].bind(filler)
    assignment = GangAdmission().find_assignment(pods(2, cpu=6), node_list)
    assert assignment is None  # only node-1 has room for one rank


def test_assignment_respects_capacity():
    node_list = nodes(2)
    assignment = GangAdmission().find_assignment(pods(4, cpu=4), node_list)
    loads = {n.name: ResourceVector.zero() for n in node_list}
    all_pods = {p.name: p for p in pods(4, cpu=4)}
    for pod_name, node_name in assignment.items():
        loads[node_name] = loads[node_name] + all_pods[pod_name].allocation
    for node in node_list:
        assert loads[node.name].fits_within(node.allocatable)


def test_heterogeneous_gang_largest_first():
    big = Pod(make_spec("big", cpu=8, gang_id="g"), created_at=0.0)
    small = [
        Pod(make_spec(f"s{i}", cpu=2, gang_id="g"), created_at=0.0) for i in range(4)
    ]
    assignment = GangAdmission().find_assignment([*small, big], nodes(2))
    assert assignment is not None
    # The 8-cpu rank monopolizes one node; the rest pack on the other.
    big_node = assignment["big"]
    assert all(assignment[f"s{i}"] != big_node for i in range(4))


# -- the total-headroom pre-check ---------------------------------------------

# Each node's pool label, by index; a member may select its piece's pool.
POOLS = ("a", "b")
#: Added to the last member cut from a node: exact, within fits_within's
#: 1e-9 tolerance, just past it, and far past it.
EXCESS = (0.0, 0.4e-9, 0.9e-9, 3e-9, 1e-3, 0.5)


@st.composite
def gangs_and_nodes(draw):
    """Nodes (some partly loaded) and a gang cut from their free room.

    Each node's free cpu and memory are split into 0-3 members, so the
    gang fits exactly; then the last member of a node grows by one of
    :data:`EXCESS`, and some members select their node's pool.
    """
    node_list, members = [], []
    for i in range(draw(st.integers(1, 4))):
        cap = ResourceVector(
            cpu=draw(st.sampled_from((4.0, 8.0, 16.0)) | st.floats(1.0, 32.0)),
            memory=draw(st.floats(4.0, 64.0)),
            disk_bw=100.0,
            net_bw=100.0,
        )
        node = Node(f"node-{i}", cap, labels={"pool": POOLS[i % 2]})
        loaded = draw(st.floats(0.0, 0.9))
        if loaded:
            node.bind(Pod(make_spec(f"filler-{i}", cpu=cap.cpu * loaded,
                                    memory=cap.memory * loaded), created_at=0.0))
        node_list.append(node)
        free = node.free
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=0, max_size=3))
        for j, weight in enumerate(weights):
            share = weight / sum(weights)
            cpu, memory = free.cpu * share, free.memory * share
            if j == len(weights) - 1:
                excess = draw(st.sampled_from(EXCESS))
                cpu += excess
                memory += draw(st.sampled_from((0.0, excess)))
            selector = {"pool": POOLS[i % 2]} if draw(st.booleans()) else {}
            spec = PodSpec(
                name=f"rank-{i}-{j}",
                app="g",
                workload_class=WorkloadClass.HPC,
                requests=ResourceVector(cpu, memory, 1.0, 1.0),
                gang_id="g",
                node_selector=selector,
            )
            members.append(Pod(spec, created_at=0.0))
    return members, node_list


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gangs_and_nodes())
def test_precheck_refuses_only_gangs_the_search_cannot_place(case):
    members, node_list = case
    headroom = {n.name: n.free for n in node_list}
    if not _exceeds_headroom(members, headroom):
        return
    with patch("repro.scheduler.gang._exceeds_headroom", return_value=False):
        assert GangAdmission().find_assignment(members, node_list) is None


def test_precheck_lets_a_fit_within_tolerance_through():
    # fits_within places an 8-cpu node's rank asking 0.5e-9 more.
    member = pods(1, cpu=8.0 + 0.5e-9)
    node_list = nodes(1)
    assert not _exceeds_headroom(member, {n.name: n.free for n in node_list})
    assert GangAdmission().find_assignment(member, node_list) == {
        "rank-0": "node-0"
    }


def test_precheck_refuses_a_gang_larger_than_the_free_total():
    # R-T4's siloed shape: 8 ranks of 6 cores against a 2-node HPC pool.
    node_list = [Node(f"node-{i}", ResourceVector(16, 64, 200, 500))
                 for i in range(2)]
    gang = pods(8, cpu=6.0)
    assert _exceeds_headroom(gang, {n.name: n.free for n in node_list})
    assert GangAdmission().find_assignment(gang, node_list) is None
    with patch("repro.scheduler.gang._exceeds_headroom", return_value=False):
        assert GangAdmission().find_assignment(gang, node_list) is None
