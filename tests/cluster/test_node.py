"""Unit tests for Node accounting."""

import itertools
import math

import pytest

from repro.cluster.node import Node, NodeError, total_capacity
from repro.cluster.pod import Pod
from repro.cluster.resources import ResourceVector
from tests.conftest import make_spec


CAP = ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=500)


def make_pod(name="p0", cpu=1.0, memory=1.0):
    return Pod(make_spec(name, cpu=cpu, memory=memory), created_at=0.0)


def test_allocatable_subtracts_reserve():
    node = Node("n", CAP, system_reserved=ResourceVector(cpu=1, memory=2))
    assert node.allocatable == ResourceVector(cpu=7, memory=30, disk_bw=200, net_bw=500)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        Node("n", ResourceVector(cpu=-1))


def test_bind_accounts_allocation():
    node = Node("n", CAP)
    pod = make_pod(cpu=2, memory=4)
    node.bind(pod)
    assert node.allocated == pod.allocation
    assert node.free == (CAP - pod.allocation)
    node.verify_invariants()


def test_bind_rejects_duplicate():
    node = Node("n", CAP)
    pod = make_pod()
    node.bind(pod)
    with pytest.raises(NodeError):
        node.bind(pod)


def test_bind_rejects_overflow():
    node = Node("n", ResourceVector(cpu=1, memory=1, disk_bw=10, net_bw=10))
    with pytest.raises(NodeError):
        node.bind(make_pod(cpu=2))


def test_release_returns_capacity():
    node = Node("n", CAP)
    pod = make_pod(cpu=2)
    node.bind(pod)
    node.release(pod)
    assert node.allocated.is_zero()
    assert node.free == node.allocatable
    node.verify_invariants()


def test_release_unknown_pod():
    node = Node("n", CAP)
    with pytest.raises(NodeError):
        node.release(make_pod())


def test_can_fit():
    node = Node("n", ResourceVector(cpu=4, memory=8, disk_bw=100, net_bw=100))
    node.bind(make_pod(cpu=3, memory=1))
    assert node.can_fit(ResourceVector(cpu=1, memory=1, disk_bw=1, net_bw=1))
    assert not node.can_fit(ResourceVector(cpu=2, memory=1, disk_bw=1, net_bw=1))


def test_resize_within_headroom():
    node = Node("n", CAP)
    pod = make_pod(cpu=2)
    node.bind(pod)
    bigger = pod.allocation.replace(cpu=4)
    assert node.headroom_for_resize(pod, bigger)
    node.apply_resize(pod, bigger)
    assert pod.allocation.cpu == 4
    node.verify_invariants()


def test_resize_beyond_headroom_rejected():
    node = Node("n", ResourceVector(cpu=4, memory=8, disk_bw=50, net_bw=50))
    pod = make_pod(cpu=2)
    node.bind(pod)
    with pytest.raises(NodeError):
        node.apply_resize(pod, pod.allocation.replace(cpu=10))


def test_resize_unbound_pod_rejected():
    node = Node("n", CAP)
    with pytest.raises(NodeError):
        node.headroom_for_resize(make_pod(), ResourceVector(cpu=1))


def _resize_edges(cap):
    """(allocated, old, new) per field: the last float ``new`` that fits
    under ``cap + 1e-9`` and the first that does not, signed zeros, a
    negative total and NaN in either vector."""
    limit = cap + 1e-9
    over = limit - 2.0  # the first new for which (3 - 1) + new > limit
    while 2.0 + over > limit:
        over = math.nextafter(over, -math.inf)
    while 2.0 + over <= limit:
        over = math.nextafter(over, math.inf)
    return [
        (3.0, 1.0, math.nextafter(over, -math.inf)),
        (3.0, 1.0, over),
        (3.0, 1.0, cap - 2.0),
        (0.0, 0.0, -0.0),
        (-0.0, 0.0, -0.0),
        (0.0, -0.0, 0.0),
        (-0.0, -0.0, -0.0),
        (2.0, 3.0, 0.5),  # total -0.5: fits, and clamps to 0
        (1.0, 1.0, math.nan),
        (math.nan, 1.0, 1.0),
    ]


def test_resize_fit_matches_vector_arithmetic():
    # headroom_for_resize and apply_resize add field by field on floats;
    # the reference is the vector arithmetic they replaced, compared by
    # repr, so a signed zero or a NaN that comes out otherwise fails.
    node = Node("n", CAP)
    pod = make_pod()
    node.bind(pod)
    edges = [_resize_edges(cap) for cap in node.allocatable]
    outcomes = set()
    for combo in itertools.product(*edges):
        allocated, old, new = (ResourceVector(*column) for column in zip(*combo))
        node._allocated, pod.allocation = allocated, old
        total = allocated - old + new
        fits = total.fits_within(node.allocatable)
        outcomes.add(fits)
        assert node.headroom_for_resize(pod, new) is fits, combo
        if fits:
            node.apply_resize(pod, new)
            assert repr(tuple(node.allocated)) == repr(
                tuple(total.clamp_nonnegative())
            ), combo
            assert pod.allocation is new
        else:
            with pytest.raises(NodeError):
                node.apply_resize(pod, new)
            assert node.allocated is allocated and pod.allocation is old
    assert outcomes == {True, False}


def test_usage_aggregates_pods():
    node = Node("n", CAP)
    p1, p2 = make_pod("a", cpu=2), make_pod("b", cpu=2)
    node.bind(p1)
    node.bind(p2)
    p1.record_usage(ResourceVector(cpu=1))
    p2.record_usage(ResourceVector(cpu=0.5))
    assert node.usage().cpu == pytest.approx(1.5)
    assert node.usage_fraction()["cpu"] == pytest.approx(1.5 / 8)


def test_allocation_fraction():
    node = Node("n", CAP)
    node.bind(make_pod(cpu=4))
    assert node.allocation_fraction()["cpu"] == pytest.approx(0.5)


def test_pods_by_priority():
    node = Node("n", CAP)
    low = Pod(make_spec("low", priority=1), created_at=0.0)
    high = Pod(make_spec("high", priority=10), created_at=0.0)
    node.bind(high)
    node.bind(low)
    assert [p.name for p in node.pods_by_priority()] == ["low", "high"]


def test_total_capacity():
    nodes = [Node(f"n{i}", CAP) for i in range(3)]
    assert total_capacity(nodes) == CAP * 3


def test_invariant_detects_drift():
    node = Node("n", CAP)
    pod = make_pod(cpu=2)
    node.bind(pod)
    pod.allocation = pod.allocation.replace(cpu=3)  # bypass apply_resize
    with pytest.raises(NodeError):
        node.verify_invariants()
