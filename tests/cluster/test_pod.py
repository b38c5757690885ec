"""Unit tests for Pod and PodSpec."""

import pytest

from repro.cluster.pod import Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from tests.conftest import make_spec


def test_spec_rejects_negative_request():
    with pytest.raises(ValueError):
        PodSpec(
            name="p",
            app="a",
            workload_class=WorkloadClass.MICROSERVICE,
            requests=ResourceVector(cpu=-1),
        )


def test_new_pod_starts_pending():
    pod = Pod(make_spec(), created_at=3.0)
    assert pod.phase == PodPhase.PENDING
    assert pod.node_name is None
    assert pod.created_at == 3.0
    assert not pod.active and not pod.terminal


def test_allocation_defaults_to_requests():
    spec = make_spec(cpu=2, memory=4)
    pod = Pod(spec, created_at=0.0)
    assert pod.allocation == spec.requests


def test_record_usage_enforced_at_allocation():
    pod = Pod(make_spec(cpu=1, memory=1, disk_bw=10, net_bw=10), created_at=0.0)
    pod.record_usage(ResourceVector(cpu=5, memory=0.5, disk_bw=50, net_bw=5))
    assert pod.usage == ResourceVector(cpu=1, memory=0.5, disk_bw=10, net_bw=5)


def test_record_usage_clamps_negative():
    pod = Pod(make_spec(), created_at=0.0)
    pod.record_usage(ResourceVector(cpu=-1))
    assert not pod.usage.any_negative(tolerance=0)


@pytest.mark.parametrize(
    "phase,active,terminal",
    [
        (PodPhase.PENDING, False, False),
        (PodPhase.SCHEDULED, True, False),
        (PodPhase.RUNNING, True, False),
        (PodPhase.SUCCEEDED, False, True),
        (PodPhase.FAILED, False, True),
        (PodPhase.EVICTED, False, True),
    ],
)
def test_phase_predicates(phase, active, terminal):
    pod = Pod(make_spec(), created_at=0.0)
    pod.phase = phase
    assert pod.active is active
    assert pod.terminal is terminal
