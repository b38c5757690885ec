"""Unit tests for platform configuration."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.platform.config import (
    MIN_ALLOCATION,
    ClusterSpec,
    PlatformConfig,
    build_nodes,
)


def test_default_cluster_spec():
    spec = ClusterSpec()
    nodes = build_nodes(spec)
    assert len(nodes) == 8
    assert all(n.capacity == spec.node_capacity for n in nodes)
    assert nodes[0].name == "node-00"


def test_node_count_validation():
    with pytest.raises(ValueError):
        ClusterSpec(node_count=0)


def test_system_reserved_reduces_allocatable():
    spec = ClusterSpec()
    node = build_nodes(spec)[0]
    assert node.allocatable.cpu == spec.node_capacity.cpu - spec.system_reserved.cpu


def test_custom_name_prefix():
    nodes = build_nodes(ClusterSpec(node_count=2), name_prefix="worker")
    assert [n.name for n in nodes] == ["worker-00", "worker-01"]


def test_platform_config_defaults_valid():
    config = PlatformConfig()
    assert MIN_ALLOCATION.fits_within(config.max_allocation)


def test_platform_config_validation():
    with pytest.raises(ValueError):
        PlatformConfig(control_interval=0)
    with pytest.raises(ValueError):
        PlatformConfig(max_allocation=ResourceVector(cpu=0.05))
