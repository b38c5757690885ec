"""Unit tests for the bottleneck estimator."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.control.estimator import (
    MEMORY_HEADROOM,
    BottleneckEstimator,
    SaturationSnapshot,
)


def snapshot(cpu=0.0, memory=0.0, disk_bw=0.0, net_bw=0.0):
    return SaturationSnapshot(
        {"cpu": cpu, "memory": memory, "disk_bw": disk_bw, "net_bw": net_bw}
    )


class TestSnapshot:
    def test_from_vectors(self):
        snap = SaturationSnapshot.from_vectors(
            ResourceVector(cpu=1, memory=2, disk_bw=50, net_bw=0),
            ResourceVector(cpu=2, memory=4, disk_bw=100, net_bw=100),
        )
        assert snap.fractions == {
            "cpu": 0.5, "memory": 0.5, "disk_bw": 0.5, "net_bw": 0.0
        }

    def test_zero_allocation_is_zero_fraction(self):
        snap = SaturationSnapshot.from_vectors(
            ResourceVector(cpu=1), ResourceVector()
        )
        assert snap.fractions["cpu"] == 0.0

    def test_most_saturated(self):
        assert snapshot(cpu=0.2, disk_bw=0.9).most_saturated() == "disk_bw"


class TestGrowWeights:
    def test_saturated_dim_gets_weight(self):
        est = BottleneckEstimator()
        weights = est.grow_weights(snapshot(cpu=0.95, memory=0.3))
        assert weights["cpu"] > 0
        assert weights["memory"] == 0.0

    def test_multiple_saturated_dims_share(self):
        est = BottleneckEstimator()
        weights = est.grow_weights(snapshot(cpu=0.99, disk_bw=0.99))
        assert weights["cpu"] > 0 and weights["disk_bw"] > 0

    def test_fully_saturated_gets_full_weight(self):
        est = BottleneckEstimator()
        weights = est.grow_weights(snapshot(cpu=1.0))
        assert weights["cpu"] == 1.0

    def test_fallback_to_most_saturated(self):
        est = BottleneckEstimator()
        weights = est.grow_weights(snapshot(cpu=0.5, net_bw=0.6))
        assert weights["net_bw"] == 1.0
        assert sum(1 for w in weights.values() if w > 0) == 1

    def test_weights_bounded(self):
        est = BottleneckEstimator()
        weights = est.grow_weights(
            snapshot(cpu=1.0, memory=1.0, disk_bw=1.0, net_bw=1.0)
        )
        assert all(0 <= w <= 1 for w in weights.values())


class TestReclaimWeights:
    def test_idle_dim_reclaims(self):
        est = BottleneckEstimator()
        weights = est.reclaim_weights(snapshot(cpu=0.1, disk_bw=0.9))
        assert weights["cpu"] > 0
        assert weights["disk_bw"] == 0.0

    def test_busy_dim_never_reclaims(self):
        est = BottleneckEstimator()
        weights = est.reclaim_weights(snapshot(cpu=0.95, memory=0.95,
                                               disk_bw=0.95, net_bw=0.95))
        assert all(w == 0.0 for w in weights.values())

    def test_memory_reclaims_more_cautiously(self):
        est = BottleneckEstimator()
        weights = est.reclaim_weights(snapshot(cpu=0.1, memory=0.1))
        assert weights["memory"] == pytest.approx(weights["cpu"] * MEMORY_HEADROOM)

    def test_totally_idle_dim_full_weight(self):
        est = BottleneckEstimator()
        weights = est.reclaim_weights(snapshot())
        assert weights["cpu"] == 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grow_threshold": 1.0},
            {"reclaim_threshold": 0.0},
            {"grow_threshold": 0.5, "reclaim_threshold": 0.6},
            {"memory_headroom": 2.0},
        ],
    )
    def test_invalid(self, kwargs):
        # The thresholds and the memory headroom are constants.
        with pytest.raises(TypeError):
            BottleneckEstimator(**kwargs)
