"""Unit tests for OU and replay traces."""

import numpy as np
import pytest

from repro.workloads.traceio import load_trace
from repro.workloads.traces import OUTrace, ReplayTrace


class TestOUTrace:
    def test_reverts_to_mean(self):
        trace = OUTrace(100, relaxation=100, volatility=1.0,
                        horizon=100_000, rng=np.random.default_rng(4))
        values = [trace.rate(t) for t in range(0, 100_000, 10)]
        assert np.mean(values) == pytest.approx(100, rel=0.1)

    def test_autocorrelated(self):
        """Adjacent samples are much closer than distant ones."""
        trace = OUTrace(100, relaxation=600, volatility=3.0,
                        horizon=50_000, rng=np.random.default_rng(4))
        values = np.array([trace.rate(t) for t in range(0, 50_000, 10)])
        adjacent = np.mean(np.abs(np.diff(values)))
        shuffled = values.copy()
        np.random.default_rng(0).shuffle(shuffled)
        random_pairs = np.mean(np.abs(np.diff(shuffled)))
        assert adjacent < random_pairs / 2

    def test_never_negative(self):
        trace = OUTrace(5, volatility=10.0, horizon=10_000,
                        rng=np.random.default_rng(1))
        assert all(trace.rate(t) >= 0 for t in range(0, 10_000, 50))

    def test_deterministic_given_rng(self):
        a = OUTrace(50, rng=np.random.default_rng(9), horizon=1000)
        b = OUTrace(50, rng=np.random.default_rng(9), horizon=1000)
        assert [a.rate(t) for t in range(0, 1000, 10)] == \
               [b.rate(t) for t in range(0, 1000, 10)]

    def test_beyond_horizon_holds_last(self):
        trace = OUTrace(50, horizon=100, rng=np.random.default_rng(0))
        assert trace.rate(1e9) == trace.rate(200)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OUTrace(-1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            OUTrace(1, relaxation=0, rng=np.random.default_rng(0))


class TestReplayTrace:
    def test_step_interpolation(self):
        trace = ReplayTrace([(0, 10), (100, 20), (200, 5)])
        assert trace.rate(-5) == 10    # before first sample
        assert trace.rate(0) == 10
        assert trace.rate(99) == 10
        assert trace.rate(100) == 20
        assert trace.rate(1000) == 5   # after last sample

    def test_scaling(self):
        trace = ReplayTrace([(0, 10), (100, 20)], time_scale=2.0, rate_scale=3.0)
        assert trace.rate(150) == 30   # sample time 100 → 200
        assert trace.rate(250) == 60

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([(10, 1), (5, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ReplayTrace([(0, -1)])

    def test_from_csv(self, tmp_path):
        csv = tmp_path / "trace.csv"
        csv.write_text("time,rate\n0,100\n60,150\n\n120,80\n")
        trace = load_trace(csv).trace()
        assert trace.rate(30) == 100
        assert trace.rate(61) == 150
        assert trace.rate(500) == 80

    def test_drives_a_service(self, engine, api):
        """Replay traces plug into the workload model like any other."""
        from repro.cluster.resources import ResourceVector
        from repro.workloads.microservice import Microservice, ServiceDemands

        svc = Microservice(
            "svc", engine, api,
            trace=ReplayTrace([(0, 50), (30, 100)]),
            demands=ServiceDemands(cpu_seconds=0.001, base_latency=0.01),
            initial_allocation=ResourceVector(cpu=2, memory=2, disk_bw=10, net_bw=10),
        )
        svc.start()
        for pod in api.pending_pods():
            api.bind_pod(pod.name, "node-0")
        engine.run_until(20.0)
        assert svc.current_offered == 50
        engine.run_until(40.0)
        assert svc.current_offered == 100
