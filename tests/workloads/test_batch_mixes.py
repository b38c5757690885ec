"""Tests for the BatchBench-style batch mixes: fork-join deadline DAGs,
skewed fan-outs with stragglers, and recurring pipelines."""

import numpy as np
import pytest

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.bigdata import (
    fork_join_stages,
    skewed_fanout_stages,
)


def _platform(seed: int = 11, nodes: int = 4) -> EvolvePlatform:
    return EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=nodes),
        config=PlatformConfig(seed=seed),
        scheduler="converged",
        policy="static",
    )


ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=40)


class TestForkJoinStages:
    def test_dag_shape(self):
        stages = fork_join_stages(width=3)
        names = [s.name for s in stages]
        assert names == ["source", "branch-0", "branch-1", "branch-2", "join"]
        by_name = {s.name: s for s in stages}
        assert by_name["source"].deps == ()
        for i in range(3):
            assert by_name[f"branch-{i}"].deps == ("source",)
        assert by_name["join"].deps == ("branch-0", "branch-1", "branch-2")

    def test_width_validation(self):
        with pytest.raises(ValueError):
            fork_join_stages(width=0)

    def test_runs_to_completion_with_deadline(self):
        platform = _platform()
        job = platform.submit_bigdata(
            "etl",
            stages=fork_join_stages(width=3, branch_work=120.0,
                                    source_work=60.0, join_work=40.0),
            allocation=ALLOC,
            executors=3,
            deadline=3600.0,
        )
        platform.run(4000.0)
        assert job.done and not job.failed
        assert job.makespan() is not None


class TestSkewedFanoutStages:
    def test_skew_and_straggler(self):
        rng = np.random.default_rng(5)
        stages = skewed_fanout_stages(rng, fanout=6, base_work=100.0,
                                      straggler_factor=10.0)
        parts = [s for s in stages if s.name.startswith("part-")]
        assert len(parts) == 6
        works = sorted(s.work_cpu_seconds for s in parts)
        # Every branch got at least base work, the straggler dominates.
        assert works[0] >= 100.0
        assert works[-1] >= 10.0 * 100.0

    def test_seed_deterministic(self):
        a = skewed_fanout_stages(np.random.default_rng(9), fanout=5)
        b = skewed_fanout_stages(np.random.default_rng(9), fanout=5)
        assert [(s.name, s.work_cpu_seconds) for s in a] == [
            (s.name, s.work_cpu_seconds) for s in b
        ]

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            skewed_fanout_stages(rng, fanout=0)
        with pytest.raises(ValueError):
            skewed_fanout_stages(rng, straggler_factor=0.5)


class TestRecurringPipeline:
    def test_periodic_starts_and_completion(self):
        platform = _platform()
        pipeline = platform.submit_recurring_pipeline(
            "nightly",
            stages_factory=lambda i: fork_join_stages(
                width=2, source_work=40.0, branch_work=80.0, join_work=30.0
            ),
            allocation=ALLOC,
            period=900.0,
            runs=3,
            executors=2,
        )
        platform.run(3600.0)
        assert sum(job.done for job in pipeline.jobs) == 3
        assert not any(job.failed for job in pipeline.jobs)
        assert [j.name for j in pipeline.jobs] == [
            "nightly-r0", "nightly-r1", "nightly-r2",
        ]
        # Run i cannot finish before its deferred start at i·period.
        for i, job in enumerate(pipeline.jobs):
            assert job.completed_at >= i * 900.0
        assert len(pipeline.makespans()) == 3

    def test_per_run_stages_vary(self):
        platform = _platform()
        rng = platform.rng.stream("workload/etl/mix")
        pipeline = platform.submit_recurring_pipeline(
            "etl",
            stages_factory=lambda i: skewed_fanout_stages(
                rng, fanout=3, base_work=50.0
            ),
            allocation=ALLOC,
            period=600.0,
            runs=2,
        )
        works = [
            tuple(s.work_cpu_seconds for s in job.stages) for job in pipeline.jobs
        ]
        assert works[0] != works[1]

    def test_relative_deadline_attaches_per_run(self):
        platform = _platform()
        pipeline = platform.submit_recurring_pipeline(
            "strict",
            stages_factory=lambda i: fork_join_stages(
                width=2, source_work=40.0, branch_work=80.0, join_work=30.0
            ),
            allocation=ALLOC,
            period=900.0,
            runs=2,
            deadline=600.0,
        )
        platform.run(2700.0)
        assert sum(job.done for job in pipeline.jobs) == 2
        # Each run met its own (relative) deadline.
        for i, job in enumerate(pipeline.jobs):
            assert job.completed_at <= i * 900.0 + 600.0

    def test_validation(self):
        platform = _platform()
        factory = lambda i: fork_join_stages(width=1)  # noqa: E731
        with pytest.raises(ValueError):
            platform.submit_recurring_pipeline(
                "x", stages_factory=factory, allocation=ALLOC,
                period=0.0, runs=1,
            )
        with pytest.raises(ValueError):
            platform.submit_recurring_pipeline(
                "y", stages_factory=factory, allocation=ALLOC,
                period=10.0, runs=0,
            )
