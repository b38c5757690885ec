"""Unit and property tests for admission control and load shedding.

The property tests pin the conservation contract the
``shed-conservation`` invariant audits at runtime: every pod offered to
``admit_cycle`` is either admitted or shed (never both, never lost), the
controller's ledgers agree with its actions, and aged pods are exempt.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.pod import PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.scheduler.admission import (
    MAX_SHED_PER_CYCLE,
    SHED_CLASSES,
    STARVATION_TIMEOUT,
    AdmissionController,
    OverloadConfig,
    classify_pod,
)
from tests.conftest import make_spec


def make_controller(engine, api, **overrides):
    cfg = dict(admission=True)
    cfg.update(overrides)
    return AdmissionController(engine, api, OverloadConfig(**cfg))


def spec_for(name, shed_class, *, gang_id=None):
    """A pod spec that classifies as ``shed_class``."""
    if shed_class == "latency":
        cls, priority = WorkloadClass.MICROSERVICE, 10
    elif shed_class == "stream":
        cls, priority = WorkloadClass.BIGDATA, 8
    elif shed_class == "batch":
        cls, priority = WorkloadClass.BIGDATA, 5
    else:
        cls, priority = WorkloadClass.BIGDATA, -1
    return make_spec(
        name, cpu=0.5, memory=0.5, workload_class=cls,
        priority=priority, gang_id=gang_id,
    )


class TestClassification:
    def test_heuristics(self):
        for shed_class in SHED_CLASSES:
            pod_spec = spec_for("p", shed_class)
            from repro.cluster.pod import Pod

            assert classify_pod(Pod(pod_spec, created_at=0.0)) == shed_class

    def test_hpc_is_batch(self):
        from repro.cluster.pod import Pod

        spec = make_spec("p", workload_class=WorkloadClass.HPC, priority=20)
        assert classify_pod(Pod(spec, created_at=0.0)) == "batch"

    def test_label_override_wins(self):
        from repro.cluster.pod import Pod

        spec = PodSpec(
            name="p", app="a", workload_class=WorkloadClass.MICROSERVICE,
            requests=ResourceVector(cpu=1, memory=1),
            labels={"shed-class": "best-effort"},
        )
        assert classify_pod(Pod(spec, created_at=0.0)) == "best-effort"

    def test_unknown_label_falls_back(self):
        from repro.cluster.pod import Pod

        spec = PodSpec(
            name="p", app="a", workload_class=WorkloadClass.MICROSERVICE,
            requests=ResourceVector(cpu=1, memory=1),
            labels={"shed-class": "bogus"},
        )
        assert classify_pod(Pod(spec, created_at=0.0)) == "latency"


class TestOverloadConfig:
    def test_defaults_are_inert(self):
        cfg = OverloadConfig()
        assert not cfg.admission and not cfg.backpressure and not cfg.brownout

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadConfig(low_watermark=0.95, high_watermark=0.9)
        with pytest.raises(ValueError):
            OverloadConfig(pending_high=0)


class TestLatch:
    def test_enters_on_pressure_and_exits_with_hysteresis(
        self, engine, cluster, api
    ):
        ctl = make_controller(
            engine, api, high_watermark=0.5, low_watermark=0.25,
        )
        # 3 nodes x 16 cpu; 30 cpu allocated = 0.625 pressure.
        for i in range(15):
            cluster.submit(make_spec(f"p{i}", cpu=2, memory=1))
            cluster.bind(f"p{i}", f"node-{i % 3}")
        ctl.admit_cycle([])
        assert ctl.shedding_active and ctl.activations == 1
        # Dropping below high but above low keeps the latch set.
        for i in range(8):
            cluster.evict(f"p{i}", reason="test")
        ctl.admit_cycle([])
        assert ctl.shedding_active and ctl.activations == 1
        for i in range(8, 12):
            cluster.evict(f"p{i}", reason="test")
        ctl.admit_cycle([])
        assert not ctl.shedding_active

    def test_pending_depth_alone_activates(self, engine, cluster, api):
        ctl = make_controller(engine, api, pending_high=3)
        pending = []
        for i in range(3):
            pending.append(cluster.submit(spec_for(f"b{i}", "batch")))
        ctl.admit_cycle(pending)
        assert ctl.shedding_active

    def test_empty_cluster_reads_fully_pressured(self, engine, api, cluster):
        ctl = make_controller(engine, api)
        for node in cluster.nodes.values():
            node.allocatable = ResourceVector.zero()
        assert ctl.pressure() == 1.0


class TestShedPolicy:
    def hot_controller(self, engine, api, **overrides):
        """A controller whose latch is hot for any non-empty queue."""
        overrides.setdefault("pending_high", 1)
        return make_controller(engine, api, **overrides)

    def test_sheds_newest_best_effort_first(self, engine, cluster, api):
        ctl = self.hot_controller(engine, api)
        # One best-effort pod more than a cycle may shed: the oldest stays.
        best_effort = [
            cluster.submit(spec_for(f"be-{i}", "best-effort"))
            for i in range(MAX_SHED_PER_CYCLE + 1)
        ]
        pending = best_effort + [cluster.submit(spec_for("batch-0", "batch"))]
        admitted = ctl.admit_cycle(pending)
        assert [p.name for p in admitted] == ["batch-0", "be-0"]
        assert all(
            cluster.get_pod(p.name).phase is PodPhase.EVICTED
            for p in best_effort[1:]
        )
        assert ctl.shed_by_class["best-effort"] == MAX_SHED_PER_CYCLE

    def test_batch_shed_only_after_best_effort(self, engine, cluster, api):
        ctl = self.hot_controller(engine, api)
        # Three sheddable pods, within one cycle's budget.
        assert MAX_SHED_PER_CYCLE >= 3
        pending = [
            cluster.submit(spec_for("ba-0", "batch")),
            cluster.submit(spec_for("be-0", "best-effort")),
            cluster.submit(spec_for("be-1", "best-effort")),
            cluster.submit(spec_for("lat-0", "latency")),
        ]
        admitted = ctl.admit_cycle(pending)
        assert [p.name for p in admitted] == ["lat-0"]
        assert ctl.shed_by_class == {
            "latency": 0, "stream": 0, "batch": 1, "best-effort": 2,
        }

    def test_latency_and_stream_never_shed(self, engine, cluster, api):
        ctl = self.hot_controller(engine, api)
        pending = [
            cluster.submit(spec_for("lat-0", "latency")),
            cluster.submit(spec_for("st-0", "stream")),
        ]
        admitted = ctl.admit_cycle(pending)
        assert len(admitted) == 2
        assert ctl.shed_total == 0

    def test_gang_members_exempt(self, engine, cluster, api):
        ctl = self.hot_controller(engine, api)
        pending = [
            cluster.submit(spec_for("g-0", "best-effort", gang_id="g")),
            cluster.submit(spec_for("solo", "best-effort")),
        ]
        admitted = ctl.admit_cycle(pending)
        assert [p.name for p in admitted] == ["g-0"]
        assert ctl.shed_total == 1

    def test_admitted_ordered_most_protected_first(self, engine, cluster, api):
        ctl = self.hot_controller(engine, api)
        pending = [
            cluster.submit(spec_for("ba-0", "batch")),
            cluster.submit(spec_for("lat-0", "latency")),
            cluster.submit(spec_for("be-0", "best-effort")),
            cluster.submit(spec_for("st-0", "stream")),
        ]
        # Newer best-effort pods take the whole shed budget.
        pending += [
            cluster.submit(spec_for(f"be-new-{i}", "best-effort"))
            for i in range(MAX_SHED_PER_CYCLE)
        ]
        admitted = ctl.admit_cycle(pending)
        assert [p.name for p in admitted] == ["lat-0", "st-0", "ba-0", "be-0"]

    def test_cool_latch_is_passthrough(self, engine, cluster, api):
        ctl = make_controller(engine, api)
        pending = [cluster.submit(spec_for("be-0", "best-effort"))]
        assert ctl.admit_cycle(pending) is pending
        assert ctl.shed_total == 0


class TestNonStarvation:
    def test_aged_pods_admitted_first_and_never_shed(
        self, engine, cluster, api
    ):
        ctl = make_controller(engine, api, pending_high=1)
        old = cluster.submit(spec_for("be-old", "best-effort"))
        engine.run_until(STARVATION_TIMEOUT + 100.0)  # past the timeout
        fresh = [
            cluster.submit(spec_for("lat-0", "latency")),
            cluster.submit(spec_for("be-new", "best-effort")),
        ]
        admitted = ctl.admit_cycle([old] + fresh)
        # The aged best-effort pod outranks even fresh latency work and
        # is exempt from the shed sweep that takes its fresh sibling.
        assert [p.name for p in admitted] == ["be-old", "lat-0"]
        assert cluster.get_pod("be-new").phase is PodPhase.EVICTED
        assert ctl.aged_admissions == 1

    def test_sustained_overload_every_class_progresses(
        self, engine, cluster, api
    ):
        """Under a permanently hot latch, batch and best-effort work
        still gets admitted once it ages past the starvation timeout."""
        ctl = make_controller(engine, api, pending_high=1)
        survivors = {
            cls: cluster.submit(spec_for(f"{cls}-seed", cls))
            for cls in SHED_CLASSES
        }
        admitted_classes: set[str] = set()
        for cycle in range(int(STARVATION_TIMEOUT // 20.0) + 2):
            engine.run_until(engine.now + 20.0)
            pending = [
                pod for pod in survivors.values()
                if pod.phase is PodPhase.PENDING
            ]
            # Fresh churn arriving every cycle keeps the queue deep and
            # takes the whole shed budget.
            churn = [
                cluster.submit(spec_for(f"churn-{cycle}-{i}", "best-effort"))
                for i in range(MAX_SHED_PER_CYCLE)
            ]
            result = ctl.admit_cycle(pending + churn)
            admitted_classes.update(
                classify_pod(p) for p in result if p.name in
                {pod.name for pod in survivors.values()}
            )
        assert admitted_classes == set(SHED_CLASSES)
        assert ctl.aged_admissions > 0


class TestRunningEviction:
    def test_evicts_newest_running_best_effort_when_stuck(
        self, engine, cluster, api
    ):
        ctl = make_controller(engine, api, pending_high=1)
        cluster.submit(spec_for("be-run-0", "best-effort"))
        cluster.bind("be-run-0", "node-0")
        engine.run_until(10.0)
        cluster.submit(spec_for("be-run-1", "best-effort"))
        cluster.bind("be-run-1", "node-1")
        stuck = cluster.submit(spec_for("lat-0", "latency"))
        ctl.admit_cycle([stuck])
        ctl.post_cycle()
        assert cluster.get_pod("be-run-1").phase is PodPhase.EVICTED
        assert cluster.get_pod("be-run-0").phase is not PodPhase.EVICTED
        assert ctl.evicted_running == 1

    def test_no_eviction_without_stuck_high_class_work(
        self, engine, cluster, api
    ):
        ctl = make_controller(engine, api, pending_high=1)
        cluster.submit(spec_for("be-run", "best-effort"))
        cluster.bind("be-run", "node-0")
        batch = cluster.submit(spec_for("ba-0", "batch"))
        ctl.admit_cycle([batch])
        ctl.post_cycle()
        assert ctl.evicted_running == 0


# -- conservation properties ---------------------------------------------------

pod_classes = st.lists(
    st.sampled_from(SHED_CLASSES), min_size=0, max_size=16
)
gang_flags = st.lists(st.booleans(), min_size=16, max_size=16)


class TestConservationProperties:
    @settings(max_examples=40, deadline=None)
    @given(classes=pod_classes, gangs=gang_flags)
    def test_every_pod_admitted_or_shed_exactly_once(self, classes, gangs):
        from tests.conftest import make_api
        from repro.sim.engine import Engine
        from tests.conftest import make_cluster

        engine = Engine()
        cluster = make_cluster(engine)
        api = make_api(cluster)
        ctl = make_controller(engine, api, pending_high=1)
        pending = [
            cluster.submit(
                spec_for(
                    f"p{i}", cls,
                    gang_id="g" if gangs[i] else None,
                )
            )
            for i, cls in enumerate(classes)
        ]
        admitted = ctl.admit_cycle(list(pending))
        admitted_names = {p.name for p in admitted}
        shed_names = {
            p.name for p in pending
            if p.phase is PodPhase.EVICTED
        }
        # Partition: every offered pod lands in exactly one bucket.
        assert admitted_names | shed_names == {p.name for p in pending}
        assert not admitted_names & shed_names
        # The ledger agrees with the actions.
        assert ctl.shed_total == len(shed_names)
        assert ctl.shed_total == sum(ctl.shed_by_class.values())
        assert ctl.shed_total == ctl.rejected_pending + ctl.evicted_running
        assert ctl.shed_total <= MAX_SHED_PER_CYCLE
        # Shed victims only ever come from the two lowest classes, and
        # never from gangs.
        for pod in pending:
            if pod.name in shed_names:
                assert classify_pod(pod) in ("batch", "best-effort")
                assert pod.spec.gang_id is None

    @settings(max_examples=25, deadline=None)
    @given(classes=pod_classes)
    def test_admission_is_deterministic(self, classes):
        from tests.conftest import make_api
        from repro.sim.engine import Engine
        from tests.conftest import make_cluster

        def run():
            engine = Engine()
            cluster = make_cluster(engine)
            api = make_api(cluster)
            ctl = make_controller(engine, api, pending_high=1)
            pending = [
                cluster.submit(spec_for(f"p{i}", cls))
                for i, cls in enumerate(classes)
            ]
            admitted = ctl.admit_cycle(pending)
            return [p.name for p in admitted], ctl.stats()

        assert run() == run()
