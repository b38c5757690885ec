"""Decision-provenance integration tests.

Every control-loop evaluation must leave an auditable record when
telemetry is on — including the decisions that did *not* actuate — and
turning telemetry on must never change what a seeded run does.
"""

from repro.cluster.resources import ResourceVector
from repro.control.manager import SAFE_MODE_AFTER
from repro.control.multiresource import AllocationBounds, MultiResourceController
from repro.control.pid import PIDGains
from repro.obs.telemetry import Telemetry
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace, NoisyTrace
from tests.conftest import make_manager

BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=16, disk_bw=400, net_bw=400),
)
DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def provenance_for(trace, app):
    return [p for p in trace.provenance if p.app == app]


def controller(*, bounds=BOUNDS, deadband=0.1, **kwargs):
    return MultiResourceController(
        PIDGains(kp=0.8, ki=0.08), bounds, deadband=deadband, **kwargs
    )


def deploy(engine, api, collector, *, rate=100.0, cpu=0.5, plo_target=0.05):
    svc = Microservice(
        "svc", engine, api,
        trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=cpu, memory=1, disk_bw=20,
                                          net_bw=20),
        initial_replicas=1,
    )
    svc.plo = LatencyPLO(plo_target, window=20)
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    collector.register(svc)
    collector.start()
    return svc


def instrument(engine, api, collector, **manager_kwargs):
    """A telemetry-wired manager over the shared fixtures."""
    tel = Telemetry(engine)
    api.telemetry = tel
    collector.telemetry = tel
    collector.register_internal(tel)
    manager = make_manager(engine, collector, **manager_kwargs)
    manager.telemetry = tel
    return tel, manager


class TestActuatedProvenance:
    def test_actuation_links_back_to_scrape(self, engine, api, collector):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(300.0)

        trace = tel.trace
        actuated = [p for p in provenance_for(trace, "svc")
                    if p.verdict == "actuated"]
        assert actuated, "starved service never actuated"
        for record in actuated:
            assert record.action in ("grow", "reclaim")
            assert record.scrape_span_id is not None
            decide = trace.get(record.span_id)
            assert decide.name == "decide"
            assert decide.parent_id == record.scrape_span_id
            assert trace.get(record.scrape_span_id).name == "scrape"
            actuates = [s for s in trace.children(decide.id)
                        if s.name == "actuate"]
            assert actuates, "actuated decision has no actuate span"

    def test_pid_terms_and_inputs_snapshot(self, engine, api, collector):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(120.0)

        record = next(p for p in provenance_for(tel.trace, "svc")
                      if p.verdict == "actuated")
        assert record.terms is not None and len(record.terms) == 3
        assert record.error is not None
        assert "app/svc/latency" in record.inputs
        assert record.signal_age is not None and record.signal_age >= 0.0
        assert record.replicas == 1
        assert record.lease_generation is None

    def test_decisions_counted_and_latency_observed(self, engine, api,
                                                    collector):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        collector.declare("ctrl/decisions_total")
        manager.register(svc, controller())
        manager.start()
        engine.run_until(200.0)
        assert tel.decisions.value >= 1
        assert tel.actuations.value >= 1
        assert tel.reaction_latency.count >= 1
        # ctrl/* series land in the ordinary store via the internal source.
        assert collector.latest("ctrl/decisions_total") >= 1


class TestSafeModeProvenance:
    def test_entry_freezes_at_last_good(self, engine, api, collector):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(100.0)
        collector.stop()  # scrape pipeline goes dark; signal goes stale
        engine.run_until(250.0)

        records = provenance_for(tel.trace, "svc")
        entries = [p for p in records if p.verdict == "safe-mode-entry"]
        assert len(entries) == 1
        entry = entries[0]
        assert entry.action == "freeze"
        assert entry.safe_mode is True
        assert entry.target is not None  # the frozen last-good allocation
        assert entry.stale_periods >= SAFE_MODE_AFTER
        # Subsequent stale periods audit as safe-mode holds.
        after = [p for p in records if p.time > entry.time]
        assert after and all(p.verdict == "safe-mode-hold" for p in after)
        assert tel.safe_mode_entries.value == 1.0

    def test_stale_skip_before_threshold(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(100.0)
        collector.stop()
        engine.run_until(200.0)
        verdicts = [p.verdict for p in provenance_for(tel.trace, "svc")
                    if p.time > 100.0]
        first = verdicts.index("stale-skip")
        # The stale periods short of the threshold audit as plain skips;
        # the one that reaches it enters safe mode.
        assert verdicts[first:first + SAFE_MODE_AFTER] == (
            ["stale-skip"] * (SAFE_MODE_AFTER - 1) + ["safe-mode-entry"]
        )


class TestSuppressedDecisions:
    def test_deadband_hold_is_audited(self, engine, api, collector):
        svc = deploy(engine, api, collector, rate=50.0, cpu=1.0,
                     plo_target=0.05)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        # A huge deadband suppresses every correction.
        manager.register(svc, controller(deadband=100.0))
        manager.start()
        engine.run_until(200.0)

        records = [p for p in provenance_for(tel.trace, "svc")
                   if p.verdict in ("deadband", "hold", "actuated")]
        assert records
        deadbands = [p for p in records if p.verdict == "deadband"]
        assert deadbands, "no deadband-suppressed decision audited"
        for record in deadbands:
            assert record.action == "hold"
            assert record.deadband == 100.0
        # Suppressed decisions never produced actuate spans.
        assert not [s for s in tel.trace.by_name("actuate")
                    if s.args.get("app") == "svc"]

    def test_clamped_decision_is_flagged(self, engine, api, collector):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        tel, manager = instrument(engine, api, collector, interval=10.0)
        # Ceiling barely above the starting point: growth clamps at once.
        tight = AllocationBounds(
            minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5,
                                   net_bw=5),
            maximum=ResourceVector(cpu=0.6, memory=1.5, disk_bw=25,
                                   net_bw=25),
        )
        manager.register(svc, controller(bounds=tight))
        manager.start()
        engine.run_until(300.0)

        clamped = [p for p in provenance_for(tel.trace, "svc") if p.clamped]
        assert clamped, "no clamped decision audited"
        # Once pinned at the ceiling the clamp suppresses actuation
        # entirely; those records are clamped holds.
        assert any(p.verdict == "hold" for p in clamped)


class TestBitIdentity:
    @staticmethod
    def _run(telemetry: bool):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=3),
            config=PlatformConfig(seed=7, telemetry=telemetry),
            policy="adaptive",
        )
        # Stochastic trace + stochastic metric faults: any extra RNG
        # draw from telemetry would shift both streams.
        platform.metrics_faults.outlier_probability = 0.05
        platform.metrics_faults.drop_scrape_probability = 0.02
        platform.deploy_microservice(
            "svc",
            trace=NoisyTrace(ConstantTrace(80.0), rel_std=0.3,
                             horizon=600.0,
                             rng=platform.rng.stream("trace/svc")),
            demands=DEMANDS,
            allocation=ResourceVector(cpu=0.6, memory=1, disk_bw=20,
                                      net_bw=20),
            plo=LatencyPLO(0.05, window=30),
        )
        platform.collector.declare("control/svc/output")
        platform.run(600.0)
        return platform

    def test_seeded_run_identical_with_telemetry_on(self):
        off = self._run(telemetry=False)
        on = self._run(telemetry=True)
        assert off.engine.events_executed == on.engine.events_executed
        for metric in ("app/svc/latency", "app/svc/alloc/cpu",
                       "app/svc/usage/cpu", "control/svc/output"):
            assert (off.collector.series(metric).to_lists()
                    == on.collector.series(metric).to_lists()), metric
        # And the enabled run actually recorded telemetry.
        assert len(on.telemetry.trace) > 0
        assert on.telemetry.trace.provenance


class TestPlatformWiring:
    def test_telemetry_reaches_all_components(self):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=3),
            config=PlatformConfig(seed=1, telemetry=True),
            policy="adaptive",
        )
        tel = platform.telemetry
        assert tel is not None
        assert platform.api.telemetry is tel
        assert platform.collector.telemetry is tel
        assert platform.metrics_faults.telemetry is tel
        for policy in platform.replica_policies:
            manager = getattr(policy, "manager", None)
            if manager is not None:
                assert manager.telemetry is tel

    def test_telemetry_off_by_default(self):
        platform = EvolvePlatform(cluster_spec=ClusterSpec(node_count=2))
        assert platform.telemetry is None
        assert platform.collector.telemetry is None

    def test_engine_event_counter_synced_at_scrape(self):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=2),
            config=PlatformConfig(seed=1, telemetry=True),
        )
        platform.deploy_microservice(
            "svc", trace=ConstantTrace(10.0), demands=DEMANDS,
            allocation=ResourceVector(cpu=0.5, memory=1, disk_bw=10,
                                      net_bw=10),
            plo=LatencyPLO(0.1, window=30),
        )
        platform.collector.declare("ctrl/engine_events_total")
        platform.run(120.0)
        exported = platform.collector.latest("ctrl/engine_events_total")
        assert exported is not None
        assert 0 < exported <= platform.engine.events_executed
