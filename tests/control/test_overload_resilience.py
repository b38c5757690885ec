"""Tests for the overload-resilience additions to the control loop:
half-open circuit breaker probes, backpressure on scale-ups, and
hysteretic brownout degradation."""

import pytest

from repro.cluster.api import ActuationError
from repro.cluster.chaos import FaultLog
from repro.cluster.resources import ResourceVector
from repro.control.backpressure import BackpressureState
from repro.control.manager import (
    BREAKER_OPEN_DURATION,
    BROWNOUT_ENTER_PERIODS,
    BROWNOUT_EXIT_PERIODS,
    BROWNOUT_LATENCY_PENALTY,
    ControlLoopManager,
)
from repro.control.multiresource import AllocationBounds, MultiResourceController
from repro.control.pid import PIDGains
from repro.scheduler.admission import OverloadConfig
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace


BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=8, memory=16, disk_bw=400, net_bw=400),
)
DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def controller(**kwargs):
    return MultiResourceController(
        PIDGains(kp=0.8, ki=0.08), BOUNDS, deadband=0.1, **kwargs
    )


def deploy(engine, api, collector, *, rate=100.0):
    svc = Microservice(
        "svc", engine, api,
        trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=0.5, memory=1, disk_bw=20, net_bw=20),
        initial_replicas=1,
    )
    svc.plo = LatencyPLO(0.05, window=20)
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    collector.register(svc)
    collector.start()
    return svc


def failing_action():
    raise ActuationError("injected")


class TestHalfOpenBreaker:
    def make_manager(self, engine, collector, svc):
        manager = ControlLoopManager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        return manager, manager._entries["svc"]

    def test_window_elapse_goes_half_open_not_closed(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        manager.start()
        engine.run_until(100.0)
        manager._trip_breaker(entry, engine.now)
        assert not entry.breaker_half_open
        engine.run_until(engine.now + BREAKER_OPEN_DURATION + 10.0)
        # The window elapsed: the loop went half-open (one probe), the
        # probe actuation succeeded, and the breaker closed through the
        # probe path — never by timeout alone.
        res = manager.entry_resilience("svc")
        assert res["breaker_probes"] == 1
        assert entry.breaker_open_until == 0.0
        assert not entry.breaker_half_open
        assert res["breaker_trips"] == 1

    def test_successful_probe_closes_breaker(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.breaker_half_open = True
        applied = []
        assert manager._actuate(entry, lambda: applied.append(1))
        assert applied == [1]
        assert not entry.breaker_half_open
        assert manager.entry_resilience("svc")["breaker_reopens"] == 0

    def test_failed_probe_reopens_full_window(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.breaker_half_open = True
        trips_before = manager.entry_resilience("svc")["breaker_trips"]
        assert not manager._actuate(entry, failing_action)
        res = manager.entry_resilience("svc")
        assert res["breaker_reopens"] == 1
        assert res["breaker_trips"] == trips_before + 1
        assert not entry.breaker_half_open
        assert entry.breaker_open_until == pytest.approx(
            engine.now + BREAKER_OPEN_DURATION
        )
        # A failed probe re-opens directly; it never counts toward the
        # consecutive-failure threshold.
        assert entry.consecutive_failures == 0

    def test_probe_state_survives_export_restore(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.breaker_half_open = True
        state = manager.export_state()
        manager.reset_entries()
        assert not manager._entries["svc"].breaker_half_open
        manager.restore_state(state)
        assert manager._entries["svc"].breaker_half_open

    def test_resilience_stats_count_probes(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.breaker_half_open = True
        manager._actuate(entry, failing_action)
        stats = manager.resilience_stats()
        assert stats["breaker_reopens"] == 1
        res = manager.entry_resilience("svc")
        assert res["breaker_reopens"] == 1


class TestBackpressureState:
    def test_defer_coalesces_max_wins(self):
        bp = BackpressureState()
        bp.defer("a", 3)
        bp.defer("a", 5)
        bp.defer("a", 4)
        assert bp.release("a") == 5
        assert bp.release("a") is None
        stats = bp.stats()
        assert stats["deferrals"] == 3
        assert stats["coalesced"] == 2
        assert stats["releases"] == 1

    def test_drop_discards_queued_grow(self):
        bp = BackpressureState()
        bp.defer("a", 3)
        bp.drop("a")
        assert "a" not in bp.deferred
        assert bp.stats()["dropped"] == 1
        bp.drop("a")  # no queued entry: not counted
        assert bp.stats()["dropped"] == 1

    def test_clear_forgets_everything(self):
        bp = BackpressureState()
        bp.defer("a", 3)
        bp.defer("b", 2)
        bp.clear()
        assert "a" not in bp.deferred and "b" not in bp.deferred


class TestManagerBackpressure:
    def make_manager(self, engine, collector, svc):
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            overload=OverloadConfig(backpressure=True),
        )
        manager.register(svc, controller())
        return manager, manager._entries["svc"]

    def test_disabled_by_default(self, engine, collector):
        manager = ControlLoopManager(engine, collector, interval=10.0)
        assert manager.backpressure is None

    def test_grow_deferred_while_distressed(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.consecutive_failures = 2  # distress
        desired = manager._apply_backpressure(entry, 4, svc.replica_count, 0.0)
        assert desired == svc.replica_count
        assert "svc" in manager.backpressure.deferred
        assert manager.backpressure.stats()["deferrals"] == 1

    def test_calm_period_releases_held_grow(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.consecutive_failures = 1
        manager._apply_backpressure(entry, 5, 1, 0.0)
        entry.consecutive_failures = 0  # distress cleared
        desired = manager._apply_backpressure(entry, 1, 1, 10.0)
        assert desired == 5
        assert "svc" not in manager.backpressure.deferred

    def test_reclaim_supersedes_queued_grow(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        svc.scale_to(3)
        manager, entry = self.make_manager(engine, collector, svc)
        entry.consecutive_failures = 1
        manager._apply_backpressure(entry, 5, 3, 0.0)
        desired = manager._apply_backpressure(entry, 2, 3, 10.0)
        assert desired == 2  # shrink passes through under distress
        assert "svc" not in manager.backpressure.deferred
        assert manager.backpressure.stats()["dropped"] == 1

    def test_finished_app_does_not_hold_other_grows(
        self, engine, api, collector
    ):
        """A finished app's unresolved failure can never clear (run_once
        skips finished apps), so it must not defer other apps' grows."""
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        other = Microservice(
            "other", engine, api,
            trace=ConstantTrace(100.0), demands=DEMANDS,
            initial_allocation=ResourceVector(
                cpu=0.5, memory=1, disk_bw=20, net_bw=20
            ),
            initial_replicas=1,
        )
        other.plo = LatencyPLO(0.05, window=20)
        manager.register(other, controller())
        manager._actuate(entry, failing_action)
        assert manager._distressed(engine.now)
        svc.stop()
        desired = manager._apply_backpressure(
            manager._entries["other"], 3, 1, engine.now
        )
        assert desired == 3
        assert "other" not in manager.backpressure.deferred

    def test_distress_signals(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        assert not manager._distressed(0.0)
        for field, value in (
            ("safe_mode", True),
            ("breaker_half_open", True),
            ("consecutive_failures", 1),
        ):
            setattr(entry, field, value)
            assert manager._distressed(0.0), field
            setattr(entry, field, type(value)(0) if value is not True else False)
        entry.breaker_open_until = 100.0
        assert manager._distressed(0.0)
        assert not manager._distressed(200.0)


class BrownoutProbe:
    """Minimal app exposing the brownout surface."""

    def __init__(self, name="probe"):
        self.name = name
        self.plo = LatencyPLO(0.05, window=20)
        self.brownout_capable = True
        self.brownout_active = False
        self.entered = 0
        self.exited = 0

    def metric_prefix(self):
        return f"app/{self.name}"

    def enter_brownout(self, *, factor, latency_penalty):
        self.brownout_active = True
        self.entered += 1

    def exit_brownout(self):
        self.brownout_active = False
        self.exited += 1


class TestBrownoutHysteresis:
    def make_manager(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            overload=OverloadConfig(brownout=True),
            fault_log=FaultLog(),
        )
        manager.register(svc, controller())
        return manager, manager._entries["svc"], svc

    @staticmethod
    def periods(manager, entry, error, count, start):
        """Feed ``count`` control periods of PLO ``error`` from ``start``;
        returns the time of the next period."""
        for k in range(count):
            manager._update_brownout(entry, error, start + 10.0 * k)
        return start + 10.0 * count

    def test_enters_after_consecutive_high_periods(
        self, engine, api, collector
    ):
        manager, entry, svc = self.make_manager(engine, api, collector)
        now = self.periods(manager, entry, 1.0, BROWNOUT_ENTER_PERIODS - 1, 10.0)
        assert not svc.brownout_active
        self.periods(manager, entry, 1.0, 1, now)
        assert svc.brownout_active
        assert manager.entry_resilience("svc")["brownout_entries"] == 1
        episodes = manager.fault_log.by_kind("brownout")
        assert len(episodes) == 1 and episodes[0].active

    def test_non_consecutive_highs_do_not_enter(self, engine, api, collector):
        manager, entry, svc = self.make_manager(engine, api, collector)
        now = self.periods(manager, entry, 1.0, BROWNOUT_ENTER_PERIODS - 1, 10.0)
        now = self.periods(manager, entry, 0.0, 1, now)  # resets the streak
        self.periods(manager, entry, 1.0, BROWNOUT_ENTER_PERIODS - 1, now)
        assert not svc.brownout_active

    def test_exits_after_consecutive_low_periods(self, engine, api, collector):
        manager, entry, svc = self.make_manager(engine, api, collector)
        now = self.periods(manager, entry, 1.0, BROWNOUT_ENTER_PERIODS, 10.0)
        assert svc.brownout_active
        now = self.periods(manager, entry, 0.0, BROWNOUT_EXIT_PERIODS - 1, now)
        assert svc.brownout_active  # one low period short of the exit
        self.periods(manager, entry, 0.0, 1, now)
        assert not svc.brownout_active
        assert manager.entry_resilience("svc")["brownout_exits"] == 1
        assert not manager.fault_log.active()  # episode closed on exit

    def test_exit_threshold_compensates_latency_penalty(
        self, engine, api, collector
    ):
        manager, entry, svc = self.make_manager(engine, api, collector)
        now = self.periods(manager, entry, 1.0, BROWNOUT_ENTER_PERIODS, 10.0)
        # The penalty over the PLO target (0.05) floors the error while
        # browned out; the compensated threshold must still allow an exit.
        floor = BROWNOUT_LATENCY_PENALTY / svc.plo.target
        self.periods(manager, entry, floor, BROWNOUT_EXIT_PERIODS, now)
        assert not svc.brownout_active

    def test_apps_without_surface_are_skipped(self, engine, api, collector):
        manager, entry, svc = self.make_manager(engine, api, collector)
        probe = BrownoutProbe("other")
        probe.brownout_capable = False
        manager.register(probe, controller())
        other = manager._entries["other"]
        self.periods(manager, other, 1.0, BROWNOUT_ENTER_PERIODS, 10.0)
        assert not probe.brownout_active
        assert manager.entry_resilience("other")["brownout_entries"] == 0
