"""Unit tests for the control loop's graceful-degradation machinery:
stale-signal safe mode, actuation retries with backoff, circuit breaker."""

import numpy as np
import pytest

from repro.cluster.api import ActuationError
from repro.cluster.chaos import FaultLog
from repro.cluster.resources import ResourceVector
from repro.control.manager import ControlLoopManager, ResilienceConfig
from repro.control.multiresource import (
    AllocationBounds,
    ControlDecision,
    MultiResourceController,
)
from repro.control.pid import PIDGains
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


def deploy(engine, api, collector, *, rate=100.0, cpu=0.5, plo_target=0.05):
    svc = Microservice(
        "svc", engine, api,
        trace=ConstantTrace(rate), demands=DEMANDS,
        initial_allocation=ResourceVector(cpu=cpu, memory=1, disk_bw=20, net_bw=20),
        initial_replicas=1,
    )
    svc.plo = LatencyPLO(plo_target, window=20)
    svc.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    collector.register(svc)
    collector.start()
    return svc


def failing_action():
    raise ActuationError("injected")


class TestResilienceConfig:
    def test_freshness_defaults_to_interval_multiple(self, engine, collector):
        manager = ControlLoopManager(engine, collector, interval=10.0)
        assert manager.freshness_timeout == pytest.approx(25.0)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(freshness_timeout=7.0),
        )
        assert manager.freshness_timeout == pytest.approx(7.0)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(safe_mode_after=0)
        with pytest.raises(ValueError):
            ResilienceConfig(retry_base_delay=0)
        with pytest.raises(ValueError):
            ResilienceConfig(retry_jitter=1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(breaker_failure_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(breaker_open_duration=0)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("breaker_flap_threshold", 0),
            ("breaker_flap_threshold", -1),
            ("breaker_flap_window", 0),
            ("breaker_flap_window", 1),
            ("freshness_timeout", 0.0),
            ("freshness_timeout", -5.0),
        ],
    )
    def test_knobs_that_break_the_loop_rejected(self, knob, value):
        """A flap threshold below 1 trips on every second non-hold
        decision, a window below 2 can hold no flip, and a non-positive
        freshness timeout marks every signal stale."""
        with pytest.raises(ValueError, match=knob):
            ResilienceConfig(**{knob: value})

    def test_smallest_valid_flap_knobs_accepted(self):
        cfg = ResilienceConfig(breaker_flap_window=2, breaker_flap_threshold=1)
        assert (cfg.breaker_flap_window, cfg.breaker_flap_threshold) == (2, 1)


class TestSafeMode:
    def test_enters_after_k_stale_periods_and_exits_on_signal(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(safe_mode_after=3),
        )
        manager.register(svc, controller())
        manager.start()
        engine.run_until(300.0)
        assert not manager.entry_resilience("svc")["safe_mode"]

        collector.stop()  # the whole scrape pipeline goes dark
        # The PLO's 20 s window empties first, so the signal is stale from
        # the 320 s period on; safe mode needs 3 such periods (at 340 s).
        engine.run_until(335.0)
        assert not manager.entry_resilience("svc")["safe_mode"]
        engine.run_until(345.0)
        res = manager.entry_resilience("svc")
        assert res["safe_mode"]
        assert res["safe_mode_entries"] == 1

        # Frozen at last-known-good: the target must not move while dark.
        frozen = svc.target_allocation
        engine.run_until(500.0)
        assert svc.target_allocation == frozen
        assert manager.entry_resilience("svc")["safe_mode_entries"] == 1

        collector.start()  # scrapes resume
        engine.run_until(560.0)
        res = manager.entry_resilience("svc")
        assert not res["safe_mode"]
        assert res["safe_mode_exits"] == 1

    def test_exit_resets_controller_state(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        ctrl = controller()
        resets = []
        original_reset = ctrl.reset
        ctrl.reset = lambda: (resets.append(engine.now), original_reset())[-1]
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(safe_mode_after=2),
        )
        manager.register(svc, ctrl)
        manager.start()
        engine.run_until(200.0)
        collector.stop()
        engine.run_until(400.0)
        assert manager.entry_resilience("svc")["safe_mode"]
        collector.start()
        engine.run_until(460.0)
        assert not manager.entry_resilience("svc")["safe_mode"]
        # The stale integral was discarded on exit.
        assert resets

    def test_no_safe_mode_before_first_signal(self, engine, api, collector):
        """Apps that never produced a signal (e.g. delayed start) skip
        quietly instead of entering a meaningless safe mode."""
        svc = deploy(engine, api, collector)
        collector.stop()  # nothing ever scraped
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(safe_mode_after=1),
        )
        manager.register(svc, controller())
        manager.start()
        engine.run_until(200.0)
        res = manager.entry_resilience("svc")
        assert not res["safe_mode"]
        assert res["safe_mode_entries"] == 0
        assert manager._entries["svc"].skipped > 0

    def test_oscillation_below_boundary_never_enters_safe_mode(
        self, engine, api, collector
    ):
        """Staleness that keeps resolving one period short of
        ``safe_mode_after`` must never trip safe mode: the counter resets
        on every fresh signal instead of accumulating across gaps."""
        svc = deploy(engine, api, collector)
        collector.stop()  # signal freshness is driven by hand below
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(safe_mode_after=3),
        )
        manager.register(svc, controller())
        manager.start()
        # One latency sample every 40 s; with the PLO's 20 s window the
        # periods at +10/+20 see a fresh signal and +30/+40 are stale —
        # exactly safe_mode_after − 1 consecutive stale periods per cycle.
        for k in range(10):
            engine.schedule_at(
                40.0 * k + 9.0,
                lambda: collector.record("app/svc/latency", 0.04),
            )
        engine.run_until(400.0)
        res = manager.entry_resilience("svc")
        assert res["safe_mode_entries"] == 0
        assert not res["safe_mode"]

    def test_oscillation_at_boundary_enters_once_per_gap_without_thrash(
        self, engine, api, collector
    ):
        """Exactly ``safe_mode_after`` stale periods per cycle: each gap
        produces one clean entry/exit pair, never multiple entries (no
        thrashing while the signal stays dark)."""
        svc = deploy(engine, api, collector)
        collector.stop()
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(safe_mode_after=3),
        )
        manager.register(svc, controller())
        manager.start()
        # One sample every 50 s: fresh at +10/+20, stale at +30/+40/+50 —
        # safe mode entered on the third stale period, exited at +60.
        cycles = 8
        for k in range(cycles + 1):
            engine.schedule_at(
                50.0 * k + 9.0,
                lambda: collector.record("app/svc/latency", 0.04),
            )
        engine.run_until(50.0 * cycles + 25.0)
        res = manager.entry_resilience("svc")
        assert res["safe_mode_entries"] == cycles
        assert res["safe_mode_exits"] == cycles
        assert not res["safe_mode"]

    def test_safe_mode_series_recorded(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(safe_mode_after=2),
        )
        manager.register(svc, controller())
        manager.start()
        engine.run_until(100.0)
        collector.stop()
        engine.run_until(300.0)
        series = collector.series("control/svc/safe_mode")
        assert series.max_over(engine.now, 1e9) == 1.0


class TestRetries:
    def make_manager(self, engine, api, collector, svc, **cfg_kwargs):
        cfg_kwargs.setdefault("retry_jitter", 0.0)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(**cfg_kwargs),
        )
        manager.register(svc, controller())
        return manager, manager._entries["svc"]

    def test_backoff_grows_exponentially_and_caps(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(
            engine, api, collector, svc,
            retry_base_delay=2.0, retry_max_delay=16.0, max_retries=6,
            breaker_failure_threshold=100,
        )
        manager._actuate(entry, failing_action)
        delays = []
        while entry.retry_handle is not None:
            scheduled_at = engine.now
            delays.append(entry.retry_handle.time - scheduled_at)
            engine.run_until(entry.retry_handle.time)
        # 2, 4, 8 then capped at 16 for the remaining retries.
        assert delays == pytest.approx([2.0, 4.0, 8.0, 16.0, 16.0, 16.0])
        res = manager.entry_resilience("svc")
        assert res["retries"] == 6
        assert res["actuation_failures"] == 7  # initial try + 6 retries

    def test_gives_up_after_max_retries(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(
            engine, api, collector, svc,
            max_retries=2, breaker_failure_threshold=100,
        )
        manager._actuate(entry, failing_action)
        engine.run_until(1000.0)
        assert manager.entry_resilience("svc")["retries"] == 2
        assert entry.retry_handle is None
        assert entry.retry_action is None

    def test_jitter_spreads_delays(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(
                retry_base_delay=10.0, retry_jitter=0.25, max_retries=1,
                breaker_failure_threshold=100,
            ),
            rng=np.random.default_rng(5),
        )
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        manager._actuate(entry, failing_action)
        delay = entry.retry_handle.time - engine.now
        assert 7.5 <= delay <= 12.5
        assert delay != pytest.approx(10.0)

    def test_retry_succeeds_and_clears_state(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(
            engine, api, collector, svc, breaker_failure_threshold=100,
        )
        outcomes = iter([ActuationError("boom"), None])

        def flaky():
            result = next(outcomes)
            if result is not None:
                raise result

        successes = []
        manager._actuate(entry, flaky, on_success=lambda: successes.append(1))
        assert not successes
        engine.run_until(100.0)
        assert successes == [1]
        assert entry.consecutive_failures == 0
        assert entry.retry_handle is None

    def test_retries_recorded_as_fault_log_episodes(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        log = FaultLog()
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(
                retry_jitter=0.0, retry_base_delay=2.0, max_retries=3,
                breaker_failure_threshold=100,
            ),
            fault_log=log,
        )
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        manager._actuate(entry, failing_action)
        engine.run_until(100.0)
        episodes = log.by_kind("actuation-retry")
        # One structured episode per retry window, covering the backoff.
        assert len(episodes) == 3
        assert all(e.target == "svc" for e in episodes)
        assert [e.detail for e in episodes] == [
            "attempt=1", "attempt=2", "attempt=3",
        ]
        assert [e.duration() for e in episodes] == pytest.approx(
            [2.0, 4.0, 8.0]
        )
        assert not log.active()  # recorded closed: MTTR joins stay simple

    def test_superseded_retry_is_dropped(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(
            engine, api, collector, svc, breaker_failure_threshold=100,
        )
        calls = []

        def first():
            calls.append("first")
            raise ActuationError("boom")

        def second():
            calls.append("second")

        manager._actuate(entry, first)
        # A newer decision replaces the pending retry before it fires.
        manager._actuate(entry, second)
        engine.run_until(100.0)
        assert calls == ["first", "second"]


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(
                breaker_failure_threshold=3, retry_jitter=0.0, max_retries=0,
                breaker_open_duration=120.0,
            ),
        )
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        for _ in range(3):
            manager._actuate(entry, failing_action)
        assert manager.entry_resilience("svc")["breaker_trips"] == 1
        assert entry.breaker_open_until == pytest.approx(engine.now + 120.0)
        assert entry.retry_handle is None  # pending retries cancelled

    def test_open_breaker_skips_loop_and_closes_by_timeout(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(breaker_open_duration=100.0),
        )
        manager.register(svc, controller())
        manager.start()
        engine.run_until(100.0)
        entry = manager._entries["svc"]
        manager._trip_breaker(entry, engine.now)
        engine.run_until(190.0)
        skips_at_close = manager.entry_resilience("svc")["breaker_skips"]
        assert skips_at_close >= 1
        engine.run_until(400.0)
        # Breaker closed by timeout: the loop decides again.
        assert manager.entry_resilience("svc")["breaker_skips"] == skips_at_close
        assert collector.series("control/svc/breaker_open").last() == 0.0

    def test_trips_on_grow_reclaim_flapping(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(
                breaker_flap_window=6, breaker_flap_threshold=4,
            ),
        )
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        alloc = svc.current_allocation()

        def decision(action):
            return ControlDecision(action, alloc, 0.0, 0.0, 1.0, {})

        tripped = []
        for action in ("grow", "reclaim", "grow", "reclaim", "grow"):
            tripped.append(manager._record_direction(entry, decision(action)))
        assert tripped == [False, False, False, False, True]
        assert manager.entry_resilience("svc")["breaker_trips"] == 1

    def test_holds_do_not_count_as_flaps(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        alloc = svc.current_allocation()

        def decision(action):
            return ControlDecision(action, alloc, 0.0, 0.0, 1.0, {})

        for action in ("grow", "hold", "grow", "hold", "grow", "hold"):
            assert not manager._record_direction(entry, decision(action))
        assert manager.entry_resilience("svc")["breaker_trips"] == 0


class TestLifecycle:
    def test_unregister_cancels_pending_retry(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(retry_jitter=0.0),
        )
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        manager._actuate(entry, failing_action)
        assert entry.retry_handle is not None
        manager.unregister("svc")
        engine.run_until(100.0)  # cancelled retry must not fire

    def test_resilience_stats_aggregates(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = ControlLoopManager(
            engine, collector, interval=10.0,
            resilience=ResilienceConfig(retry_jitter=0.0, max_retries=1,
                                        breaker_failure_threshold=100),
        )
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        manager._actuate(entry, failing_action)
        stats = manager.resilience_stats()
        assert stats["actuation_failures"] == 1
        assert stats["retries"] == 1
