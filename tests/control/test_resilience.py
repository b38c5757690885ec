"""Unit tests for the control loop's graceful-degradation machinery:
stale-signal safe mode, actuation retries with backoff, circuit breaker."""

import numpy as np
import pytest

from repro.cluster.api import ActuationError
from repro.cluster.chaos import FaultLog
from repro.cluster.resources import ResourceVector
from repro.control.manager import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_FLAP_THRESHOLD,
    BREAKER_FLAP_WINDOW,
    BREAKER_OPEN_DURATION,
    RETRY_BASE_DELAY,
    RETRY_JITTER,
    SAFE_MODE_AFTER,
)
from repro.control.multiresource import (
    AllocationBounds,
    ControlDecision,
    MultiResourceController,
)
from repro.control.pid import PIDGains
from repro.workloads.microservice import Microservice, ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace
from tests.conftest import make_manager


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


def jittered(delays, seed=0):
    """``delays`` scaled by the jitter factors that a manager whose rng is
    ``default_rng(seed)`` (the default is seed 0) draws for them."""
    twin = np.random.default_rng(seed)
    return [
        d * (1.0 + RETRY_JITTER * (2.0 * float(twin.random()) - 1.0))
        for d in delays
    ]


class TestSafeMode:
    def test_freshness_timeout_is_interval_multiple(self, engine, collector):
        manager = make_manager(engine, collector, interval=10.0)
        assert manager.freshness_timeout == pytest.approx(25.0)

    def test_enters_after_k_stale_periods_and_exits_on_signal(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(300.0)
        assert not manager.entry_resilience("svc")["safe_mode"]

        collector.stop()  # the whole scrape pipeline goes dark
        # The PLO's 20 s window empties first, so the signal is stale from
        # the 320 s period on; safe mode needs SAFE_MODE_AFTER such periods.
        entry_at = 320.0 + 10.0 * (SAFE_MODE_AFTER - 1)
        engine.run_until(entry_at - 5.0)
        assert not manager.entry_resilience("svc")["safe_mode"]
        engine.run_until(entry_at + 5.0)
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
        manager = make_manager(engine, collector, interval=10.0)
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
        manager = make_manager(engine, collector, interval=10.0)
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
        ``SAFE_MODE_AFTER`` must never trip safe mode: the counter resets
        on every fresh signal instead of accumulating across gaps."""
        svc = deploy(engine, api, collector)
        collector.stop()  # signal freshness is driven by hand below
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        # One latency sample per gap; with the PLO's 20 s window the
        # periods at +10/+20 see a fresh signal and the rest are stale —
        # exactly SAFE_MODE_AFTER − 1 consecutive stale periods per gap.
        gap = 10.0 * (2 + SAFE_MODE_AFTER - 1)
        for k in range(10):
            engine.schedule_at(
                gap * k + 9.0,
                lambda: collector.record("app/svc/latency", 0.04),
            )
        engine.run_until(gap * 10)
        res = manager.entry_resilience("svc")
        assert res["safe_mode_entries"] == 0
        assert not res["safe_mode"]

    def test_oscillation_at_boundary_enters_once_per_gap_without_thrash(
        self, engine, api, collector
    ):
        """Exactly ``SAFE_MODE_AFTER`` stale periods per cycle: each gap
        produces one clean entry/exit pair, never multiple entries (no
        thrashing while the signal stays dark)."""
        svc = deploy(engine, api, collector)
        collector.stop()
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        # One sample per gap: fresh at +10/+20, then SAFE_MODE_AFTER stale
        # periods — safe mode entered on the last of them, exited on the
        # next sample.
        gap = 10.0 * (2 + SAFE_MODE_AFTER)
        cycles = 8
        for k in range(cycles + 1):
            engine.schedule_at(
                gap * k + 9.0,
                lambda: collector.record("app/svc/latency", 0.04),
            )
        engine.run_until(gap * cycles + 25.0)
        res = manager.entry_resilience("svc")
        assert res["safe_mode_entries"] == cycles
        assert res["safe_mode_exits"] == cycles
        assert not res["safe_mode"]

    def test_safe_mode_series_recorded(self, engine, api, collector):
        # The safe-mode state, read through entry_resilience().
        svc = deploy(engine, api, collector)
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(100.0)
        assert manager.entry_resilience("svc")["safe_mode"] is False
        collector.stop()
        engine.run_until(300.0)
        state = manager.entry_resilience("svc")
        assert state["safe_mode"] is True
        assert state["safe_mode_entries"] == 1


class TestRetries:
    def make_manager(self, engine, collector, svc, **kwargs):
        manager = make_manager(engine, collector, interval=10.0, **kwargs)
        manager.register(svc, controller())
        return manager, manager._entries["svc"]

    def test_backoff_doubles_until_the_breaker_trips(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
        manager._actuate(entry, failing_action)
        delays = []
        while entry.retry_handle is not None:
            scheduled_at = engine.now
            delays.append(entry.retry_handle.time - scheduled_at)
            engine.run_until(entry.retry_handle.time)
        # Each failure short of the breaker threshold schedules one retry,
        # its base delay doubling; the failure that reaches the threshold
        # trips the breaker instead.
        retries = BREAKER_FAILURE_THRESHOLD - 1
        # The breaker is what bounds the retries of one decision.
        assert len(delays) == retries < BREAKER_FAILURE_THRESHOLD
        base = [RETRY_BASE_DELAY * 2.0**n for n in range(retries)]
        assert delays == pytest.approx(jittered(base))
        res = manager.entry_resilience("svc")
        assert res["retries"] == retries
        assert res["actuation_failures"] == BREAKER_FAILURE_THRESHOLD
        assert res["breaker_trips"] == 1

    def test_jitter_spreads_delays(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(
            engine, collector, svc, rng=np.random.default_rng(5)
        )
        manager._actuate(entry, failing_action)
        delay = entry.retry_handle.time - engine.now
        low = RETRY_BASE_DELAY * (1.0 - RETRY_JITTER)
        high = RETRY_BASE_DELAY * (1.0 + RETRY_JITTER)
        assert low <= delay <= high
        assert delay != pytest.approx(RETRY_BASE_DELAY)
        assert delay == pytest.approx(jittered([RETRY_BASE_DELAY], seed=5)[0])

    def test_retry_succeeds_and_clears_state(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
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
        manager, entry = self.make_manager(engine, collector, svc, fault_log=log)
        manager._actuate(entry, failing_action)
        engine.run_until(100.0)
        episodes = log.by_kind("actuation-retry")
        # One structured episode per retry window, covering the backoff,
        # until the breaker trips.
        retries = BREAKER_FAILURE_THRESHOLD - 1
        assert len(episodes) == retries
        assert all(e.target == "svc" for e in episodes)
        assert [e.detail for e in episodes] == [
            f"attempt={n + 1}" for n in range(retries)
        ]
        assert [e.duration() for e in episodes] == pytest.approx(
            jittered([RETRY_BASE_DELAY * 2.0**n for n in range(retries)])
        )
        assert not log.active()  # recorded closed: MTTR joins stay simple

    def test_superseded_retry_is_dropped(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager, entry = self.make_manager(engine, collector, svc)
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
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            manager._actuate(entry, failing_action)
        assert manager.entry_resilience("svc")["breaker_trips"] == 0
        assert entry.retry_handle is not None
        manager._actuate(entry, failing_action)
        assert manager.entry_resilience("svc")["breaker_trips"] == 1
        assert entry.breaker_open_until == pytest.approx(
            engine.now + BREAKER_OPEN_DURATION
        )
        assert entry.retry_handle is None  # pending retries cancelled

    def test_open_breaker_skips_loop_and_closes_by_timeout(
        self, engine, api, collector
    ):
        svc = deploy(engine, api, collector, rate=100.0, cpu=0.5)
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        manager.start()
        engine.run_until(100.0)
        entry = manager._entries["svc"]
        manager._trip_breaker(entry, engine.now)
        engine.run_until(100.0 + BREAKER_OPEN_DURATION - 5.0)
        skips_at_close = manager.entry_resilience("svc")["breaker_skips"]
        assert skips_at_close >= 1
        decided = sum(entry.stats.values())
        engine.run_until(400.0)
        # Breaker closed by timeout: the loop decides again.
        assert manager.entry_resilience("svc")["breaker_skips"] == skips_at_close
        assert sum(entry.stats.values()) > decided
        assert engine.now >= entry.breaker_open_until

    def test_trips_on_grow_reclaim_flapping(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        alloc = svc.current_allocation()

        def decision(action):
            return ControlDecision(action, alloc, 0.0, 0.0, 1.0, {})

        # Alternating decisions: the k-th one adds the (k-1)-th flip, so
        # the threshold is reached one decision after that many flips —
        # still inside the flap window.
        decisions = BREAKER_FLAP_THRESHOLD + 1
        assert decisions <= BREAKER_FLAP_WINDOW
        tripped = [
            manager._record_direction(entry, decision(("grow", "reclaim")[i % 2]))
            for i in range(decisions)
        ]
        assert tripped == [False] * BREAKER_FLAP_THRESHOLD + [True]
        assert manager.entry_resilience("svc")["breaker_trips"] == 1

    def test_holds_do_not_count_as_flaps(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = make_manager(engine, collector, interval=10.0)
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
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        manager._actuate(entry, failing_action)
        assert entry.retry_handle is not None
        manager.unregister("svc")
        engine.run_until(100.0)  # cancelled retry must not fire

    def test_resilience_stats_aggregates(self, engine, api, collector):
        svc = deploy(engine, api, collector)
        manager = make_manager(engine, collector, interval=10.0)
        manager.register(svc, controller())
        entry = manager._entries["svc"]
        manager._actuate(entry, failing_action)
        stats = manager.resilience_stats()
        assert stats["actuation_failures"] == 1
        assert stats["retries"] == 1
