"""The one dispatch loop against the peek/step engine it replaced.

``Engine.run_until``, ``run`` and ``step`` share one loop that pops and
runs events itself, and a periodic event pushes its own ``EventHandle``
back onto the heap after each firing. This module keeps the previous
engine as the reference: ``run_until`` and ``run`` call ``peek()`` and
``step()`` once per event, and every periodic firing allocates a new
handle. Its ``run_until`` keeps the current clock rule: a run that
``stop()`` ended leaves the clock at the stopping event's time.

Seeded random programs run on both engines: one-shot and periodic
events at tied and distinct times, cancellation inside callbacks, a
periodic that cancels itself, ``stop()`` from a callback and from a
cycle hook, cancellation churn that compacts the heap mid-run, and
``step()``/``run(max_events=...)`` calls between the ``run_until``
slices. After every slice the two engines must agree on the execution
order, the clock, the counters, ``audit_heap()`` and every handle's
state.
"""

from __future__ import annotations

import cProfile
import heapq
import pstats
import random

import pytest

from repro.sim.engine import Engine, EventHandle, PeriodicHandle

# -- the reference: the engine before the one-loop dispatch ----------------------


class ReferenceEngine(Engine):
    """``Engine`` with the previous ``every``, ``peek``, ``step``,
    ``run_until`` and ``run``."""

    def every(self, interval, callback, *, start=None, priority=0):
        periodic = PeriodicHandle(self, interval)
        first = self._now + interval if start is None else start
        counter = self._counter

        def fire() -> None:
            if periodic.cancelled:
                return
            periodic.fired += 1
            callback()
            if not periodic.cancelled:
                handle = EventHandle(self._now + interval, priority, fire, self)
                heapq.heappush(
                    self._heap, (handle.time, priority, next(counter), handle)
                )
                self._live += 1
                periodic._current = handle

        periodic._current = self.schedule_at(first, fire, priority=priority)
        return periodic

    def peek(self):
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return entry[0]
        return None

    def step(self):
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            handle = entry[3]
            if handle.cancelled:
                pop(heap)
                self._cancelled_in_heap -= 1
                continue
            if self._cycle_hooks and entry[0] > self._now:
                for hook in tuple(self._cycle_hooks):
                    hook()
            pop(heap)
            self._now = entry[0]
            handle.executed = True
            self._live -= 1
            handle.callback()
            self.events_executed += 1
            return True
        return False

    def run_until(self, end_time):
        self._running = True
        try:
            while self._running:
                nxt = self.peek()
                if nxt is None or nxt > end_time:
                    break
                self.step()
            if self._running:  # a stop() leaves the clock where it stopped
                self._now = max(self._now, end_time)
        finally:
            self._running = False

    def run(self, max_events=None):
        executed = 0
        self._running = True
        try:
            while self._running:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
        return executed


# -- seeded random programs --------------------------------------------------------

HORIZON = 120.0
SLICE = 5.0
DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5, 3.7, 7.0)
INTERVALS = (0.5, 1.0, 2.5, 5.0)
PRIORITIES = (-1, 0, 0, 1)


class World:
    """One engine driven by a seeded program; every callback logs itself.

    Callbacks draw from the world's own RNG, so two worlds built from the
    same seed make the same draws only while their engines run the same
    callbacks in the same order.
    """

    def __init__(self, engine_cls, seed: int):
        self.engine = engine_cls()
        self.rng = random.Random(seed)
        self.log: list[tuple] = []
        self.handles: list[EventHandle] = []
        self.periodics: list[PeriodicHandle] = []
        self.names = 0
        engine = self.engine
        for _ in range(self.rng.randint(5, 25)):
            self.one_shot(self.rng.uniform(0.0, 40.0), absolute=True)
        for _ in range(self.rng.randint(1, 4)):
            self.periodic(start=self.rng.choice((None, 0.0, 2.5, 3.0)))
        if self.rng.random() < 0.5:
            engine.add_cycle_hook(self.hook)

    def _name(self, kind: str) -> str:
        self.names += 1
        return f"{kind}{self.names}"

    def one_shot(self, when: float, *, absolute: bool = False) -> None:
        name = self._name("e")
        priority = self.rng.choice(PRIORITIES)
        callback = lambda: self.act(name)  # noqa: E731
        if absolute:
            handle = self.engine.schedule_at(when, callback, priority=priority)
        else:
            handle = self.engine.schedule(when, callback, priority=priority)
        self.handles.append(handle)

    def periodic(self, *, start=None) -> None:
        name = self._name("p")
        index = len(self.periodics)
        # Some periodics cancel themselves after a few firings.
        lifetime = self.rng.choice((None, None, 1, 3, 8))

        def fire() -> None:
            self.act(name)
            periodic = self.periodics[index]
            if lifetime is not None and periodic.fired >= lifetime:
                periodic.cancel()

        self.periodics.append(
            self.engine.every(
                self.rng.choice(INTERVALS),
                fire,
                start=None if start is None else self.engine.now + start,
                priority=self.rng.choice(PRIORITIES),
            )
        )

    def act(self, name: str) -> None:
        engine = self.engine
        self.log.append((name, engine.now))
        roll = self.rng.random()
        if roll < 0.25:
            self.one_shot(self.rng.choice(DELAYS))
        elif roll < 0.40 and self.handles:
            self.rng.choice(self.handles).cancel()
        elif roll < 0.45 and self.periodics:
            self.rng.choice(self.periodics).cancel()
        elif roll < 0.50 and len(self.periodics) < 12:
            self.periodic(start=self.rng.choice((None, 0.0, 1.5)))
        elif roll < 0.53:
            self.churn()
        elif roll < 0.56:
            engine.stop()

    def churn(self) -> None:
        """Schedule far-future events and cancel most of them: enough
        lazily cancelled entries to compact the heap mid-run."""
        engine = self.engine
        batch = [
            engine.schedule(1000.0 + i, lambda: None)
            for i in range(self.rng.randint(60, 90))
        ]
        for handle in batch[: len(batch) - self.rng.randint(0, 5)]:
            handle.cancel()
        self.handles.extend(batch)

    def hook(self) -> None:
        self.log.append(("hook", self.engine.now))
        if self.rng.random() < 0.03:
            self.engine.stop()

    def snapshot(self) -> tuple:
        engine = self.engine
        return (
            list(self.log),
            engine.now,
            engine.events_executed,
            engine.pending_count(),
            engine.cancelled_in_heap,
            engine.heap_compactions,
            engine.audit_heap(),
            engine.heap_size(),
            [(h.time, h.priority, h.cancelled, h.executed) for h in self.handles],
            [
                (
                    p.fired,
                    p.cancelled,
                    p._current.time,
                    p._current.cancelled,
                    p._current.executed,
                    p._current.pending,
                )
                for p in self.periodics
            ],
        )


def _drive(world: World, plan: list[tuple[int, int | None]]) -> list[tuple]:
    """Slices of ``run_until`` up to the horizon, each followed by the
    planned ``step()`` calls and ``run(max_events=...)``; a snapshot,
    with the calls' return values, after each."""
    engine = world.engine
    snapshots = []
    for steps, max_events in plan:
        if engine.now >= HORIZON:
            break
        engine.run_until(engine.now + min(SLICE, HORIZON - engine.now))
        results = [engine.step() for _ in range(steps)]
        if max_events is not None:
            results.append(engine.run(max_events=max_events))
        snapshots.append((world.snapshot(), results, engine.peek()))
    return snapshots


def _plan(seed: int) -> list[tuple[int, int | None]]:
    rng = random.Random(10_000 + seed)
    return [
        (rng.choice((0, 0, 0, 1, 2)), rng.choice((None, None, None, 0, 1, 3)))
        for _ in range(int(HORIZON / SLICE) * 2)
    ]


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_slice_matches_reference(seed):
    plan = _plan(seed)
    fast = _drive(World(Engine, seed), plan)
    ref = _drive(World(ReferenceEngine, seed), plan)
    assert len(fast) == len(ref) > 0
    for index, (got, want) in enumerate(zip(fast, ref)):
        assert got == want, f"seed {seed}: slice {index} differs"


def test_programs_reach_the_paths_they_name():
    """Across the seeds: compaction mid-run, stops from a callback or a
    hook, hooks that ran, and periodics cancelled inside their own
    firing."""
    compactions = stops = hook_runs = self_cancelled = 0
    for seed in SEEDS:
        world = World(Engine, seed)
        calls = []
        world.engine.stop = lambda engine=world.engine, calls=calls: (
            calls.append(engine.now),
            Engine.stop(engine),
        )
        _drive(world, _plan(seed))
        compactions += world.engine.heap_compactions
        stops += len(calls)
        hook_runs += sum(1 for name, _ in world.log if name == "hook")
        self_cancelled += sum(
            1 for p in world.periodics if p.cancelled and p._current.executed
        )
    assert compactions > 0
    assert stops > 0
    assert hook_runs > 0
    assert self_cancelled > 0


def test_periodic_reuses_its_handle():
    engine = Engine()
    periodic = engine.every(1.0, lambda: None)
    handle = periodic._current
    engine.run_until(10.0)
    assert periodic.fired == 10
    assert periodic._current is handle
    assert handle.pending and handle.time == 11.0
    periodic.cancel()
    assert engine.pending_count() == 0
    assert engine.audit_heap() == (0, 1)


# -- dispatch call budget ---------------------------------------------------------


def _engine_calls(profile: cProfile.Profile) -> int:
    """Profiled calls of the engine's own functions, and of the builtins
    they call directly (heap operations, the sequence counter), but not
    of the callbacks they run nor of the ``now`` getter other layers
    read."""
    stats = pstats.Stats(profile).stats
    engine_file = Engine.__module__.replace(".", "/") + ".py"

    def in_engine(func) -> bool:
        return func[0].endswith(engine_file) and func[2] != "now"

    calls = 0
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        if in_engine(func):
            calls += nc
        elif func[0] == "~":
            calls += sum(
                counts[0] for caller, counts in callers.items() if in_engine(caller)
            )
    return calls


def test_dispatch_call_budget():
    # Profiled engine calls per executed event on the fleet smoke shape
    # (six adaptive services on three nodes for 300 s, run in 5-s
    # slices): 4.21 measured (Python 3.11); the budget is that plus ~25%.
    # The peek/step loop with a new handle per periodic firing read 7.16
    # here. The run is seeded, so the count is the same on every machine.
    from repro.cluster.resources import ResourceVector
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.workloads.microservice import ServiceDemands
    from repro.workloads.plo import LatencyPLO
    from repro.workloads.traces import DiurnalTrace

    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=3),
        scheduler="converged",
        policy="adaptive",
    )
    for i in range(6):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=3600.0,
                               phase=i * 120.0),
            demands=ServiceDemands(cpu_seconds=0.008, disk_mb=0.1,
                                   net_mb=0.05, base_latency=0.01),
            allocation=ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15),
            plo=LatencyPLO(0.06, window=30),
        )
    platform.start_control_plane()
    engine = platform.engine
    profile = cProfile.Profile()
    before = engine.events_executed
    profile.enable()
    for _ in range(60):
        engine.run_until(engine.now + 5.0)
    profile.disable()
    events = engine.events_executed - before
    per_event = _engine_calls(profile) / events
    assert events > 2_000
    assert per_event < 5.27, f"{per_event:.2f} engine calls per event"
