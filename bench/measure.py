"""One measurement: repeated passes over a workload's cells.

Every pass runs the same cells, so every pass must reproduce the first
one's fingerprint. With tracing on, traced and untraced passes
alternate: the traced ones give the per-layer metrics.

Host times are floors, scaled to a reference host speed. A pass is cut
into slices: each cell's set-up (until its first ``EvolvePlatform.run``),
every :data:`SLICE` simulated seconds of each run, and the rest of the
cell. Every slice is identical work in every pass, so the benchmark keeps
each slice's fastest time over the passes and sums them. After every run
slice it also times :func:`kernel`, a fixed loop of its own, and sums
the kernel's floors the same way. How much slower than
:data:`REFERENCE_KERNEL_S` per call the kernel ran is the host's
slowdown during the measurement; every host time is divided by it.

The host these numbers were taken on is shared: the same code runs at
speeds up to 1.6x apart, in stretches of seconds to minutes. Raw floors
of one workload moved by 6-8% between runs (interquartile range over
median), scaled ones by about 1%. The report keeps the raw floors and the
slowdown. The garbage collector runs before every cell, so collections
fall at the same points of each pass and stay inside the floors.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.platform.evolve import EvolvePlatform
from repro.verify.invariants import InvariantChecker

from bench.layers import Tracer, metric_units, ratio
from bench.workloads import WORKLOADS, Cell

ROOT = Path(__file__).resolve().parent.parent

#: Fewest passes of each kind a timed measurement makes.
MIN_PASSES = 3

#: Simulated seconds per timed slice of a run: 1 to 10 ms of host time.
SLICE = 5.0

#: Loop steps of :func:`kernel`.
KERNEL_STEPS = 64

#: Floor of one :func:`kernel` call on the host the seed-commit numbers
#: come from (2-core x86-64, Python 3.11). Scaled host times read as they
#: would on a host running the kernel at this speed.
REFERENCE_KERNEL_S = 2.7e-05

#: Wall-clock end-to-end metrics and their units. ``BENCHMARK.json``
#: lists the same names with their bounds.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s_per_wall_s": "s/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Modelled metrics: deterministic, so any change is a behaviour change.
#: (unit, better)
MODELLED = {
    "failed_frac": ("fraction", "lower"),
    "plo_violation_rate": ("fraction", "lower"),
    "alloc_efficiency": ("fraction", "higher"),
    "mean_makespan_s": ("s", "lower"),
}


def kernel() -> float:
    """Fixed interpreter work: the dict, list, float and heap operations
    the simulator is made of, on data that stays in cache."""
    heap: list[tuple[float, int]] = []
    table: dict[int, list[float]] = {}
    total = 0.0
    for i in range(KERNEL_STEPS):
        key = (i * 7919) % 61
        slot = table.get(key)
        if slot is None:
            slot = table[key] = [0.0]
        slot[0] += i * 0.5
        heapq.heappush(heap, (slot[0], i))
        if len(heap) > 16:
            total += heapq.heappop(heap)[0]
    return total


@dataclass
class CellResult:
    setup_s: float
    runs: list[float]
    #: One timed :func:`kernel` call after each run slice.
    kernels: list[float]
    #: All kernel calls, timed or not: time that is not the cell's.
    kernel_s: float
    rest_s: float
    counters: Counter
    outputs: dict
    fingerprint: str
    error: str | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.violations)

    @property
    def slices(self) -> list[tuple[str, float]]:
        slices = [("setup", self.setup_s)]
        for run, kernel_s in zip(self.runs, self.kernels):
            slices += [("run", run), ("kernel", kernel_s)]
        return slices + [("rest", self.rest_s)]


@dataclass
class PassResult:
    cells: list[CellResult]
    layers: dict[str, float] | None = None

    @property
    def slices(self) -> list[tuple[str, float]]:
        return [s for cell in self.cells for s in cell.slices]

    @property
    def wall_s(self) -> float:
        """Raw host seconds of the cells, without the kernel's."""
        return sum(s for kind, s in self.slices if kind != "kernel")

    @property
    def slowdown(self) -> float:
        """Kernel time of this pass over the reference kernel time."""
        kernels = [s for c in self.cells for s in c.kernels]
        return _slowdown(sum(kernels), len(kernels))

    @property
    def counters(self) -> Counter:
        total: Counter = Counter()
        for cell in self.cells:
            total.update(cell.counters)
        return total

    @property
    def fingerprint(self) -> str:
        return _sha256("".join(c.fingerprint for c in self.cells))


def floor(passes: list[PassResult]) -> tuple[Counter, float]:
    """Raw floors summed per slice kind, and the host slowdown they imply.

    See the module doc. Passes whose slices differ in number from the
    first pass's (possible only if a cell fails) are left out.
    """
    shape = [kind for kind, _s in passes[0].slices]
    rows = [p.slices for p in passes if [k for k, _s in p.slices] == shape]
    sums: Counter = Counter()
    for i, kind in enumerate(shape):
        sums[kind] += min(row[i][1] for row in rows)
    return sums, _slowdown(sums["kernel"], shape.count("kernel"))


def _slowdown(kernel_s: float, calls: int) -> float:
    return kernel_s / (calls * REFERENCE_KERNEL_S) if calls else 1.0


def _wall(raw: Counter) -> float:
    """Raw floor of a whole pass, without the kernel's time."""
    return raw["setup"] + raw["run"] + raw["rest"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _platform_counters(platform: EvolvePlatform) -> Counter:
    engine = platform.engine
    scheduler = platform.scheduler
    return Counter(
        events=engine.events_executed,
        sim_s=engine.now,
        heap_compactions=engine.heap_compactions,
        sched_binds=scheduler.binds,
        sched_failures=scheduler.failures,
        score_cache_hits=getattr(scheduler, "score_cache_hits", 0),
    )


class Probe:
    """Wraps ``EvolvePlatform.run`` and nothing else.

    Each run is made as successive calls of at most :data:`SLICE`
    simulated seconds, the same simulation as one call, and each call is
    timed and followed by a timed :func:`kernel`: this splits a cell into
    set-up, run slices and the rest. The probe also reads the platform's
    own counters around the run and keeps the platform for the audit at
    the end of the cell.
    """

    def __init__(self):
        self.runs: list[tuple[float, float]] = []
        self.kernels: list[float] = []
        #: Host seconds of every kernel call, timed or not.
        self.kernel_s = 0.0
        self.counters: Counter = Counter()
        self.platforms: list[EvolvePlatform] = []
        self._original = None

    def __enter__(self) -> "Probe":
        original = self._original = EvolvePlatform.run
        probe = self

        def run(platform, duration):
            engine = platform.engine
            before = _platform_counters(platform)
            end = engine.now + duration
            for _ in range(max(1, math.ceil(duration / SLICE))):
                start = time.perf_counter()
                original(platform, min(SLICE, end - engine.now))
                stop = time.perf_counter()
                kernel()  # untimed: brings the kernel back into cache
                mark = time.perf_counter()
                kernel()
                end_kernel = time.perf_counter()
                probe.runs.append((start, stop))
                probe.kernels.append(end_kernel - mark)
                probe.kernel_s += end_kernel - stop
            probe.counters.update(_platform_counters(platform) - before)
            if platform not in probe.platforms:
                probe.platforms.append(platform)

        EvolvePlatform.run = run
        return self

    def __exit__(self, *exc) -> None:
        EvolvePlatform.run = self._original

    def reset(self) -> None:
        self.runs.clear()
        self.kernels.clear()
        self.kernel_s = 0.0
        self.counters.clear()
        self.platforms.clear()

    def audit(self) -> list[str]:
        """Invariant violations of every platform the cell ran."""
        found = []
        for platform in self.platforms:
            checker = InvariantChecker.attach(platform, every=1)
            try:
                found += [str(v) for v in checker.check_now()]
            finally:
                checker.detach()
        return found


def run_cell(cell: Cell, probe: Probe, tracer: Tracer | None = None) -> CellResult:
    """Run one cell; a cell that raises is a failed cell, not a crash."""
    probe.reset()
    gc.collect()

    def body() -> tuple[dict, list[str]]:
        outputs = cell()
        return outputs, probe.audit() + list(outputs.get("violations", ()))

    error = None
    start = time.perf_counter()
    try:
        outputs, violations = tracer.cell(body) if tracer is not None else body()
    except Exception:
        # The measurement must go on and count the failure.
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        outputs, violations = {}, []
    end = time.perf_counter()
    runs = [e - s for s, e in probe.runs]
    setup = (probe.runs[0][0] if probe.runs else end) - start
    counters = Counter(probe.counters)
    record = {
        "outputs": outputs,
        "events": counters["events"],
        "sim_s": counters["sim_s"],
        "error": error.strip().splitlines()[-1] if error else None,
        "violations": violations,
    }
    return CellResult(
        setup_s=setup,
        runs=runs,
        kernels=list(probe.kernels),
        kernel_s=probe.kernel_s,
        rest_s=end - start - setup - sum(runs) - probe.kernel_s,
        counters=counters,
        outputs=outputs,
        fingerprint=_sha256(json.dumps(record, sort_keys=True, default=str)),
        error=error,
        violations=violations,
    )


def run_pass(cells: list[Cell], probe: Probe, tracer: Tracer | None) -> PassResult:
    if tracer is None:
        return PassResult([run_cell(c, probe) for c in cells])
    tracer.reset()
    with tracer:
        results = [run_cell(c, probe, tracer) for c in cells]
    result = PassResult(results)
    kernel_s = sum(c.kernel_s for c in results)
    layers = tracer.snapshot(result.wall_s, result.counters, foreign_s=kernel_s)
    units = metric_units()
    result.layers = {
        name: value / result.slowdown if units[name] == "s" else value
        for name, value in layers.items()
    }
    return result


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing everything the cells use."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import bench.measure"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return time.perf_counter() - start


def _modelled(passes: list[PassResult]) -> dict[str, float]:
    """Modelled metrics of the first pass (every pass must agree)."""
    cells = passes[0].cells
    metrics = {}
    for name in ("plo_violation_rate", "alloc_efficiency"):
        values = [c.outputs[name] for c in cells if name in c.outputs]
        if values:
            metrics[name] = statistics.fmean(values)
    makespans = [m for c in cells for m in c.outputs.get("makespans", ())]
    if makespans:
        metrics["mean_makespan_s"] = statistics.fmean(makespans)
    return metrics


def measure(
    workload: str,
    seed: int,
    *,
    seconds: float | None = None,
    passes: int | None = None,
    trace: bool = False,
    smoke: bool = False,
    cells: list[Cell] | None = None,
) -> dict:
    """Measure ``workload`` for ``seconds`` or for ``passes`` untraced passes.

    Returns a report with the contract keys (``correct``, ``attempted``,
    ``failed``, ``metrics``) plus the fingerprint, modelled metrics and
    pass counts. ``cells`` replaces the workload's own cells (tests use it
    to plant a failing cell).
    """
    if (seconds is None) == (passes is None):
        raise ValueError("give exactly one of seconds and passes")
    if cells is None:
        cells = WORKLOADS[workload](seed, smoke)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    imports: list[float] = []

    def done(last: PassResult) -> bool:
        if passes is not None:
            return len(untraced) >= passes and (not trace or len(traced) >= passes)
        if len(untraced) < MIN_PASSES or (trace and len(traced) < MIN_PASSES):
            return False
        return time.perf_counter() - start + last.wall_s > seconds

    start = time.perf_counter()
    with Probe() as probe:
        tracer = Tracer() if trace else None
        while True:
            want_traced = trace and len(traced) < len(untraced)
            result = run_pass(cells, probe, tracer if want_traced else None)
            (traced if want_traced else untraced).append(result)
            if want_traced:
                # Spread over the run like the passes, so their floor
                # is taken over the same stretch of time.
                imports.append(import_seconds())
            if done(result):
                break

    every = untraced + traced
    first = every[0].cells
    failed = 0
    for result in every:
        for cell, reference in zip(result.cells, first):
            # A cell that does not reproduce its first fingerprint fails.
            failed += cell.failed or cell.fingerprint != reference.fingerprint
    errors = [
        c.error or "; ".join(c.violations) for r in every for c in r.cells if c.failed
    ]
    if trace:
        metrics, host = _layer_metrics(untraced, traced, imports)
        counts_agree = all(
            _counts(r.layers) == _counts(traced[0].layers) for r in traced
        )
    else:
        metrics, host = _end_to_end(untraced)
        counts_agree = True
    attempted = sum(len(r.cells) for r in every)
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0 and counts_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "fingerprint": untraced[0].fingerprint,
        "modelled": {"failed_frac": failed / attempted, **_modelled(untraced)},
        "host": host,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "cells_per_pass": len(cells),
        "errors": errors[:5],
    }


def _counts(layers: dict[str, float]) -> dict[str, float]:
    units = metric_units()
    return {k: v for k, v in layers.items() if units[k] == "count"}


def _end_to_end(untraced: list[PassResult]) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw floors and slowdown behind them."""
    raw, slowdown = floor(untraced)
    run = raw["run"] / slowdown
    counters = untraced[0].counters
    values = {
        "wall_s": _wall(raw) / slowdown,
        "setup_s": raw["setup"] / slowdown,
        "sim_s_per_wall_s": ratio(counters["sim_s"], run),
        "events_per_s": ratio(counters["events"], run),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    host = {"slowdown": slowdown, "raw_floor_s": dict(raw)}
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, host


def _layer_metrics(
    untraced: list[PassResult], traced: list[PassResult], imports: list[float]
) -> tuple[dict, dict]:
    units = metric_units()
    values = {
        name: float(statistics.median(r.layers[name] for r in traced))
        for name in traced[0].layers
    }
    raw, slowdown = floor(traced)
    base, base_slowdown = floor(untraced)
    values["platform.import_s"] = min(imports) / slowdown
    traced_wall = _wall(raw) / slowdown
    values["trace.overhead"] = traced_wall / (_wall(base) / base_slowdown) - 1
    host = {"slowdown": slowdown, "raw_floor_s": dict(raw)}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, host
