"""Outside-in per-layer attribution.

A layer is a ``repro`` module. :data:`LAYERS` names the public entry
points through which the simulator passes into each layer: methods as
``"module:Class"`` owners, module-level functions under the module that
calls them (the name lookup happens there). While a :class:`Tracer` is
installed, each entry point is replaced by a wrapper that times the call
and counts it; uninstalling puts the original objects back. Nothing
under ``src/`` changes.

A layer's self time is the time spent inside its entry points minus the
time spent inside wrapped entry points they call. Time the benchmark
spends in a cell outside every wrapped entry point (harness code, and
``repro`` code that no entry point covers, such as the body of
``EvolvePlatform.run``) is charged to :data:`OTHER`, so the self times of
one pass add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass

#: Bucket for cell time outside every wrapped entry point.
OTHER = "other"

_WORKLOAD_CLASSES = (
    "microservice:Microservice",
    "bigdata:BigDataJob",
    "hpc:HPCJob",
    "stream:StreamJob",
)

_TIMESERIES_READS = (
    "last",
    "last_time",
    "value_at",
    "window",
    "mean_over",
    "max_over",
    "min_over",
    "percentile_over",
    "sum_over",
    "count_over",
    "rate_over",
    "ewma",
    "integrate",
    "to_lists",
)


@dataclass(frozen=True)
class Entry:
    """Entry points of one layer on one owner (a class or a module)."""

    layer: str
    owner: str
    names: tuple[str, ...]
    #: Self-time sub-bucket (``metrics`` splits writes from reads).
    part: str | None = None

    @property
    def bucket(self) -> str:
        return self.layer if self.part is None else f"{self.layer}.{self.part}"


#: Every wrapped entry point, grouped by layer, in report order.
LAYERS: tuple[Entry, ...] = (
    Entry("sim", "repro.sim.engine:Engine", ("run_until",)),
    *(
        Entry("workloads", f"repro.workloads.{owner}", ("tick", "sample_metrics"))
        for owner in _WORKLOAD_CLASSES
    ),
    Entry(
        "storage",
        "repro.storage.objectstore:ObjectStore",
        ("locality_fraction", "replica_nodes", "bucket_size_mb"),
    ),
    Entry(
        "cluster",
        "repro.cluster.api:ClusterAPI",
        (
            "create_pod",
            "delete_pod",
            "bind_pod",
            "patch_pod_allocation",
            "pending_pods",
            "list_pods",
            "list_nodes",
            "running_pods",
            "total_allocatable",
            "total_allocated",
            "total_usage",
        ),
    ),
    Entry("scheduler", "repro.scheduler.base:SchedulerBase", ("schedule_cycle",)),
    Entry(
        "scheduler",
        "repro.scheduler.converged:ConvergedScheduler",
        ("schedule_cycle", "score"),
    ),
    Entry(
        "scheduler", "repro.scheduler.converged:SiloedScheduler", ("schedule_cycle",)
    ),
    Entry("scheduler", "repro.scheduler.gang:GangAdmission", ("find_assignment",)),
    Entry(
        "metrics",
        "repro.metrics.collector:MetricsCollector",
        ("scrape", "record"),
        part="write",
    ),
    Entry(
        "metrics",
        "repro.metrics.timeseries:TimeSeries",
        _TIMESERIES_READS,
        part="read",
    ),
    Entry("control", "repro.control.manager:ControlLoopManager", ("run_once",)),
    Entry(
        "control", "repro.control.multiresource:MultiResourceController", ("decide",)
    ),
    Entry("control", "repro.control.pid:PIDController", ("update",)),
    Entry("control", "repro.autoscaler.hpa:HorizontalPodAutoscaler", ("reconcile",)),
    Entry("control", "repro.autoscaler.vpa:VerticalPodAutoscaler", ("reconcile",)),
    Entry("obs", "repro.obs.slo:SLOEngine", ("on_scrape",)),
    Entry("obs", "repro.obs.telemetry:Telemetry", ("sample_metrics",)),
    Entry("obs", "repro.arena", ("build_run_report",)),
    Entry("verify", "repro.verify.invariants:InvariantChecker", ("check_now",)),
    Entry(
        "platform",
        "repro.platform.evolve:EvolvePlatform",
        (
            "__init__",
            "deploy_microservice",
            "submit_bigdata",
            "submit_recurring_pipeline",
            "deploy_stream",
            "submit_hpc",
            "enable_chaos",
        ),
    ),
    Entry("platform", "repro.verify.fuzzer", ("build_platform", "generate_scenario")),
    Entry("platform", "repro.arena", ("build_platform",)),
    Entry("analysis", "repro.platform.evolve:EvolvePlatform", ("result",)),
    Entry(
        "analysis",
        "repro.arena",
        ("app_cost", "fault_recovery_report", "recovery_time"),
    ),
)

#: Policy actuation verbs, counted for ``control.actuation_ratio`` but not
#: timed: their time belongs to the control layer that calls them.
ACTUATIONS = Entry(
    "actuation",
    "repro.workloads.base:Application",
    ("scale_to", "set_target_allocation"),
)

LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in LAYERS))

#: Layers that also report time inside their outermost calls.
INCLUSIVE = ("platform", "analysis")

#: Per-layer metrics beyond ``self_s``/``share``/``calls``: (name, unit).
EXTRAS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim": (("events", "count"), ("heap_compactions", "count")),
    "workloads": (("ticks", "count"),),
    "cluster": (("binds", "count"), ("resizes", "count")),
    "scheduler": (
        ("cycles", "count"),
        ("bind_ratio", "fraction"),
        ("score_cache_hit_ratio", "fraction"),
    ),
    "metrics": (
        ("write_s", "s"),
        ("read_s", "s"),
        ("scrapes", "count"),
        ("read_calls", "count"),
    ),
    "control": (("decisions", "count"), ("actuation_ratio", "fraction")),
    "verify": (("checks", "count"),),
    "platform": (("build_s", "s"), ("import_s", "s")),
    "analysis": (("post_s", "s"),),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced benchmark reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls"] = "count"
        for name, unit in EXTRAS.get(layer, ()):
            units[f"{layer}.{name}"] = unit
    units[f"{OTHER}.self_s"] = "s"
    units[f"{OTHER}.share"] = "fraction"
    units["trace.overhead"] = "fraction"
    return units


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Per-layer self time, inclusive time and call counts.

    Counters accumulate until :meth:`reset`. Use as a context manager, or
    pair :meth:`install` with :meth:`uninstall` in ``try``/``finally``:
    an installed tracer patches classes shared by the whole process. The
    wrappers keep their state in lists they close over and skip keyword
    unpacking when there are no keywords: a wrapped call then costs a few
    list operations and two clock reads.
    """

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        #: [self seconds, calls] per (bucket, entry-point name); a bucket is
        #: a layer, or ``metrics.write``/``metrics.read``.
        self._records: dict[tuple[str, str], list[float]] = {}
        #: [open calls, seconds in outermost calls] of the layers whose
        #: inclusive time is reported.
        self._inclusive = {layer: [0, 0.0] for layer in INCLUSIVE}
        # Child time of each open span; the bottom entry collects time
        # spent outside every cell.
        self._stack: list[float] = [0.0]

    def reset(self) -> None:
        # In place: the installed wrappers hold these objects.
        for record in self._records.values():
            record[0] = record[1] = 0
        for record in self._inclusive.values():
            record[0] = record[1] = 0
        del self._stack[1:]

    def _record(self, bucket: str, name: str) -> list[float]:
        return self._records.setdefault((bucket, name), [0.0, 0])

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for entry in LAYERS:
                for name in entry.names:
                    self._patch(entry.owner, name, self._span(entry))
            for name in ACTUATIONS.names:
                self._patch(ACTUATIONS.owner, name, self._count(ACTUATIONS.bucket))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: str, name: str, make) -> None:
        target = _resolve(owner)
        if isinstance(target, type):
            # Only the defining class: a subclass inheriting the method is
            # covered by the base wrapper, and wrapping twice would count
            # one call twice.
            if name not in vars(target):
                raise AttributeError(f"{owner} does not define {name}")
            original = vars(target)[name]
        else:
            original = getattr(target, name)
        setattr(target, name, make(original, name))
        self._patched.append((target, name, original))

    # -- wrappers -------------------------------------------------------------

    def _span(self, entry: Entry):
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        inclusive = self._inclusive.get(entry.layer)

        def make(fn, name):
            record = self._record(entry.bucket, name)

            if inclusive is None:

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    push(0.0)
                    start = clock()
                    try:
                        return fn(*args, **kwargs) if kwargs else fn(*args)
                    finally:
                        elapsed = clock() - start
                        record[0] += elapsed - pop()
                        record[1] += 1
                        stack[-1] += elapsed

                return wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                push(0.0)
                inclusive[0] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs) if kwargs else fn(*args)
                finally:
                    elapsed = clock() - start
                    record[0] += elapsed - pop()
                    record[1] += 1
                    stack[-1] += elapsed
                    inclusive[0] -= 1
                    if not inclusive[0]:
                        inclusive[1] += elapsed

            return wrapper

        return make

    def _count(self, bucket: str):
        def make(fn, name):
            record = self._record(bucket, name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record[1] += 1
                return fn(*args, **kwargs) if kwargs else fn(*args)

            return wrapper

        return make

    def cell(self, fn):
        """Run ``fn()`` as a root span; its uncovered time goes to OTHER."""
        record = self._record(OTHER, "cell")
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            record[0] += elapsed - self._stack.pop()
            record[1] += 1

    # -- readout ----------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        """Self seconds of ``layer``, or of one bucket such as ``metrics.read``."""
        return sum(
            r[0]
            for (bucket, _name), r in self._records.items()
            if layer in (bucket, bucket.split(".")[0])
        )

    def count(self, layer: str, *names: str) -> int:
        """Calls into ``layer`` (any bucket of it); only ``names`` if given."""
        return sum(
            r[1]
            for (bucket, name), r in self._records.items()
            if bucket.split(".")[0] == layer and (not names or name in names)
        )

    def snapshot(
        self, wall: float, counters: Counter, foreign_s: float = 0.0
    ) -> dict[str, float]:
        """Per-layer metrics for ``wall`` traced seconds.

        ``counters`` holds the platform counters the benchmark read after
        each run (see :class:`bench.measure.Probe`). ``foreign_s`` is time
        inside the cells that was the benchmark's own, not the cells'; it
        is taken off OTHER.
        """
        metrics: dict[str, float] = {}
        for layer in LAYER_NAMES:
            metrics[f"{layer}.self_s"] = self.self_s(layer)
            metrics[f"{layer}.share"] = self.self_s(layer) / wall
            metrics[f"{layer}.calls"] = float(self.count(layer))
        other = self.self_s(OTHER) - foreign_s
        metrics[f"{OTHER}.self_s"] = other
        metrics[f"{OTHER}.share"] = other / wall

        binds, failures = counters["sched_binds"], counters["sched_failures"]
        hits = counters["score_cache_hits"]
        decisions = self.count("control", "decide", "reconcile")
        metrics.update(
            {
                "sim.events": float(counters["events"]),
                "sim.heap_compactions": float(counters["heap_compactions"]),
                "workloads.ticks": float(self.count("workloads", "tick")),
                "cluster.binds": float(self.count("cluster", "bind_pod")),
                "cluster.resizes": float(self.count("cluster", "patch_pod_allocation")),
                "scheduler.cycles": float(self.count("scheduler", "schedule_cycle")),
                "scheduler.bind_ratio": ratio(binds, binds + failures),
                "scheduler.score_cache_hit_ratio": ratio(
                    hits, hits + self.count("scheduler", "score")
                ),
                "metrics.write_s": self.self_s("metrics.write"),
                "metrics.read_s": self.self_s("metrics.read"),
                "metrics.scrapes": float(self.count("metrics", "scrape")),
                "metrics.read_calls": float(self.count("metrics", *_TIMESERIES_READS)),
                "control.decisions": float(decisions),
                "control.actuation_ratio": ratio(
                    self.count(ACTUATIONS.layer), decisions
                ),
                "verify.checks": float(self.count("verify", "check_now")),
                "platform.build_s": self._inclusive["platform"][1],
                "analysis.post_s": self._inclusive["analysis"][1],
            }
        )
        return metrics


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0
