"""Scrape loop aggregating workload and cluster metrics.

Workload models register as :class:`MetricsSource`; every scrape interval
the collector samples each source plus cluster-wide allocation/usage, and
stores the samples in named :class:`~repro.metrics.timeseries.TimeSeries`.
Controllers read only from the collector, so they see metrics at scrape
granularity — the same staleness a real PID loop fights.

Only *declared* series are stored: each consumer names the series it
reads with :meth:`MetricsCollector.declare` when it is wired up, before
the run, and a read of any other name raises
:class:`UndeclaredSeriesError` rather than reading as "no data".
"""

from __future__ import annotations

import bisect
from typing import Mapping, Protocol

from repro.cluster.api import ClusterAPI
from repro.cluster.resources import RESOURCES
from repro.metrics.timeseries import ChangePointSeries, TimeSeries
from repro.sim.engine import Engine, PeriodicHandle

#: Seconds between scrapes (Prometheus default order: 5–15 s).
SCRAPE_INTERVAL = 5.0

#: Samples each series keeps before its oldest are dropped.
SERIES_MAXLEN = 100_000

#: The cluster gauges' keys in store order, which is the fault filter's draw
#: order: alloc, then usage, per resource.
_CLUSTER_KEYS = tuple(
    f"{gauge}/{name}" for name in RESOURCES for gauge in ("alloc_frac", "usage_frac")
)


class UndeclaredSeriesError(KeyError):
    """A series was read that no consumer declared to the collector."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (
            f"series {self.name!r} was never declared: call "
            "MetricsCollector.declare() with it before the run"
        )


def _proper_prefixes(names) -> set[str]:
    """Every proper prefix of each name: "app" and "app/web" for
    "app/web/latency"."""
    prefixes: set[str] = set()
    for name in names:
        cut = name.rfind("/")
        while cut > 0:
            prefix = name[:cut]
            if prefix in prefixes:
                break  # its own prefixes are in already
            prefixes.add(prefix)
            cut = name.rfind("/", 0, cut)
    return prefixes


class MetricsSource(Protocol):
    """Anything that can be scraped for named float metrics."""

    def metric_prefix(self) -> str:
        """Prefix for this source's series names (e.g. ``app/frontend``)."""
        ...

    def sample_metrics(self, now: float) -> Mapping[str, float]:
        """Return current metric values keyed by short metric name."""
        ...


class MetricsCollector:
    """Periodic scraper storing the declared series of an experiment.

    ``engine`` and ``api`` are the simulation engine and the cluster to
    scrape, every :data:`SCRAPE_INTERVAL` seconds; ``faults`` is the
    :class:`~repro.metrics.faults.MetricsFaultInjector` in front of the
    scrape path.
    """

    def __init__(self, engine: Engine, api: ClusterAPI, *, faults):
        self.engine = engine
        self.api = api
        self._sources: list[MetricsSource] = []
        self._internal_sources: list[MetricsSource] = []
        # Stored series, all under declared names, created by the first
        # append or read, or when a scrape binds the name.
        self._series: dict[str, TimeSeries] = {}
        self._declared: set[str] = set()
        # Every proper prefix of a declared name, so a scrape can skip a
        # source whose prefix leads to nothing declared without building
        # its sample names. Rebuilt at the first scrape after a
        # declaration, which keeps declare() a set update.
        self._wanted: set[str] | None = set()
        # Per source prefix, each metric key met so far, bound to its
        # ``(full name, series)`` when declared and to None when not, so a
        # round formats and hashes no full names. Dropped with _wanted.
        self._bindings: dict[str, dict[str, tuple[str, TimeSeries] | None]] = {}
        self._handle: PeriodicHandle | None = None
        self.scrapes = 0
        #: Scrape rounds that produced no samples (dropped by a fault) or
        #: arrived later than 1.5× the configured interval.
        self.scrape_gaps = 0
        self._last_attempt: float | None = None
        #: The fault filter distorting the scrape path (never the
        #: out-of-band ``record``).
        self.faults = faults
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None
        # Completed scrape rounds as parallel (time, span_id) lists so a
        # decision can be linked back to the scrape that fed it.
        self._scrape_span_times: list[float] = []
        self._scrape_span_ids: list[int] = []
        # Post-scrape hooks (e.g. the SLO engine) run after a completed
        # round, never on dropped rounds. Observation-only by contract.
        self._scrape_hooks: list = []

    # -- registration -------------------------------------------------------

    def declare(self, *names: str) -> None:
        """Store the series ``names`` from now on, and allow reading them.

        Consumers declare what they read when they are wired up, before
        the run: samples of a name scraped or recorded before its
        declaration are not kept.
        """
        self._declared.update(names)
        self._wanted = None
        self._bindings = {}

    def register(self, source: MetricsSource) -> None:
        """Add a source to the scrape set."""
        self._sources.append(source)

    def unregister(self, source: MetricsSource) -> None:
        """Remove a source; missing sources are ignored."""
        try:
            self._sources.remove(source)
        except ValueError:
            pass

    def register_internal(self, source: MetricsSource) -> None:
        """Add a control-plane source scraped WITHOUT the fault filter.

        Self-metrics describe the controller, not a kubelet exporter, so
        metrics-layer faults (blackouts, noise) must not distort them —
        and must not draw extra RNG for them, which would perturb seeded
        runs depending on whether telemetry is enabled.
        """
        self._internal_sources.append(source)

    def add_scrape_hook(self, hook) -> None:
        """Run ``hook(now)`` after each completed scrape round.

        Hooks fire once all sources (internal ones included) have been
        sampled, and are skipped entirely when a fault drops the round.
        Hooks must be observation-only — no engine events, no RNG — so
        seeded runs stay bit-identical with hooks attached or not.
        """
        self._scrape_hooks.append(hook)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin periodic scraping (first scrape one interval from now)."""
        if self._handle is not None:
            raise RuntimeError("collector already started")
        self._handle = self.engine.every(SCRAPE_INTERVAL, self.scrape, priority=-10)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- scraping ---------------------------------------------------------------

    def stored(self, name: str) -> TimeSeries | None:
        """The stored series ``name``; None when declared but not stored yet.

        A series a scrape has bound but not sampled yet is stored empty.
        Unlike :meth:`series`, a read of a name with no samples stores
        nothing.
        """
        series = self._series.get(name)
        if series is None and name not in self._declared:
            raise UndeclaredSeriesError(name)
        return series

    def series(self, name: str) -> TimeSeries:
        """The declared series with the given full name (empty if unsampled)."""
        series = self.stored(name)
        if series is None:
            series = self._series[name] = TimeSeries(maxlen=SERIES_MAXLEN)
        return series

    def has_series(self, name: str) -> bool:
        """Whether the declared series ``name`` holds at least one sample."""
        series = self.stored(name)
        return series is not None and len(series) > 0

    def record(self, name: str, value: float) -> None:
        """Record an out-of-band sample (e.g. per-event observations).

        Samples of an undeclared name are not stored.
        """
        series = self._series.get(name)
        if series is None:
            if name not in self._declared:
                return
            series = self._series[name] = TimeSeries(maxlen=SERIES_MAXLEN)
        series.append(self.engine.now, value)

    def scrape(self) -> None:
        """Sample every source and cluster-level gauges once."""
        now = self.engine.now
        self.scrapes += 1
        tel = self.telemetry
        # Late-arrival gap detection: if more than 1.5 intervals elapsed
        # since the previous attempt, the rounds in between never ran
        # (stopped collector, leadership gap). Disjoint from drop-gaps
        # below, which count rounds that ran but produced nothing.
        if self._last_attempt is not None:
            elapsed = now - self._last_attempt
            if elapsed > 1.5 * SCRAPE_INTERVAL:
                missed = max(1, round(elapsed / SCRAPE_INTERVAL) - 1)
                self.scrape_gaps += missed
                if tel is not None:
                    tel.scrape_gaps.inc(missed)
                    tel.tracer.instant(
                        "scrape_gap", "metrics", missed=missed, elapsed=elapsed
                    )
        self._last_attempt = now
        if self.faults.should_drop_scrape(now):
            self.scrape_gaps += 1
            if tel is not None:
                tel.scrape_gaps.inc()
                tel.tracer.instant("scrape_dropped", "metrics")
            return
        if tel is None:
            self._scrape_all(now)
        else:
            # inc(1.0) inlined: the telemetry overhead gate counts every
            # call a scrape makes.
            tel.scrapes.value += 1.0
            sp = tel.tracer.begin("scrape", "metrics", round=self.scrapes)
            self._scrape_span_times.append(now)
            self._scrape_span_ids.append(sp.id)
            try:
                self._scrape_all(now)
            finally:
                tel.tracer.end(sp)
        if self._scrape_hooks:
            for hook in self._scrape_hooks:
                hook(now)

    def _scrape_all(self, now: float) -> None:
        # One rule for every source, node and gauge family, internal
        # sources included: one whose prefix leads to nothing declared is
        # not sampled, and only declared samples are stored or, while a
        # per-sample fault is active (checked once per round), passed
        # through its filter, whose RNG draws are part of the seeded
        # stream.
        faults = self.faults if self.faults.distorts_samples(now) else None
        wanted = self._wanted
        if wanted is None:
            wanted = self._wanted = _proper_prefixes(self._declared)
        bindings = self._bindings
        bind = self._bind

        def store_batch(prefix, samples, faults=faults, kind=TimeSeries):
            # Samples in their given order, which is the filter's draw
            # order under a per-sample fault.
            try:
                bound = bindings[prefix]
            except KeyError:
                bound = bindings[prefix] = {}
            for metric, value in samples:
                try:
                    target = bound[metric]
                except KeyError:
                    target = bound[metric] = bind(f"{prefix}/{metric}", kind)
                if target is None:
                    continue
                name, series = target
                if faults is not None:
                    value = faults.filter(name, value, now, series.last())
                    if value is None:
                        continue
                series.append(now, value)

        for source in list(self._sources):
            prefix = source.metric_prefix()
            if prefix in wanted:
                store_batch(prefix, source.sample_metrics(now).items())
        if "cluster" in wanted:
            api = self.api
            cluster_gauges: list[float] = []
            for cap, allocated, used in zip(
                api.total_allocatable(), api.total_allocated(), api.total_usage()
            ):
                cluster_gauges += (
                    (allocated / cap, used / cap) if cap > 0 else (0.0, 0.0)
                )
            store_batch("cluster", zip(_CLUSTER_KEYS, cluster_gauges))
        if "node" in wanted:
            for node in self.api.list_nodes():
                prefix = f"node/{node.name}"
                if prefix not in wanted:
                    continue
                fractions = node.usage_fraction()
                alloc_fractions = node.allocation_fraction()
                node_gauges: dict[str, float] = {}
                for name in RESOURCES:
                    node_gauges[f"usage_frac/{name}"] = fractions[name]
                    node_gauges[f"alloc_frac/{name}"] = alloc_fractions[name]
                store_batch(prefix, node_gauges.items())
        # Control-plane self-metrics bypass the fault filter: see
        # register_internal. Their delta export only chooses which values
        # reach declared series, so a source with nothing declared is not
        # sampled here either; its first sampled round exports every
        # instrument. Internal sources delta-suppress their exports, so
        # their series hold change points, not uniform ticks;
        # ChangePointSeries rejects windowed aggregates that would misread
        # that encoding.
        for source in list(self._internal_sources):
            prefix = source.metric_prefix()
            if prefix in wanted:
                store_batch(
                    prefix, source.sample_metrics(now).items(), None,
                    ChangePointSeries,
                )

    def _bind(self, name: str, kind: type[TimeSeries]):
        """``(name, series)`` for a declared name, None for any other.

        The series is created here when nothing has stored it yet: empty
        until its first sample, it reads as no data, as a missing one does.
        """
        if name not in self._declared:
            return None
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = kind(maxlen=SERIES_MAXLEN)
        return name, series

    # -- convenience queries ------------------------------------------------------

    def latest(self, name: str) -> float | None:
        """Most recent value of a declared series, or None if empty."""
        series = self.stored(name)
        return series.last() if series is not None else None

    def scrape_span_at(self, time: float) -> int | None:
        """Span id of the last completed scrape at or before ``time``."""
        times = self._scrape_span_times
        if times and times[-1] <= time:
            # The usual answer, the newest scrape, needs no search.
            return self._scrape_span_ids[-1]
        idx = bisect.bisect_right(times, time) - 1
        return self._scrape_span_ids[idx] if idx >= 0 else None

    def window_mean(self, name: str, span: float) -> float | None:
        series = self.stored(name)
        if series is None:
            return None
        return series.mean_over(self.engine.now, span)

    def window_percentile(self, name: str, span: float, q: float) -> float | None:
        series = self.stored(name)
        if series is None:
            return None
        return series.percentile_over(self.engine.now, span, q)
