"""The telemetry facade: one tracer + one registry per run.

Components never construct their own tracing state; the platform builds
a single :class:`Telemetry` when ``PlatformConfig.telemetry`` is set and
hands it to every instrumented component (collector, control-loop
managers, cluster API, statestore, control plane, fault injectors). Each
instrumentation site guards with ``if self.telemetry is not None`` — one
attribute load and a None check — so a disabled run pays effectively
nothing and stays bit-identical to pre-telemetry behaviour.

The standard instrument set lives here so its names are linted in one
place (``python -m repro.obs.registry``).
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer


#: Buckets for scrape→actuation reaction latency (seconds): sub-scrape
#: up to many control periods.
REACTION_BUCKETS = (1.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 20.0, 30.0, 60.0)

#: Buckets for the pending age of shed pods (seconds): fresh arrivals up
#: to the default starvation timeout and beyond.
SHED_AGE_BUCKETS = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0)


class Telemetry:
    """Per-run observability bundle: causal tracer + self-metrics.

    All instruments are pre-registered so the ``ctrl/*`` series exist
    (at zero) from the first scrape, and so the CI name lint can
    enumerate the full standard set without running an experiment.
    """

    def __init__(self, engine):
        self.engine = engine
        self.tracer = Tracer(engine)
        self.registry = MetricsRegistry()
        r = self.registry
        # -- decision pipeline ------------------------------------------------
        self.decisions = r.counter("decisions_total")
        self.actuations = r.counter("actuations_total")
        self.safe_mode_entries = r.counter("safe_mode_entries_total")
        self.breaker_trips = r.counter("breaker_trips_total")
        self.actuation_failures = r.counter("actuation_failures_total")
        self.actuation_retries = r.counter("actuation_retries_total")
        self.reaction_latency = r.histogram(
            "reaction_latency", buckets=REACTION_BUCKETS
        )
        # -- metrics pipeline -------------------------------------------------
        self.scrapes = r.counter("scrapes_total")
        self.scrape_gaps = r.counter("scrape_gaps_total")
        self.samples_distorted = r.counter("samples_distorted_total")
        # -- HA plane ---------------------------------------------------------
        self.wal_appends = r.counter("wal_appends_total")
        self.snapshots = r.counter("snapshots_total")
        self.elections = r.counter("elections_total")
        self.step_downs = r.counter("step_downs_total")
        # -- engine -----------------------------------------------------------
        self.engine_events = r.counter("engine_events_total")
        # -- sched/* : overload-resilience layer ------------------------------
        # Counters the resilience components already maintain are synced
        # at scrape time from attached refs (below); instruments are
        # pre-registered unconditionally so the namespace lint covers
        # them and every series exists (at zero) from the first scrape.
        self.sched_pressure = r.gauge("sched/pressure")
        self.sched_latch = r.gauge("sched/latch_active")
        self.sched_activations = r.counter("sched/shed_activations_total")
        self.sched_shed_total = r.counter("sched/shed_total")
        # Per shed-class counters; dict keyed by the shed-class label
        # ("best-effort" → metric segment best_effort).
        self.sched_shed_class = {
            cls: r.counter(f"sched/shed/{cls.replace('-', '_')}")
            for cls in ("latency", "stream", "batch", "best-effort")
        }
        self.sched_rejected = r.counter("sched/rejected_pending_total")
        self.sched_evicted = r.counter("sched/evicted_running_total")
        self.sched_aged = r.counter("sched/aged_admissions_total")
        self.shed_pending_age = r.histogram(
            "sched/shed_pending_age", buckets=SHED_AGE_BUCKETS
        )
        self.bp_deferrals = r.counter("sched/backpressure/deferrals_total")
        self.bp_coalesced = r.counter("sched/backpressure/coalesced_total")
        self.bp_releases = r.counter("sched/backpressure/releases_total")
        self.bp_dropped = r.counter("sched/backpressure/dropped_total")
        self.bp_queued = r.gauge("sched/backpressure/queued")
        self.brownout_active = r.gauge("sched/brownout/active")
        self.brownout_entries = r.counter("sched/brownout/entries_total")
        self.brownout_exits = r.counter("sched/brownout/exits_total")
        # -- dp/* : data-plane FT engine --------------------------------------
        self.dp_retired = r.counter("dp/retired_work")
        self.dp_reopened = r.counter("dp/reopened_work")
        self.dp_wasted = r.counter("dp/wasted_work")
        self.dp_recomputes = r.counter("dp/lineage_recomputes_total")
        self.dp_executor_losses = r.counter("dp/executor_losses_total")
        self.dp_spec_launched = r.counter("dp/speculative_launched_total")
        self.dp_spec_wins = r.counter("dp/speculative_wins_total")
        self.dp_quarantined = r.gauge("dp/quarantined_stages")
        self.dp_checkpoints = r.counter("dp/stream/checkpoints_total")
        self.dp_restarts = r.counter("dp/stream/restarts_total")
        self.dp_replayed = r.counter("dp/stream/replayed_total")
        self.dp_lag_events = r.gauge("dp/stream/lag_events")
        # -- store/* : object-store repair loop -------------------------------
        self.store_scans = r.counter("store/repair_scans_total")
        self.store_backlog = r.gauge("store/repair_backlog")
        self.store_repaired = r.counter("store/repaired_objects_total")
        self.store_traffic = r.counter("store/repair_traffic_mb")
        self.store_dropped = r.counter("store/replicas_dropped_total")
        self.store_unplaceable = r.counter("store/unplaceable_total")
        # Attached component refs, synced per scrape when present. All
        # default empty/None: a run without the matching subsystem pays
        # only the truth-test per scrape (the overhead gate's scenario
        # enables none of them).
        self._admission = None
        self._managers: list = []
        self._dp_jobs: list = []
        self._dp_streams: list = []
        self._repair = None
        self._slo_engine = None
        # Previous scrape's full export, for delta suppression (below).
        self._last_export: dict[str, float] | None = None

    @property
    def trace(self):
        return self.tracer.trace

    # -- component attachment (platform wiring) -------------------------------

    def attach_admission(self, admission) -> None:
        """Sync ``sched/*`` admission metrics from this controller."""
        self._admission = admission

    def attach_manager(self, manager) -> None:
        """Sync backpressure/brownout ``sched/*`` metrics from this
        control-loop manager. Attach only managers with at least one of
        the two features armed — unarmed managers have nothing to sync
        and would cost scrape-time work for nothing."""
        self._managers.append(manager)

    def attach_dataplane_job(self, job) -> None:
        """Sync ``dp/*`` task-engine metrics from this FT BigDataJob."""
        self._dp_jobs.append(job)

    def attach_stream(self, stream) -> None:
        """Sync ``dp/stream/*`` metrics from this FT StreamJob."""
        self._dp_streams.append(stream)

    def attach_repair(self, repair) -> None:
        """Sync ``store/*`` metrics from this StorageRepairService."""
        self._repair = repair

    def attach_slo_engine(self, engine) -> None:
        """Sync ``slo/*`` gauges from this SLOEngine."""
        self._slo_engine = engine

    def _sync_components(self) -> None:
        """Pull resilience / data-plane / storage counters into the
        registry. Sync-at-scrape, like ``engine_events``: the components
        maintain these counts anyway, so telemetry reads them instead of
        charging every occurrence an instrument call. Plain attribute
        arithmetic plus one ``resilience_stats()`` per attached manager —
        the overhead gate counts function calls.
        """
        adm = self._admission
        if adm is not None:
            self.sched_pressure.value = adm.last_pressure
            self.sched_latch.value = 1.0 if adm.shedding_active else 0.0
            self.sched_activations.value = float(adm.activations)
            self.sched_shed_total.value = float(adm.shed_total)
            by_class = adm.shed_by_class
            for cls, counter in self.sched_shed_class.items():
                counter.value = float(by_class[cls])
            self.sched_rejected.value = float(adm.rejected_pending)
            self.sched_evicted.value = float(adm.evicted_running)
            self.sched_aged.value = float(adm.aged_admissions)
        if self._managers:
            deferrals = coalesced = releases = dropped = queued = 0
            entries = exits = 0
            for manager in self._managers:
                bp = manager.backpressure
                if bp is not None:
                    deferrals += bp.deferrals
                    coalesced += bp.coalesced
                    releases += bp.releases
                    dropped += bp.dropped
                    queued += len(bp.deferred)
                stats = manager.resilience_stats()
                entries += stats["brownout_entries"]
                exits += stats["brownout_exits"]
            self.bp_deferrals.value = float(deferrals)
            self.bp_coalesced.value = float(coalesced)
            self.bp_releases.value = float(releases)
            self.bp_dropped.value = float(dropped)
            self.bp_queued.value = float(queued)
            self.brownout_entries.value = float(entries)
            self.brownout_exits.value = float(exits)
            self.brownout_active.value = float(entries - exits)
        if self._dp_jobs:
            retired = reopened = wasted = 0.0
            recomputes = losses = launched = wins = quarantined = 0
            for job in self._dp_jobs:
                retired += job.ft_retired_work
                reopened += job.ft_reopened_work
                wasted += job.ft_wasted_work
                recomputes += job.lineage_recomputes
                losses += job.executor_losses
                launched += job.speculative_launched
                wins += job.speculative_wins
                if job.quarantined_stage is not None:
                    quarantined += 1
            self.dp_retired.value = retired
            self.dp_reopened.value = reopened
            self.dp_wasted.value = wasted
            self.dp_recomputes.value = float(recomputes)
            self.dp_executor_losses.value = float(losses)
            self.dp_spec_launched.value = float(launched)
            self.dp_spec_wins.value = float(wins)
            self.dp_quarantined.value = float(quarantined)
        if self._dp_streams:
            checkpoints = restarts = 0
            replayed = lag = 0.0
            for stream in self._dp_streams:
                checkpoints += stream.checkpoints
                restarts += stream.restarts
                replayed += stream.replayed_total
                lag += stream.lag_events
            self.dp_checkpoints.value = float(checkpoints)
            self.dp_restarts.value = float(restarts)
            self.dp_replayed.value = replayed
            self.dp_lag_events.value = lag
        repair = self._repair
        if repair is not None:
            self.store_scans.value = float(repair.scans)
            self.store_backlog.value = float(repair.backlog())
            self.store_repaired.value = float(repair.repaired_objects)
            self.store_traffic.value = repair.repair_traffic_mb
            self.store_dropped.value = float(repair.dropped_replicas)
            self.store_unplaceable.value = float(repair.unplaceable)
        if self._slo_engine is not None:
            self._slo_engine.sync_gauges()

    # -- MetricsSource protocol (the collector scrapes the bundle) ------------

    def metric_prefix(self) -> str:
        return self.registry.metric_prefix()

    def sample_metrics(self, now: float) -> dict[str, float]:
        # Counters the simulation already maintains are synced at scrape
        # time rather than incremented per occurrence — observing every
        # engine event from telemetry would cost a call per event.
        self.engine_events.value = float(self.engine.events_executed)
        self._sync_components()
        full = self.registry.sample_metrics(now)
        last = self._last_export
        self._last_export = full
        if last is None:
            # First scrape exports everything so every ctrl/* series
            # exists (at zero) from the start of the run.
            return full
        # Delta suppression: a sample is appended only when the value
        # moved since the previous scrape. Idle instruments (most
        # counters, most of the time) cost nothing per scrape, which is
        # what keeps the enabled-telemetry call overhead inside its
        # budget; ``latest()`` reads are unaffected because step
        # interpolation carries the last value forward.
        #
        # Consumer contract: ctrl/* series are change-point encoded as a
        # result. Only latest()/step-interpolated reads are meaningful;
        # windowed aggregates (mean_over/sum_over/percentile_over) would
        # weight change-points instead of uniform scrape ticks and must
        # not be used on ctrl/* series (see docs/performance.md).
        return {
            k: v for k, v in full.items() if k not in last or last[k] != v
        }
