"""The bound scrape against the scrape it replaced.

:class:`ReferenceCollector` keeps the collector's earlier scrape body: it
formats and looks up every sample's full name, builds the cluster gauges
by resource name, and samples internal sources every round. Each case
builds twin platforms from one seed, one scraping with the current
collector and one with the reference, runs them in lockstep one scrape
interval at a time and compares after every scrape: every stored
series' samples and class, the reads of every declared name, the fault
filter's RNG state and counters, and ``scrape_gaps``.

The one intended difference is pinned on its own: a first ``ctrl/*``
declaration made mid-run. The reference sampled telemetry every round,
so its first stored round held only the instruments that had changed;
the current collector samples telemetry from that round on, and its
first export holds every instrument.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
from dataclasses import replace
from unittest.mock import patch

import pytest

from repro.analysis import cost_series, error_series
from repro.arena import derive_slos
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.metrics.collector import (
    SCRAPE_INTERVAL,
    SERIES_MAXLEN,
    MetricsCollector,
    _proper_prefixes,
)
from repro.metrics.timeseries import ChangePointSeries, TimeSeries
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.scenarios import load_report, load_scenario
from repro.scenarios.spec import build_platform
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace, DiurnalTrace


class ReferenceCollector(MetricsCollector):
    """The collector with the scrape body it had before bound samples."""

    def _scrape_all(self, now: float) -> None:
        faults = self.faults if self.faults.distorts_samples(now) else None
        series_map = self._series
        declared = self._declared
        wanted = self._wanted
        if wanted is None:
            wanted = self._wanted = _proper_prefixes(declared)
        maxlen = SERIES_MAXLEN

        def store_batch(prefix: str, samples) -> None:
            for metric, value in samples.items():
                name = f"{prefix}/{metric}"
                series = series_map.get(name)
                if series is None and name not in declared:
                    continue
                if faults is not None:
                    value = faults.filter(
                        name, value, now,
                        series.last() if series is not None else None,
                    )
                    if value is None:
                        continue
                if series is None:
                    series = series_map[name] = TimeSeries(maxlen=maxlen)
                series.append(now, value)

        for source in list(self._sources):
            prefix = source.metric_prefix()
            if prefix in wanted:
                store_batch(prefix, source.sample_metrics(now))
        if "cluster" in wanted:
            allocatable = self.api.total_allocatable()
            allocated = self.api.total_allocated()
            usage = self.api.total_usage()
            cluster_gauges: dict[str, float] = {}
            for name in RESOURCES:
                cap = allocatable[name]
                cluster_gauges[f"alloc_frac/{name}"] = (
                    allocated[name] / cap if cap > 0 else 0.0
                )
                cluster_gauges[f"usage_frac/{name}"] = (
                    usage[name] / cap if cap > 0 else 0.0
                )
            store_batch("cluster", cluster_gauges)
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
                store_batch(prefix, node_gauges)
        for source in list(self._internal_sources):
            prefix = source.metric_prefix()
            samples = source.sample_metrics(now)
            if prefix not in wanted:
                continue
            for metric, value in samples.items():
                name = f"{prefix}/{metric}"
                if name in series_map:
                    series = series_map[name]
                elif name in declared:
                    series = series_map[name] = ChangePointSeries(
                        maxlen=maxlen
                    )
                else:
                    continue
                series.append(now, value)


FILTER_COUNTERS = (
    "scrapes_dropped", "samples_dropped", "samples_frozen", "outliers_injected",
)


def twins(build):
    """``build()`` twice: the second platform scrapes with the reference."""
    new = build()
    with patch("repro.platform.evolve.MetricsCollector", ReferenceCollector):
        ref = build()
    assert type(new.collector) is MetricsCollector
    assert type(ref.collector) is ReferenceCollector
    return new, ref


def count_calls(source):
    """Count the calls of ``source.sample_metrics``: a one-item list."""
    calls = [0]
    original = source.sample_metrics

    def counted(now):
        calls[0] += 1
        return original(now)

    source.sample_metrics = counted
    return calls


def completed_rounds(platform):
    return platform.collector.scrapes - platform.metrics_faults.scrapes_dropped


class Lockstep:
    """Twin platforms stepped one scrape interval at a time."""

    def __init__(self, new, ref):
        self.new, self.ref = new, ref
        self.checked = {}  # name -> samples already compared

    def run(self, until, actions=None, skip=frozenset()):
        """Step both to ``until``, comparing after every scrape.

        ``actions`` maps a time to a function applied to each platform at
        that time, before the next step. Series in ``skip`` are left to
        the caller.
        """
        actions = actions or {}
        while self.new.engine.now < until:
            now = self.new.engine.now
            for platform in (self.new, self.ref):
                assert platform.engine.now == now
                if now in actions:
                    actions[now](platform)
                platform.run(SCRAPE_INTERVAL)
            self.compare(skip)

    def compare(self, skip):
        a, b = self.new.collector, self.ref.collector
        assert a.scrapes == b.scrapes
        assert a.scrape_gaps == b.scrape_gaps
        fa, fb = self.new.metrics_faults, self.ref.metrics_faults
        assert fa.rng.bit_generator.state == fb.rng.bit_generator.state
        for counter in FILTER_COUNTERS:
            assert getattr(fa, counter) == getattr(fb, counter), counter
        assert a._declared == b._declared
        for name in sorted((set(a._series) | set(b._series)) - skip):
            sa, sb = a._series.get(name), b._series.get(name)
            if sb is None:
                # Bound but never sampled: stored empty, reads as no data.
                assert len(sa) == 0, name
            elif sa is None:
                assert len(sb) == 0, name
            else:
                assert type(sa) is type(sb), name
                self._same_samples(name, sa, sb)
        for name in sorted(a._declared - skip):
            assert a.has_series(name) == b.has_series(name), name
            # repr tells -0.0 from 0.0 and reads NaN as equal to NaN.
            sa, sb = a.stored(name), b.stored(name)
            last_a = sa.last_sample() if sa is not None else None
            last_b = sb.last_sample() if sb is not None else None
            assert repr(last_a) == repr(last_b), name
            assert (sa is None or len(sa) == 0) == (sb is None or len(sb) == 0)

    def _same_samples(self, name, sa, sb):
        assert len(sa) == len(sb), name
        start = self.checked.get(name, 0)
        ta, va = sa.to_lists()
        tb, vb = sb.to_lists()
        assert ta[start:] == tb[start:], name
        assert repr(va[start:]) == repr(vb[start:]), name
        self.checked[name] = len(ta)


# -- arena cells ---------------------------------------------------------------


def arena_cell(name, horizon, *, policy="adaptive"):
    """The platform ``arena.run_cell`` builds for one cell, not yet run."""

    def build():
        spec = replace(load_scenario(name).spec, horizon=horizon, policy=policy)
        platform = build_platform(
            replace(spec, slos=derive_slos(spec)), telemetry=True
        )
        collector = platform.collector
        for app in platform.apps:
            collector.declare(*cost_series(app), error_series(app))
        collector.declare(*(f"plo/{n}/ratio" for n in platform.monitor.trackers))
        return platform

    return build


@pytest.mark.parametrize(
    "scenario, policy",
    [
        ("calm", "adaptive"),
        ("overload-surge", "adaptive"),
        ("data-fault", "adaptive"),
        ("flash-crowd", "hpa"),
        ("zone-outage", "adaptive"),
    ],
)
def test_arena_cell_without_ctrl_series(scenario, policy):
    # No arena cell declares a ctrl/* series: the current collector never
    # samples telemetry, the reference samples it every completed round,
    # and both store the same.
    new, ref = twins(arena_cell(scenario, 300.0, policy=policy))
    assert not any(n.startswith("ctrl/") for n in new.collector._declared)
    new_calls, ref_calls = count_calls(new.telemetry), count_calls(ref.telemetry)
    steps = Lockstep(new, ref)
    steps.run(300.0)
    assert new_calls == [0]
    assert ref_calls == [completed_rounds(ref)] != [0]
    assert steps.checked, "the cell stored no series"


@pytest.mark.parametrize("report", ["overload", "data-fault"])
def test_report_preset_with_ctrl_slos_from_the_start(report):
    # The presets' SLOs declare ctrl/* series before the run: telemetry is
    # sampled every round on both sides, identically.
    def build():
        return build_platform(replace(load_report(report).spec, horizon=300.0))

    new, ref = twins(build)
    ctrl = {n for n in new.collector._declared if n.startswith("ctrl/")}
    assert ctrl
    new_calls = count_calls(new.telemetry)
    steps = Lockstep(new, ref)
    steps.run(300.0)
    assert new_calls == [completed_rounds(new)] != [0]
    stored = [n for n in ctrl if new.collector.has_series(n)]
    assert stored
    for name in stored:
        assert isinstance(new.collector.stored(name), ChangePointSeries)


def test_every_ctrl_series_declared_from_the_start():
    def build():
        platform = arena_cell("overload-surge", 240.0)()
        platform.collector.declare(
            *(f"ctrl/{n}" for n in platform.telemetry.registry.names())
        )
        return platform

    new, ref = twins(build)
    Lockstep(new, ref).run(240.0)
    ctrl = [n for n in new.collector._series if n.startswith("ctrl/")]
    assert len(ctrl) > 20


def test_first_ctrl_declaration_mid_run_exports_every_instrument():
    new, ref = twins(arena_cell("overload-surge", 300.0))
    # Scalar instruments export under their own names (histograms under
    # <name>/count and the like, which stay undeclared here).
    names = [f"ctrl/{n}" for n in new.telemetry.registry.names()]
    declare_at = 100.0
    steps = Lockstep(new, ref)
    steps.run(
        300.0,
        actions={declare_at: lambda p: p.collector.declare(*names)},
        skip=frozenset(names),
    )
    first = declare_at + SCRAPE_INTERVAL
    a, b = new.collector, ref.collector
    same = extra = 0
    for name in names:
        sa, sb = a.stored(name), b.stored(name)
        if sa is None:
            assert sb is None, name
            continue
        ta, va = sa.to_lists()
        tb, vb = sb.to_lists() if sb is not None else ([], [])
        # Every instrument at its first sampled round...
        assert ta[0] == first, name
        if tb and tb[0] == first:
            same += 1
        else:
            # ...where the reference kept only those that had changed.
            extra += 1
            ta, va = ta[1:], va[1:]
        assert ta == tb and repr(va) == repr(vb), name
    assert same > 0 and extra > 0


# -- a hand-built platform: faults, late keys, node and zero-capacity gauges ---


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)
#: No disk bandwidth anywhere: the cluster and node gauges divide by a
#: zero capacity in that dimension.
NODE = ResourceVector(cpu=16, memory=64, disk_bw=0, net_bw=500)
ALLOC = ResourceVector(cpu=1, memory=2, disk_bw=0, net_bw=20)


class LateKeySource:
    """A source whose ``late`` key appears after 60 s, ahead of ``early``."""

    def metric_prefix(self):
        return "app/late"

    def sample_metrics(self, now):
        if now < 60.0:
            return {"early": now}
        return {"late": 2.0 * now, "early": now}


def faulty_platform(seed=11):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3, node_capacity=NODE),
        config=PlatformConfig(seed=seed, telemetry=True),
        policy="adaptive",
    )
    for name, rate in (("web", 150.0), ("api", 90.0)):
        platform.deploy_microservice(
            name,
            trace=DiurnalTrace(base=rate, amplitude=rate / 2, period=600.0),
            demands=DEMANDS,
            allocation=ALLOC,
            plo=LatencyPLO(0.05, window=30),
        )
    # Unmanaged and without a PLO: nothing declares its series.
    platform.deploy_microservice(
        "idle", trace=ConstantTrace(20.0), demands=DEMANDS, allocation=ALLOC,
        managed=False,
    )
    collector = platform.collector
    collector.register(LateKeySource())
    collector.declare(
        "app/late/late", "app/late/early",
        *(f"node/node-00/{g}/{r}" for g in ("usage_frac", "alloc_frac")
          for r in RESOURCES),
        "node/node-01/usage_frac/cpu",
        "app/web/offered",
    )
    faults = platform.metrics_faults
    # Dropped from the first round on: web's latency is bound while its
    # every sample is blacked out.
    faults.blackout("app/web/latency", 0.0, 40.0)
    return platform


# Each fault window opens when it is armed: "from now for duration".


def freeze_and_blackout(platform):
    faults, now = platform.metrics_faults, platform.engine.now
    faults.freeze("app/api", now, 30.0)
    faults.blackout("cluster/usage_frac", now, 20.0)


def noise(platform):
    platform.metrics_faults.inject_noise(
        platform.engine.now, 50.0, probability=0.3, factor=4.0
    )


def drop_rounds(platform):
    platform.metrics_faults.drop_scrapes(platform.engine.now, 20.0, probability=0.5)


def freeze_node(platform):
    platform.metrics_faults.freeze("node/node-00", platform.engine.now, 30.0)


def continuous_outliers(platform):
    platform.metrics_faults.outlier_probability = 0.05


def declare_more(platform):
    # A key sampled but undeclared so far, a node and a source nothing
    # declared until now.
    platform.collector.declare(
        "app/web/throughput", "node/node-02/alloc_frac/memory",
        "app/idle/latency", "app/idle/usage/cpu",
    )


def test_faults_late_keys_and_node_gauges_match_the_reference():
    new, ref = twins(faulty_platform)
    idle = count_calls(new.apps["idle"])
    steps = Lockstep(new, ref)
    steps.run(35.0)
    # Bound while blacked out: stored empty here, never created there.
    assert len(new.collector.stored("app/web/latency")) == 0
    assert ref.collector.stored("app/web/latency") is None
    steps.run(
        120.0,
        actions={50.0: freeze_and_blackout, 90.0: noise, 110.0: drop_rounds},
    )
    assert idle == [0]
    steps.run(
        300.0,
        actions={120.0: declare_more, 145.0: freeze_node, 200.0: continuous_outliers},
    )
    assert idle[0] > 0
    a, faults = new.collector, new.metrics_faults
    # Each fault bit, so the comparison above saw the filter at work.
    assert faults.samples_dropped and faults.samples_frozen
    assert faults.outliers_injected and faults.scrapes_dropped
    assert a.scrape_gaps == faults.scrapes_dropped
    assert a.stored("app/late/late").to_lists()[0][0] == 60.0
    # The zero-capacity dimension reads 0.0 through the guard.
    assert a.latest("cluster/alloc_frac/disk_bw") == 0.0
    assert a.latest("node/node-00/usage_frac/disk_bw") == 0.0
    assert a.latest("cluster/alloc_frac/cpu") > 0.0
    assert a.has_series("node/node-02/alloc_frac/memory")
    assert a.has_series("app/web/throughput")
    assert a.stored("app/web/latency").to_lists()[0][0] == 40.0


@pytest.mark.parametrize("kind", [MetricsCollector, ReferenceCollector])
def test_cluster_gauges_keep_their_interleaved_order(kind):
    # Under a per-sample fault the filter sees the declared gauges in
    # store order, which is its draw order: alloc, then usage, per
    # resource.
    with patch("repro.platform.evolve.MetricsCollector", kind):
        collector = faulty_platform().collector
    seen = []
    collector.faults.filter = lambda name, value, now, last: seen.append(name)
    collector._scrape_all(5.0)
    assert [n for n in seen if n.startswith("cluster/")] == [
        f"cluster/{gauge}/{name}"
        for name in RESOURCES
        for gauge in ("alloc_frac", "usage_frac")
    ]


# -- calls per scrape ------------------------------------------------------------


def test_scrape_call_budget():
    # Profiled calls per scrape over three arena cells (adaptive on calm,
    # overload-surge and data-fault for 120 s, 72 scrapes): 213.2 measured
    # (Python 3.11); the budget is that plus ~25%. The scrape that sampled
    # telemetry every round and formatted every sample's name read 284.0.
    # The runs are seeded, so the count is the same on every machine.
    profile = cProfile.Profile()
    scrapes = 0

    def profiled(scrape):
        nonlocal scrapes
        scrapes += 1
        return profile.runcall(scrape)

    for scenario in ("calm", "overload-surge", "data-fault"):
        platform = arena_cell(scenario, 120.0)()
        collector = platform.collector
        collector.scrape = functools.partial(profiled, collector.scrape)
        platform.run(120.0)
    assert scrapes == 72
    # Each runcall also records the profiler's own disable() call.
    per_scrape = (pstats.Stats(profile).total_calls - scrapes) / scrapes
    assert per_scrape < 266.0, f"{per_scrape:.1f} profiled calls per scrape"
