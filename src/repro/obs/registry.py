"""Prometheus-style self-metrics for the control plane.

The controller that scales everyone else's workloads should expose its
own internals the same way: counters (decisions, WAL appends, election
churn), gauges, and fixed-bucket histograms with percentile estimation
by linear interpolation inside the matched bucket — the
``histogram_quantile`` estimator, so p50/p95/p99 are computable from
bucket counts alone without retaining observations.

A :class:`MetricsRegistry` implements the collector's ``MetricsSource``
protocol under the ``ctrl`` prefix, so registering it via
:meth:`~repro.metrics.collector.MetricsCollector.register_internal`
lands every instrument in the ordinary series store (``ctrl/...``),
queryable with the same window/percentile machinery as workload metrics.

Metric names must match ``^[a-z][a-z0-9_/]*$`` (enforced at creation;
``python -m repro.obs.registry`` lints the standard instrument set in
CI).
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

#: The registry naming law, linted in CI.
NAME_PATTERN = r"^[a-z][a-z0-9_/]*$"
_NAME_RE = re.compile(NAME_PATTERN)

#: Default histogram buckets (seconds), sized for control-plane reaction
#: latencies: one scrape interval up to several control periods.
DEFAULT_BUCKETS = (1.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 60.0, 120.0)


def validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} does not match {NAME_PATTERN}"
        )
    return name


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimation.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit +inf bucket catches the overflow. Observations update only
    bucket counts (O(#buckets) memory regardless of run length).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """q-th percentile (0–100) by linear interpolation in the bucket.

        The overflow bucket has no upper bound, so a rank landing there
        reports the highest finite bound (the Prometheus convention).
        None when the histogram is empty.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - previous) / bucket_count
                if fraction < 0.0:
                    fraction = 0.0
                elif fraction > 1.0:
                    fraction = 1.0
                return lower + fraction * (upper - lower)
        return self.bounds[-1]  # pragma: no cover - rank <= count always


class MetricsRegistry:
    """Instrument store, scrapeable as a collector source.

    Implements the ``MetricsSource`` protocol: ``metric_prefix()`` is
    ``"ctrl"``, and ``sample_metrics`` flattens every instrument —
    histograms export ``<name>/count``, ``<name>/sum``, and
    interpolated ``<name>/p50|p95|p99``.
    """

    #: Percentiles exported per histogram on every scrape.
    EXPORTED_QUANTILES = (50, 95, 99)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        # Split by shape at registration so the per-scrape flatten loop
        # needs no isinstance dispatch (it runs every scrape interval
        # for the whole run — the telemetry overhead gate counts every
        # call it makes).
        self._scalars: list[Counter | Gauge] = []
        self._histograms: list[Histogram] = []
        # name -> (count at export time, flattened quantile samples).
        # Quantiles depend only on bucket counts, so while ``count`` is
        # unchanged the cached export is exact.
        self._hist_export: dict[str, tuple[int, dict[str, float]]] = {}

    def _register(self, instrument):
        name = validate_name(instrument.name)
        if name in self._instruments:
            raise ValueError(f"metric {name!r} already registered")
        self._instruments[name] = instrument
        if isinstance(instrument, Histogram):
            self._histograms.append(instrument)
        else:
            self._scalars.append(instrument)
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._register(Gauge(name))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, buckets))

    def names(self) -> list[str]:
        return sorted(self._instruments)

    # -- MetricsSource protocol ----------------------------------------------

    def metric_prefix(self) -> str:
        return "ctrl"

    def sample_metrics(self, now: float) -> Mapping[str, float]:
        out: dict[str, float] = {}
        for inst in self._scalars:
            out[inst.name] = inst.value
        cache = self._hist_export
        for inst in self._histograms:
            name = inst.name
            count = inst.count
            out[f"{name}/count"] = count + 0.0
            out[f"{name}/sum"] = inst.sum
            if count:
                if name in cache and cache[name][0] == count:
                    quantiles = cache[name][1]
                else:
                    quantiles = {}
                    for q in self.EXPORTED_QUANTILES:
                        value = inst.quantile(q)
                        if value is not None:
                            quantiles[f"{name}/p{q}"] = value
                    cache[name] = (count, quantiles)
                out.update(quantiles)
        return out


def lint_names(names: Sequence[str]) -> list[str]:
    """Return the names violating :data:`NAME_PATTERN` (empty = clean)."""
    return [n for n in names if not _NAME_RE.match(n)]


#: Namespaces an instrument name may live under. A name with a ``/``
#: declares a namespace in its first segment: ``sched/*`` (admission /
#: backpressure / brownout), ``dp/*`` (data-plane FT engine), ``store/*``
#: (object-store repair), ``slo/*`` (SLO engine exports). Bare names
#: (``decisions_total``) are the legacy control-loop set and need no
#: namespace.
REGISTERED_NAMESPACES = ("sched", "dp", "store", "slo")


def lint_namespaces(names: Sequence[str]) -> list[str]:
    """Return *registered instrument* names under an unknown namespace.

    Applies to registered names only, never to sampled/exported names:
    histogram exports append ``/count``, ``/sum``, ``/p<q>`` segments to
    the instrument name, so a sampled name's first segment is not always
    a namespace (``reaction_latency/count``).
    """
    return [
        n for n in names
        if "/" in n and n.split("/", 1)[0] not in REGISTERED_NAMESPACES
    ]


def _lint_standard_instruments() -> int:  # pragma: no cover - CI entry point
    """CI lint: every standard Telemetry instrument obeys the naming law."""
    from repro.obs.telemetry import Telemetry
    from repro.sim.engine import Engine

    registry = Telemetry(Engine()).registry
    sampled = list(registry.sample_metrics(0.0))
    bad = lint_names(registry.names()) + lint_names(sampled)
    bad_ns = lint_namespaces(registry.names())
    if bad or bad_ns:
        if bad:
            print(f"metric names violating {NAME_PATTERN}: {bad}")
        if bad_ns:
            print(
                "instruments under unregistered namespaces "
                f"(known: {REGISTERED_NAMESPACES}): {bad_ns}"
            )
        return 1
    print(
        f"registry lint OK: {len(registry.names())} instruments, "
        f"{len(sampled)} exported series match {NAME_PATTERN}, "
        f"namespaces within {REGISTERED_NAMESPACES}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised in CI
    raise SystemExit(_lint_standard_instruments())
