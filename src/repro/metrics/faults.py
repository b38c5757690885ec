"""Metrics-pipeline fault injection.

Real scrape pipelines drop samples, freeze on stale exporters, and emit
the occasional garbage outlier; a controller evaluated only on a perfect
pipeline overstates its robustness. :class:`MetricsFaultInjector` sits in
front of :class:`~repro.metrics.collector.MetricsCollector` and distorts
what gets stored:

* **Dropped scrapes** — whole scrape rounds skipped, probabilistically
  or for a window (:meth:`drop_scrapes`). No series advances, so
  freshness-based consumers (the control loop's stale-signal holddown)
  see aging timestamps.
* **Per-prefix blackouts** — samples for one source (e.g. ``app/web``)
  dropped for a window (:meth:`blackout`): the per-app scrape blackout.
* **Frozen series** — samples for a prefix replaced by the last stored
  value (:meth:`freeze`): timestamps stay fresh but the values are stale,
  the hardest staleness mode to detect.
* **Outliers** — samples multiplied by a large factor with some
  probability (:meth:`inject_noise` or ``outlier_probability``), the
  mis-scrape / unit-glitch case.

All faults are deterministic given the injected RNG, and window faults
are recorded into the shared :class:`~repro.cluster.chaos.FaultLog` for
MTTR analysis. Out-of-band :meth:`~repro.metrics.collector.MetricsCollector.record`
calls (controller internals) are never distorted — only scraped samples.

A window armed with ``now`` and ``duration`` applies on
``[now, now + duration)``, the span its episode records, so one armed
ahead of time waits for its start. A prefix may carry several blackouts
or freezes (arming one drops the prefix's windows that ended by its
``now``); a new drop or noise window replaces the last one.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.chaos import FaultEpisode, FaultLog


def _arm(
    table: dict[str, list[tuple[float, float]]], prefix: str, now: float, until: float
) -> None:
    """Add ``[now, until)`` to ``prefix``'s windows, dropping those that
    ended by ``now``."""
    table[prefix] = [w for w in table.get(prefix, ()) if w[1] > now]
    table[prefix].append((now, until))


def _in_force(windows: list[tuple[float, float]], now: float) -> bool:
    """Whether any ``(start, until)`` window holds ``now``."""
    for start, until in windows:
        if start <= now < until:
            return True
    return False


class MetricsFaultInjector:
    """Deterministic fault filter for the scrape path."""

    def __init__(self, rng: np.random.Generator, *, log: FaultLog):
        self.rng = rng
        self.log = log
        #: Per-scrape probability of dropping the whole round (continuous).
        self.drop_scrape_probability = 0.0
        #: Per-sample probability of multiplying by ``outlier_factor``.
        self.outlier_probability = 0.0
        self.outlier_factor = 10.0
        # (start, until, probability) and (start, until, probability, factor)
        self._drop_window: tuple[float, float, float] = (0.0, 0.0, 1.0)
        self._noise_window: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)
        # prefix -> its (start, until) windows.
        self._blackouts: dict[str, list[tuple[float, float]]] = {}
        self._frozen: dict[str, list[tuple[float, float]]] = {}
        self.scrapes_dropped = 0
        self.samples_dropped = 0
        self.samples_frozen = 0
        self.outliers_injected = 0
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None

    # -- fault verbs ---------------------------------------------------------

    def drop_scrapes(
        self, now: float, duration: float, *, probability: float = 1.0
    ) -> FaultEpisode:
        """Drop scrape rounds (with ``probability``) for a window."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self._drop_window = (now, now + duration, probability)
        return self.log.record(
            "scrape-drop", "collector", now, now + duration,
            detail=f"probability={probability:g}",
        )

    def blackout(self, prefix: str, now: float, duration: float) -> FaultEpisode:
        """Drop every sample under ``prefix`` for a window."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        _arm(self._blackouts, prefix, now, now + duration)
        return self.log.record("scrape-blackout", prefix, now, now + duration)

    def freeze(self, prefix: str, now: float, duration: float) -> FaultEpisode:
        """Freeze samples under ``prefix`` at their last stored value."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        _arm(self._frozen, prefix, now, now + duration)
        return self.log.record("metrics-freeze", prefix, now, now + duration)

    def inject_noise(
        self,
        now: float,
        duration: float,
        *,
        probability: float = 0.2,
        factor: float = 10.0,
    ) -> FaultEpisode:
        """Outlier window: each sample ×``factor`` with ``probability``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self._noise_window = (now, now + duration, probability, factor)
        return self.log.record(
            "metrics-noise", "collector", now, now + duration,
            detail=f"probability={probability:g} factor={factor:g}",
        )

    # -- filter interface (called by the collector) --------------------------

    def distorts_samples(self, now: float) -> bool:
        """Whether any per-sample fault could fire at ``now``.

        The collector checks this once per scrape round and skips the
        per-sample :meth:`filter` entirely on a quiescent pipeline — the
        overwhelmingly common case. Safe for seeded determinism: when
        this returns False, :meth:`filter` would return every value
        unchanged and draw no RNG.
        """
        if self.outlier_probability > 0.0:
            return True
        start, until, prob, _ = self._noise_window
        if start <= now < until and prob > 0.0:
            return True
        for windows in self._blackouts.values():
            if _in_force(windows, now):
                return True
        for windows in self._frozen.values():
            if _in_force(windows, now):
                return True
        return False

    def should_drop_scrape(self, now: float) -> bool:
        start, until, prob = self._drop_window
        window_prob = prob if start <= now < until else 0.0
        effective = max(window_prob, self.drop_scrape_probability)
        if effective > 0.0 and float(self.rng.random()) < effective:
            self.scrapes_dropped += 1
            return True
        return False

    def _match(
        self, table: dict[str, list[tuple[float, float]]], name: str, now: float
    ) -> bool:
        for prefix, windows in table.items():
            if name.startswith(prefix) and _in_force(windows, now):
                return True
        return False

    def filter(
        self, name: str, value: float, now: float, last: float | None
    ) -> float | None:
        """Distort one scraped sample; None means drop it."""
        if self._match(self._blackouts, name, now):
            self.samples_dropped += 1
            if self.telemetry is not None:
                self.telemetry.samples_distorted.inc()
            return None
        if self._match(self._frozen, name, now):
            self.samples_frozen += 1
            if self.telemetry is not None:
                self.telemetry.samples_distorted.inc()
            # No history yet: nothing to freeze to, drop the sample.
            return last if last is not None else None
        start, until, prob, factor = self._noise_window
        in_window = start <= now < until
        window_prob = prob if in_window else 0.0
        effective = max(window_prob, self.outlier_probability)
        if effective > 0.0 and float(self.rng.random()) < effective:
            self.outliers_injected += 1
            if self.telemetry is not None:
                self.telemetry.samples_distorted.inc()
            scale = factor if in_window else self.outlier_factor
            return value * scale
        return value
