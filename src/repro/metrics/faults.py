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
"""

from __future__ import annotations

import numpy as np

from repro.cluster.chaos import FaultEpisode, FaultLog


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
        self._drop_window: tuple[float, float] = (0.0, 1.0)  # (until, prob)
        self._noise_window: tuple[float, float, float] = (0.0, 0.0, 1.0)
        self._blackouts: dict[str, float] = {}  # prefix -> until
        self._frozen: dict[str, float] = {}  # prefix -> until
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
        self._drop_window = (now + duration, probability)
        return self.log.record(
            "scrape-drop", "collector", now, now + duration,
            detail=f"probability={probability:g}",
        )

    def blackout(self, prefix: str, now: float, duration: float) -> FaultEpisode:
        """Drop every sample under ``prefix`` for a window."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._blackouts[prefix] = max(
            self._blackouts.get(prefix, 0.0), now + duration
        )
        return self.log.record("scrape-blackout", prefix, now, now + duration)

    def freeze(self, prefix: str, now: float, duration: float) -> FaultEpisode:
        """Freeze samples under ``prefix`` at their last stored value."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._frozen[prefix] = max(self._frozen.get(prefix, 0.0), now + duration)
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
        self._noise_window = (now + duration, probability, factor)
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
        if now < self._noise_window[0] and self._noise_window[1] > 0.0:
            return True
        for until in self._blackouts.values():
            if now < until:
                return True
        for until in self._frozen.values():
            if now < until:
                return True
        return False

    def should_drop_scrape(self, now: float) -> bool:
        until, prob = self._drop_window
        window_prob = prob if now < until else 0.0
        effective = max(window_prob, self.drop_scrape_probability)
        if effective > 0.0 and float(self.rng.random()) < effective:
            self.scrapes_dropped += 1
            return True
        return False

    def _match(self, table: dict[str, float], name: str, now: float) -> bool:
        for prefix, until in table.items():
            if now < until and name.startswith(prefix):
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
        until, prob, factor = self._noise_window
        window_prob = prob if now < until else 0.0
        effective = max(window_prob, self.outlier_probability)
        if effective > 0.0 and float(self.rng.random()) < effective:
            self.outliers_injected += 1
            if self.telemetry is not None:
                self.telemetry.samples_distorted.inc()
            scale = factor if now < until else self.outlier_factor
            return value * scale
        return value
