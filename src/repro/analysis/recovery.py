"""Per-fault-episode recovery analysis: MTTR and re-convergence.

Joins the :class:`~repro.cluster.chaos.FaultLog` written by the fault
injectors against the control loop's recorded ``control/<app>/error``
series to answer, per episode: how long did the fault last (MTTR at the
infrastructure level), and how long after injection did each managed
application's PLO error settle back inside the deadband (re-convergence
at the control level)? The caller declares :func:`error_series` for each
app before the run, so the collector stores it.

Used by ``benchmarks/bench_t7_fault_matrix.py`` and the robustness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.cluster.chaos import FaultEpisode, FaultLog
from repro.metrics.collector import MetricsCollector


def error_series(app: str) -> str:
    """The control-loop error series :func:`reconvergence_time` reads."""
    return f"control/{app}/error"


def reconvergence_time(
    collector: MetricsCollector,
    app: str,
    start: float,
    *,
    threshold: float = 0.15,
    settle: int = 3,
    horizon: float | None = None,
) -> float | None:
    """Seconds from ``start`` until the app's PLO error settles.

    PLO errors are signed with positive = violating (negative means the
    objective is overachieved, which is fine), so settled means
    ``settle`` consecutive ``control/<app>/error`` samples with
    ``error ≤ threshold``; the re-convergence instant is the last sample
    of that run. Returns None when the error never settles inside
    ``horizon`` (or by the end of the series), or the series is absent —
    a fault the controller did not recover from.
    """
    if settle < 1:
        raise ValueError("settle must be ≥ 1")
    name = error_series(app)
    if not collector.has_series(name):
        return None
    end = start + horizon if horizon is not None else float("inf")
    run = 0
    for t, value in zip(*collector.series(name).to_lists()):
        if t < start:
            continue
        if t > end:
            break
        run = run + 1 if value <= threshold else 0
        if run >= settle:
            return t - start
    return None


@dataclass(frozen=True)
class EpisodeRecovery:
    """Recovery outcome of one fault episode across the managed apps."""

    episode: FaultEpisode
    #: Episode duration (injection → heal); None while still active.
    mttr: float | None
    #: Per-app seconds from injection to settled PLO error (None = never).
    reconvergence: Mapping[str, float | None]

    def worst_reconvergence(self) -> float | None:
        """Slowest app re-convergence; None when any app never settled."""
        values = list(self.reconvergence.values())
        if not values or any(v is None for v in values):
            return None
        return max(values)


@dataclass(frozen=True)
class RecoveryStats:
    """Aggregate over a set of :class:`EpisodeRecovery`."""

    episodes: int
    healed: int
    mean_mttr: float | None
    max_mttr: float | None
    mean_reconvergence: float | None
    max_reconvergence: float | None
    unconverged: int


def fault_recovery_report(
    log: FaultLog,
    collector: MetricsCollector,
    apps: Sequence[str],
    *,
    threshold: float = 0.15,
    settle: int = 3,
    horizon: float | None = None,
    kinds: Iterable[str] | None = None,
) -> list[EpisodeRecovery]:
    """Build one :class:`EpisodeRecovery` per logged episode.

    ``kinds`` filters episodes by fault kind; default is all of them.
    """
    wanted = set(kinds) if kinds is not None else None
    reports = []
    for episode in log.episodes:
        if wanted is not None and episode.kind not in wanted:
            continue
        recon = {
            app: reconvergence_time(
                collector, app, episode.start,
                threshold=threshold, settle=settle, horizon=horizon,
            )
            for app in apps
        }
        reports.append(EpisodeRecovery(episode, episode.duration(), recon))
    return reports


@dataclass(frozen=True)
class FailoverStats:
    """Aggregate over control-plane :class:`~repro.control.ha.FailoverEvent`.

    Only events with a measured ``gap`` count as failovers — the initial
    election has nothing to fail over from.
    """

    elections: int
    failovers: int
    mean_gap: float | None
    max_gap: float | None
    snapshot_restores: int
    wal_replayed: int
    wal_deduped: int
    wal_reissued: int
    wal_failed: int


def failover_stats(events: Sequence) -> FailoverStats:
    """Summarize a control plane's ``failovers`` list (R-T8 reporting)."""
    gaps = [e.gap for e in events if e.gap is not None]
    return FailoverStats(
        elections=len(events),
        failovers=len(gaps),
        mean_gap=sum(gaps) / len(gaps) if gaps else None,
        max_gap=max(gaps) if gaps else None,
        snapshot_restores=sum(1 for e in events if e.snapshot_restored),
        wal_replayed=sum(e.wal_replayed for e in events),
        wal_deduped=sum(e.wal_deduped for e in events),
        wal_reissued=sum(e.wal_reissued for e in events),
        wal_failed=sum(e.wal_failed for e in events),
    )


def series_divergence(
    collector_a: MetricsCollector,
    collector_b: MetricsCollector,
    name: str,
    *,
    start: float,
    end: float,
    step: float = 10.0,
) -> float | None:
    """Max absolute difference between two runs' series over [start, end].

    Samples both series on a fixed grid with step interpolation, so runs
    with slightly different sample times still compare. Used to measure
    how far a failover run's allocations drift from a crash-free run of
    the same seed. Returns None when either series is absent or never
    overlaps the window.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not collector_a.has_series(name) or not collector_b.has_series(name):
        return None
    series_a = collector_a.series(name)
    series_b = collector_b.series(name)
    worst: float | None = None
    t = start
    while t <= end + 1e-9:
        va = series_a.value_at(t)
        vb = series_b.value_at(t)
        if va is not None and vb is not None:
            diff = abs(va - vb)
            if worst is None or diff > worst:
                worst = diff
        t += step
    return worst


def summarize(reports: Sequence[EpisodeRecovery]) -> RecoveryStats:
    """Aggregate MTTR / re-convergence across episodes."""
    mttrs = [r.mttr for r in reports if r.mttr is not None]
    worsts = [r.worst_reconvergence() for r in reports]
    settled = [w for w in worsts if w is not None]
    return RecoveryStats(
        episodes=len(reports),
        healed=len(mttrs),
        mean_mttr=sum(mttrs) / len(mttrs) if mttrs else None,
        max_mttr=max(mttrs) if mttrs else None,
        mean_reconvergence=sum(settled) / len(settled) if settled else None,
        max_reconvergence=max(settled) if settled else None,
        unconverged=len(worsts) - len(settled),
    )
