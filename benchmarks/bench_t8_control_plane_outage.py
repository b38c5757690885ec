"""T8: control-plane outage — leader crash, failover, and WAL replay.

The platform's resilience story so far (T7) covered infrastructure and
pipeline faults while assuming the controller itself survives. T8 kills
the controller. A 3-replica control plane (lease-based leader election +
shared snapshot/WAL statestore, :mod:`repro.control.ha`) loses its
leader mid-run while load is climbing toward the diurnal peak:

* the leader gap (last renewal → successor elected) must stay under
  three control periods at the default lease TTL,
* WAL replay must be idempotent — zero duplicate actuations, detected
  independently via ``PodResized`` events whose old and new allocations
  are identical,
* the post-restore trajectory must track a crash-free run of the same
  seed (the successor resumes the transient instead of restarting it),
* a 1-replica plane with no snapshots (the same crash without a standby)
  must be measurably worse on PLO violations.

Smoke crashes the leader at 600 s, restarts it 200 s later and stops
at 1500 s; the checks are the same.
"""

from __future__ import annotations

from repro.analysis.recovery import failover_stats, series_divergence
from repro.cluster.events import PodResized
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform

from benchmarks.scenarios import deploy_service_mix, step_load_service

NODES = 6
SEED = 42
#: Control period the leader-gap bound is stated in.
CONTROL_INTERVAL = 10.0
#: (crash_at, repair, duration) per mode. Full: the leader dies while
#: the web service climbs toward its diurnal peak (t=1800), so a dead
#: control plane visibly under-provisions; the crashed replica restarts
#: (as a standby) ``repair`` seconds later.
TIMELINES = {"smoke": (600.0, 200.0, 1500.0), "full": (1200.0, 300.0, 3000.0)}


def _build(
    replicas: int,
    *,
    seed: int,
    step_at: float,
    snapshot_interval: float | None = 60.0,
) -> tuple[EvolvePlatform, list[str]]:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=NODES),
        config=PlatformConfig(
            seed=seed,
            controller_replicas=replicas,
            controller_ha=True,
            snapshot_interval=snapshot_interval,
        ),
        scheduler="converged",
        policy="adaptive",
    )
    apps = deploy_service_mix(platform)
    # A 3× load step landing *inside* the outage window: a control plane
    # with a standby re-provisions within a couple of control periods; a
    # dead single controller eats violations until its replica restarts.
    apps.append(step_load_service(platform, factor=3.0, step_at=step_at))
    # run_case compares the CPU allocations of two runs.
    platform.collector.declare(*(f"app/{app}/alloc/cpu" for app in apps))
    return platform, apps


def _run_outage(
    platform: EvolvePlatform,
    *,
    crash_at: float,
    repair: float,
    duration: float,
) -> list[PodResized]:
    """Crash the leader at ``crash_at``, restart it ``repair`` later.

    Returns the duplicate-actuation evidence: every post-crash
    ``PodResized`` whose old and new allocations are identical (a correct
    WAL replay never re-issues an applied resize, so this list must stay
    empty).
    """
    engine = platform.engine
    plane = platform.control_plane
    duplicates: list[PodResized] = []

    def on_resize(event: PodResized) -> None:
        if event.time >= crash_at and event.old_allocation.approx_equal(
            event.new_allocation, tolerance=1e-9
        ):
            duplicates.append(event)

    platform.api.watch(PodResized, on_resize)

    def crash() -> None:
        leader = plane.leader_index()
        if leader is None:  # already in a gap; nothing to kill
            return
        plane.crash_replica(leader)
        engine.schedule(repair, lambda: plane.restart_replica(leader))

    engine.schedule(crash_at, crash)
    platform.run(duration)
    return duplicates


def run_case(mode: str, seed: int = SEED) -> dict:
    """The T8 comparison; returns everything the checks consume."""
    crash_at, repair, duration = TIMELINES[mode]
    step_at = crash_at + 60.0
    ha, apps = _build(3, seed=seed, step_at=step_at)
    duplicates = _run_outage(
        ha, crash_at=crash_at, repair=repair, duration=duration
    )
    stats = failover_stats(ha.control_plane.failovers)

    clean, _ = _build(3, seed=seed, step_at=step_at)
    clean.run(duration)

    single, _ = _build(1, seed=seed, step_at=step_at, snapshot_interval=None)
    _run_outage(single, crash_at=crash_at, repair=repair, duration=duration)

    # Compare the settled tail, not the step transient: the two runs pass
    # through the same step response offset by the failover gap, which
    # makes instantaneous diffs meaningless mid-transient. What must
    # match is where the allocations land once the successor has control.
    tail = max(crash_at, duration - 300.0)
    divergence = {
        app: series_divergence(
            ha.collector, clean.collector, f"app/{app}/alloc/cpu",
            start=tail, end=duration,
        )
        for app in apps
    }
    violations = {
        name: platform.result().total_violation_fraction()
        for name, platform in (("ha", ha), ("clean", clean), ("single", single))
    }
    metrics = {
        "failovers": stats.failovers,
        "max_gap_s": stats.max_gap,
        "snapshot_restores": stats.snapshot_restores,
        "duplicate_actuations": len(duplicates),
        "max_cpu_divergence": max(divergence.values()),
        "violations/ha": violations["ha"],
        "violations/clean": violations["clean"],
        "violations/single": violations["single"],
    }
    return {
        "seed": seed,
        "events_executed": sum(
            p.engine.events_executed for p in (ha, clean, single)),
        "metrics": metrics,
        "crash_at": crash_at,
        "repair": repair,
        "apps": apps,
        "stats": stats,
        "duplicates": duplicates,
        "divergence": divergence,
    }


def check_case(case: dict) -> None:
    stats, m = case["stats"], case["metrics"]
    assert stats.failovers >= 1, "the crash never triggered a failover"
    assert stats.max_gap is not None and stats.max_gap < 3 * CONTROL_INTERVAL, (
        f"leader gap {stats.max_gap} exceeds 3 control periods"
    )
    assert stats.snapshot_restores >= 1, "successor never restored a snapshot"
    assert not case["duplicates"], (
        f"WAL replay re-issued applied resizes: {case['duplicates']}"
    )
    # The successor resumes the crash-free trajectory: per-replica CPU
    # never drifts more than one whole core from the clean run.
    for app, drift in case["divergence"].items():
        assert drift is not None, f"{app}: no allocation series to compare"
        assert drift < 1.0, f"{app}: post-failover CPU drifted {drift:.2f} cores"
    assert m["violations/single"] > m["violations/ha"], (
        f"a {case['repair']:.0f} s controller outage should cost more PLO "
        f"time than a sub-30 s failover ({m['violations/single']:.4f} vs "
        f"{m['violations/ha']:.4f})"
    )


def format_case(case: dict) -> list[str]:
    stats, m = case["stats"], case["metrics"]
    lines = [
        "T8 control-plane outage "
        f"(crash leader @{case['crash_at']:.0f}s, restart +{case['repair']:.0f}s)",
        f"  failovers={stats.failovers} "
        f"max_gap={stats.max_gap:.1f}s "
        f"snapshot_restores={stats.snapshot_restores} "
        f"wal_replayed={stats.wal_replayed} "
        f"deduped={stats.wal_deduped} reissued={stats.wal_reissued}",
        f"  duplicate_actuations={len(case['duplicates'])}",
        "  cpu divergence vs crash-free: "
        + " ".join(
            f"{app}={case['divergence'][app]:.3f}" for app in case["apps"]
        ),
        f"  violations: ha-3rep={m['violations/ha']:.4f} "
        f"crash-free={m['violations/clean']:.4f} "
        f"single-no-snapshot={m['violations/single']:.4f}",
    ]
    return lines
