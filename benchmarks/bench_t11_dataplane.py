"""T11: data-plane fault tolerance — makespan and lag under injected faults.

T10 stressed the control plane and the admission path; T11 stresses the
*data plane*: the pods and bytes doing the actual work. A fixed mix — a
two-stage analytics job reading a replicated dataset plus a continuous
stream pipeline — runs under a deterministic fault schedule swept from
calm (no faults) to harsh (a fault every two minutes, cycling executor
kills, node crashes, data loss, and stragglers). Two platform builds run
every cell:

* **ft** — data-plane fault tolerance enabled
  (``PlatformConfig.data_plane``): task-granular execution
  with lineage recompute and speculation, stream checkpoint/replay, and
  the storage repair loop;
* **baseline** — the seed-identical default (fluid big-data model, no
  checkpoints, no repair).

The ft build must degrade *gracefully*: every cell completes (no
quarantine, no stall), makespan grows boundedly with fault rate, the
stream recovers its backlog after each checkpoint restart, and the
repair loop re-replicates what data-loss faults wiped. At calm the
task-granular engine must match the fluid model's makespan — fault
tolerance is free until a fault actually lands. The baseline rides
through the same schedule on its optimistic fluid model, which simply
cannot see most of these faults — the fidelity gap ft mode closes.

Smoke runs calm and harsh for 900 s per cell; the checks are the same.
The mix itself is the ``data-fault`` report scenario
(``src/repro/scenarios/report/data-fault.json``) without its SLOs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenarios import load_report
from repro.scenarios.spec import build_platform

SEED = 47
#: Fault levels: seconds between consecutive faults of the deterministic
#: cycle (:func:`repro.scenarios.spec.schedule_fault_cycle`); None = no
#: faults.
LEVELS: dict[str, float | None] = {
    "calm": None,
    "moderate": 240.0,
    "harsh": 120.0,
}
#: (duration per cell, levels) per mode.
GRIDS = {
    "smoke": (900.0, ("calm", "harsh")),
    "full": (1800.0, ("calm", "moderate", "harsh")),
}


def _run_cell(*, level: str, ft: bool, duration: float, seed: int) -> dict:
    platform = build_platform(replace(
        load_report("data-fault").spec,
        seed=seed,
        horizon=duration,
        ft=ft,
        fault_cycle=LEVELS[level],
        slos=(),
    ))
    platform.run(duration)
    job = platform.apps["t11-job"]
    stream = platform.apps["t11-stream"]
    repair = platform.repair
    cell = {
        "level": level,
        "ft": ft,
        "makespan": job.makespan(),
        "job_failed": job.failed,
        "stream_lag_seconds": stream.current_lag_seconds,
        "stream_lag_events": stream.lag_events,
        "events": platform.engine.events_executed,
    }
    if ft:
        ledger = job.ft_accounting()
        residual = abs(
            ledger["retired"]
            - (
                ledger["useful"]
                + ledger["spec_inflight"]
                + ledger["wasted"]
                + ledger["reopened"]
            )
        )
        cell.update(
            {
                "executor_losses": job.executor_losses,
                "lineage_recomputes": job.lineage_recomputes,
                "speculative_wins": job.speculative_wins,
                "reopened_work": job.ft_reopened_work,
                "wasted_work": job.ft_wasted_work,
                "ledger_residual": residual,
                "stream_restarts": stream.restarts,
                "stream_replayed": stream.replayed_total,
                "checkpoints": stream.checkpoints,
                "stream_residual": abs(
                    stream.total_arrived
                    - (stream.total_processed + stream.lag_events)
                ),
                "repaired_mb": repair.repaired_mb if repair else 0.0,
                "repair_traffic_mb": (
                    repair.repair_traffic_mb if repair else 0.0
                ),
                "repair_backlog": repair.backlog() if repair else 0,
            }
        )
    return cell


def run_case(mode: str, seed: int = SEED) -> dict:
    duration, levels = GRIDS[mode]
    cells = {
        ft: [
            _run_cell(level=lvl, ft=ft, duration=duration, seed=seed)
            for lvl in levels
        ]
        for ft in (True, False)
    }
    calm_ft, harsh_ft = cells[True][0], cells[True][-1]
    metrics = {
        "makespan_s/ft-calm": calm_ft["makespan"],
        "makespan_s/ft-harsh": harsh_ft["makespan"],
        "makespan_s/baseline-calm": cells[False][0]["makespan"],
        "stream_lag_s/ft-harsh": harsh_ft["stream_lag_seconds"],
        "executor_losses": harsh_ft["executor_losses"],
        "lineage_recomputes": harsh_ft["lineage_recomputes"],
        "reopened_cpu_s": harsh_ft["reopened_work"],
        "stream_restarts": harsh_ft["stream_restarts"],
        "stream_replayed": harsh_ft["stream_replayed"],
        "repair_traffic_mb": harsh_ft["repair_traffic_mb"],
    }
    return {
        "seed": seed,
        "events_executed": sum(
            c["events"] for c in cells[True] + cells[False]),
        "metrics": metrics,
        "duration": duration,
        "levels": levels,
        "ft": cells[True],
        "baseline": cells[False],
    }


def check_case(case: dict) -> None:
    ft_cells = {c["level"]: c for c in case["ft"]}
    base_cells = {c["level"]: c for c in case["baseline"]}
    calm_ft = ft_cells["calm"]
    harsh_ft = ft_cells[case["levels"][-1]]

    for level, cell in ft_cells.items():
        # Liveness: every ft cell finishes the job within the horizon —
        # retries and recompute never stall or quarantine it.
        assert cell["makespan"] is not None, f"ft job stalled at {level}"
        assert not cell["job_failed"], f"ft job quarantined at {level}"
        # The work-conservation ledger balances to float noise.
        assert cell["ledger_residual"] < 1e-6 * max(
            1.0, cell["reopened_work"] + cell["wasted_work"] + 600.0
        ), f"ledger imbalance at {level}: {cell['ledger_residual']}"
        assert cell["stream_residual"] < 1e-3, (
            f"stream conservation broken at {level}"
        )
        # The stream drains its replayed backlog before the horizon.
        assert cell["stream_lag_seconds"] < 30.0, (
            f"stream never recovered at {level}: "
            f"{cell['stream_lag_seconds']:.1f}s lag"
        )

    # Fault tolerance is free until a fault lands: at calm the
    # task-granular engine matches the fluid model's makespan.
    calm_base = base_cells["calm"]
    assert calm_base["makespan"] is not None
    assert (
        abs(calm_ft["makespan"] - calm_base["makespan"])
        <= 0.1 * calm_base["makespan"]
    ), (
        f"calm makespan diverged: ft={calm_ft['makespan']:.1f} "
        f"baseline={calm_base['makespan']:.1f}"
    )

    # Graceful degradation: the harshest fault rate costs at most 4x the
    # calm makespan — recovery machinery, not collapse.
    assert harsh_ft["makespan"] <= 4.0 * calm_ft["makespan"], (
        f"harsh makespan {harsh_ft['makespan']:.1f} vs "
        f"calm {calm_ft['makespan']:.1f}"
    )
    # The harsh schedule actually exercised the machinery.
    assert harsh_ft["executor_losses"] >= 1, "no executor loss reached the job"
    assert harsh_ft["stream_restarts"] >= 1, "stream never restarted"
    assert harsh_ft["stream_replayed"] > 0.0, "no checkpoint replay happened"
    assert harsh_ft["repair_traffic_mb"] > 0.0, "repair loop never ran"
    assert harsh_ft["repair_backlog"] == 0, "repair backlog never drained"
    # Faults cost work, and the ledger saw it.
    assert harsh_ft["reopened_work"] > 0.0, "faults re-opened no work"


def format_case(case: dict) -> list[str]:
    lines = [
        f"T11 data-plane fault tolerance ({case['duration']:.0f}s per cell, "
        f"levels {', '.join(case['levels'])})"
    ]
    for label, cells in (("ft", case["ft"]), ("baseline", case["baseline"])):
        lines.append(
            f"  makespan [{label}]: "
            + "  ".join(
                f"{c['level']}="
                + (f"{c['makespan']:.0f}s" if c["makespan"] else "stalled")
                for c in cells
            )
        )
    lines.append(
        "  stream lag @end [ft]: "
        + "  ".join(
            f"{c['level']}={c['stream_lag_seconds']:.1f}s" for c in case["ft"]
        )
    )
    harsh = case["ft"][-1]
    lines.append(
        f"  harsh [ft]: losses={harsh['executor_losses']} "
        f"lineage={harsh['lineage_recomputes']} "
        f"spec-wins={harsh['speculative_wins']} "
        f"reopened={harsh['reopened_work']:.0f} "
        f"wasted={harsh['wasted_work']:.0f} cpu-s"
    )
    lines.append(
        f"  harsh stream [ft]: restarts={harsh['stream_restarts']} "
        f"replayed={harsh['stream_replayed']:.0f} events "
        f"checkpoints={harsh['checkpoints']}"
    )
    lines.append(
        f"  harsh repair [ft]: {harsh['repaired_mb']:.0f} MB re-replicated "
        f"({harsh['repair_traffic_mb']:.0f} MB traffic, "
        f"backlog={harsh['repair_backlog']})"
    )
    return lines
