"""Autoscaler arena: every registered policy scored on every pack scenario.

The arena closes the evaluation loop the ScalerEval line of work asks
for: instead of ad-hoc "contribution vs 3 baselines" scripts, every
policy in :mod:`repro.autoscaler.registry` is replayed over every entry
of the curated scenario pack (:mod:`repro.scenarios`) and scored on one
standardized card per (policy, scenario) cell:

``plo_violation_rate``
    Observation-weighted fraction of tracked time in PLO violation
    (:meth:`ExperimentResult.total_violation_fraction`). Lower is better.
``slo_attainment``
    Overall good-tick fraction from the flight recorder, over SLOs
    derived from each workload's PLO with headroom margin. Higher is
    better.
``cost_dollars``
    The run's total allocation bill (:func:`repro.analysis.cost.app_cost`
    summed over apps). Lower is better at equal attainment.
``slack_frac``
    ``1 - usage/allocation`` cluster-wide: the over-provisioning a
    policy carries. Lower is tighter packing.
``convergence_s``
    Worst-case settling: for every PLO-tracked app, measured from run
    start and from every chaos strike, the time until the PLO ratio
    holds at or under 1.0 for 60 s. Cells that never settle before the
    horizon score the full horizon (a penalty, so "never converged"
    cannot beat "converged slowly").
``flap_count``
    Direction reversals in the policy's own actuation stream (per app,
    per verb: replica counts and vertical resizes), counted by wrapping
    the two actuation verbs — grow-then-shrink-then-grow churn that
    destabilizes placement.
``mttr_s``
    Max mean-time-to-repair across logged fault episodes
    (:mod:`repro.analysis.recovery`); ``None`` for fault-free scenarios.
``events_executed``
    Engine events — the determinism anchor and budget-gate input.

Determinism: metrics derive only from the seeded simulation (the SLO
engine and telemetry are observation-only), so two same-seed arena runs
emit byte-identical ``metrics`` blocks; wall-clock numbers live under
``timing`` exactly like the benchmark runner's split.

The leaderboard ranks policies by mean PLO-violation rate (primary),
then total cost (tie-break), then name (stability); ``wins`` counts
scenarios where the policy had the strictly lowest violation rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.analysis.cost import app_cost, cost_series
from repro.analysis.recovery import (
    error_series,
    fault_recovery_report,
    summarize,
)
from repro.analysis.report import format_table
from repro.analysis.stats import recovery_time
from repro.autoscaler.registry import registered_policies
from repro.obs.recorder import build_run_report
from repro.obs.slo import SLOSpec
from repro.scenarios import (
    PACK_VERSION,
    PackEntry,
    UnknownScenarioError,
    load_scenario,
    scenario_names,
)
from repro.scenarios.spec import ScenarioSpec, build_platform

#: Headroom multiplier between a workload's PLO and its derived SLO
#: objective: the PLO tracker owns marginal excursions, the SLO watches
#: for real degradation (same idea as the calm report scenario).
SLO_MARGIN = 1.4

#: Required good-tick fraction for derived SLOs.
SLO_TARGET = 0.99

#: Hold time for the convergence metric: the PLO ratio must stay at or
#: under 1.0 this long to count as settled.
CONVERGE_HOLD = 60.0

#: The scorecard metric names, in display order.
METRICS = (
    "plo_violation_rate",
    "slo_attainment",
    "cost_dollars",
    "slack_frac",
    "convergence_s",
    "flap_count",
    "mttr_s",
    "events_executed",
)


@dataclass(frozen=True)
class Scorecard:
    """One (policy, scenario) cell of the arena."""

    policy: str
    scenario: str
    plo_violation_rate: float
    slo_attainment: float
    cost_dollars: float
    slack_frac: float
    convergence_s: float
    flap_count: int
    mttr_s: float | None
    events_executed: int

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRICS}


def derive_slos(spec: ScenarioSpec) -> tuple[SLOSpec, ...]:
    """Latency/lag SLOs for every micro and stream workload with a
    latency PLO in ``spec``.

    The SLO watches the PLO's series with :data:`SLO_MARGIN` headroom so
    attainment measures degradation, not controller jitter.
    """
    slos = []
    for workload in spec.workloads:
        if workload.kind not in ("micro", "stream"):
            continue
        plo = workload.general().get("plo")
        if plo is None or plo["kind"] != "latency":
            continue
        target = float(plo["target"])
        kind = "latency" if workload.kind == "micro" else "lag"
        slug = workload.name.replace("-", "_")
        slos.append(
            SLOSpec(
                name=f"{slug}_latency",
                series=f"app/{workload.name}/latency",
                objective=target * SLO_MARGIN,
                comparator="le",
                target=SLO_TARGET,
                warmup=60.0,
                kind=kind,
                description=(
                    f"{workload.name} latency within "
                    f"{SLO_MARGIN:g}x its {target:g}s PLO"
                ),
            )
        )
    return tuple(slos)


class _ActuationLedger:
    """Record the policy's actuation stream by wrapping the two verbs.

    Pure observation: the wrappers forward unchanged and draw no RNG,
    so instrumented runs stay bit-identical. Direction sequences are
    kept per (app, verb); a flap is any adjacent direction reversal.
    """

    def __init__(self):
        self._directions: dict[tuple[str, str], list[int]] = {}

    def _push(self, app_name: str, verb: str, direction: int) -> None:
        if direction:
            self._directions.setdefault((app_name, verb), []).append(
                direction
            )

    def instrument(self, app) -> None:
        orig_scale = app.scale_to
        orig_resize = app.set_target_allocation
        ledger = self

        def scale_to(replicas: int) -> None:
            ledger._push(
                app.name,
                "replicas",
                (replicas > app.replica_count)
                - (replicas < app.replica_count),
            )
            return orig_scale(replicas)

        def set_target_allocation(allocation):
            prev = app.target_allocation
            diff = (
                (allocation.cpu - prev.cpu)
                + (allocation.memory - prev.memory)
                + (allocation.disk_bw - prev.disk_bw)
                + (allocation.net_bw - prev.net_bw)
            )
            ledger._push(app.name, "resize", (diff > 0) - (diff < 0))
            return orig_resize(allocation)

        app.scale_to = scale_to
        app.set_target_allocation = set_target_allocation

    def flap_count(self) -> int:
        flaps = 0
        for directions in self._directions.values():
            flaps += sum(
                1
                for a, b in zip(directions, directions[1:])
                if a != b
            )
        return flaps


def _convergence(platform, spec: ScenarioSpec) -> float:
    """Worst settling time over apps x reference points (see module doc)."""
    anchors = [0.0] + sorted(
        {event.at for event in spec.chaos if event.at < spec.horizon}
    )
    worst = 0.0
    for name in sorted(platform.monitor.trackers):
        series = platform.collector.series(f"plo/{name}/ratio")
        for anchor in anchors:
            settled = recovery_time(
                series, after=anchor, threshold=1.0, hold=CONVERGE_HOLD
            )
            worst = max(
                worst, spec.horizon - anchor if settled is None else settled
            )
    return worst


def run_cell(
    policy: str,
    entry: PackEntry,
    *,
    seed: int | None = None,
    horizon: float | None = None,
) -> Scorecard:
    """Run one (policy, scenario) cell and score it."""
    spec = entry.spec
    if seed is not None:
        spec = replace(spec, seed=seed)
    if horizon is not None:
        spec = replace(spec, horizon=horizon)
    spec = replace(spec, policy=policy, slos=derive_slos(spec))
    platform = build_platform(spec, telemetry=True)
    ledger = _ActuationLedger()
    for app in platform.apps.values():
        ledger.instrument(app)
    # The series the scorecard reads after the run: cost, recovery and
    # convergence.
    collector = platform.collector
    for name in platform.apps:
        collector.declare(*cost_series(name), error_series(name))
    collector.declare(*(f"plo/{name}/ratio" for name in platform.monitor.trackers))
    platform.run(spec.horizon)
    result = platform.result()
    util = result.utilization
    slack = (
        1.0 - util.overall_usage / util.overall_alloc
        if util.overall_alloc > 0
        else 0.0
    )
    cost = sum(
        app_cost(platform.collector, name).total
        for name in sorted(platform.apps)
    )
    stats = summarize(
        fault_recovery_report(
            platform.fault_log, platform.collector, sorted(platform.apps)
        )
    )
    attainment = build_run_report(platform).overall_attainment()
    return Scorecard(
        policy=policy,
        scenario=entry.name,
        plo_violation_rate=result.total_violation_fraction(),
        slo_attainment=attainment,
        cost_dollars=cost,
        slack_frac=slack,
        convergence_s=_convergence(platform, spec),
        flap_count=ledger.flap_count(),
        mttr_s=stats.max_mttr,
        events_executed=platform.engine.events_executed,
    )


def _leaderboard(cards: list[Scorecard]) -> list[dict]:
    """Aggregate cells into ranked per-policy standings."""
    policies = sorted({c.policy for c in cards})
    scenarios = sorted({c.scenario for c in cards})
    wins = {p: 0 for p in policies}
    for scenario in scenarios:
        cell = {c.policy: c for c in cards if c.scenario == scenario}
        best = min(c.plo_violation_rate for c in cell.values())
        leaders = [
            p for p, c in cell.items() if c.plo_violation_rate == best
        ]
        if len(leaders) == 1:
            wins[leaders[0]] += 1
    rows = []
    for policy in policies:
        own = [c for c in cards if c.policy == policy]
        mttrs = [c.mttr_s for c in own if c.mttr_s is not None]
        rows.append(
            {
                "policy": policy,
                "scenarios": len(own),
                "wins": wins[policy],
                "mean_violation_rate": (
                    sum(c.plo_violation_rate for c in own) / len(own)
                ),
                "mean_attainment": (
                    sum(c.slo_attainment for c in own) / len(own)
                ),
                "total_cost_dollars": sum(c.cost_dollars for c in own),
                "mean_slack_frac": (
                    sum(c.slack_frac for c in own) / len(own)
                ),
                "mean_convergence_s": (
                    sum(c.convergence_s for c in own) / len(own)
                ),
                "total_flaps": sum(c.flap_count for c in own),
                "mean_mttr_s": (
                    sum(mttrs) / len(mttrs) if mttrs else None
                ),
            }
        )
    rows.sort(
        key=lambda r: (
            r["mean_violation_rate"],
            r["total_cost_dollars"],
            r["policy"],
        )
    )
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def run_arena(
    *,
    policies: tuple[str, ...] | None = None,
    scenarios: tuple[str, ...] | None = None,
    seed: int | None = None,
    horizon: float | None = None,
) -> dict:
    """Run the full sweep; returns the ``BENCH_arena.json`` payload body.

    The return dict follows the benchmark-runner contract: every value
    under ``metrics`` is a pure function of the seeded simulations,
    wall-clock numbers live under ``timing``.
    """
    policies = tuple(policies) if policies else registered_policies()
    names = tuple(scenarios) if scenarios else scenario_names()
    entries = [load_scenario(name) for name in names]
    cards: list[Scorecard] = []
    wall: dict[str, float] = {}
    for entry in entries:
        for policy in policies:
            start = time.perf_counter()
            card = run_cell(policy, entry, seed=seed, horizon=horizon)
            wall[f"wall_s/{policy}/{entry.name}"] = round(
                time.perf_counter() - start, 3
            )
            cards.append(card)
    metrics = {
        "pack_version": PACK_VERSION,
        "policies": list(policies),
        "scenarios": list(names),
        "cells": {
            f"{c.policy}/{c.scenario}": c.to_dict() for c in cards
        },
        "leaderboard": _leaderboard(cards),
    }
    return {
        "seed": seed if seed is not None else 0,
        "events_executed": sum(c.events_executed for c in cards),
        "metrics": metrics,
        "timing": wall,
    }


# -- rendering ----------------------------------------------------------------

_BOARD_COLUMNS = (
    ("rank", "rank"),
    ("policy", "policy"),
    ("wins", "wins"),
    ("mean_violation_rate", "viol-rate"),
    ("mean_attainment", "slo-attain"),
    ("total_cost_dollars", "cost-$"),
    ("mean_slack_frac", "slack"),
    ("mean_convergence_s", "conv-s"),
    ("total_flaps", "flaps"),
    ("mean_mttr_s", "mttr-s"),
)


def _cell_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def leaderboard_rows(payload: dict) -> tuple[list[str], list[list[str]]]:
    """(headers, rows) for the leaderboard in ``payload``."""
    headers = [label for _key, label in _BOARD_COLUMNS]
    rows = [
        [_cell_text(row[key]) for key, _label in _BOARD_COLUMNS]
        for row in payload["metrics"]["leaderboard"]
    ]
    return headers, rows


def leaderboard_text(payload: dict) -> str:
    """The leaderboard as an aligned text table (CLI output)."""
    headers, rows = leaderboard_rows(payload)
    return format_table(headers, rows)


def leaderboard_markdown(payload: dict) -> str:
    """The leaderboard as a GitHub-flavoured markdown table."""
    headers, rows = leaderboard_rows(payload)
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    meta = payload["metrics"]
    lines.append("")
    lines.append(
        f"Scenario pack v{meta['pack_version']}: "
        + ", ".join(meta["scenarios"])
        + f" · seed {payload['seed']}"
        + f" · {payload['events_executed']} events"
    )
    return "\n".join(lines)


__all__ = [
    "METRICS",
    "Scorecard",
    "UnknownScenarioError",
    "derive_slos",
    "leaderboard_markdown",
    "leaderboard_text",
    "run_arena",
    "run_cell",
]
