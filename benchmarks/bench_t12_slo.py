"""T12: SLO attainment and burn-rate alerting across canonical scenarios.

The SLO engine and flight recorder (:mod:`repro.obs.slo`,
:mod:`repro.obs.recorder`) claim three things: a calm platform attains
its objectives with zero alerts, an overloaded platform burns its
shed/brownout error budgets and raises burn-rate alerts that *resolve*
once the degradation machinery catches up, and a fault-ridden data
plane shows its lag burn while every conservation ledger still
balances. T12 checks all three against the report scenarios in
``src/repro/scenarios/report/`` — the same seeded platforms the
``repro report`` CLI runs — and measures **alert latency**: the time
from an SLO's first bad tick to its first multi-window burn-rate alert
firing (the fast window must accumulate enough evidence, so detection
trails onset by design).

Smoke trims the calm horizon to 900 s; the overload and data-fault
scenarios are already CI-sized. A seed override replaces every
scenario's seed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.obs.recorder import build_run_report
from repro.scenarios import load_report
from repro.scenarios.spec import build_platform

SCENARIOS = ("calm", "overload", "data-fault")
#: The seed a default run reports; each scenario keeps its own seed
#: unless ``run_case`` is given one.
SEED = load_report("overload").spec.seed
#: Smoke trims only the calm horizon; overload/data-fault scenarios are
#: already CI-sized and shortening them would cut the alert lifecycle.
SMOKE_CALM_DURATION = 900.0


def _alert_latency(slo: dict) -> float | None:
    """Seconds from the SLO's first bad tick to its first alert firing."""
    if not slo["alerts"] or slo["first_bad_at"] is None:
        return None
    return slo["alerts"][0]["fired_at"] - slo["first_bad_at"]


def _run_scenario(name: str, duration: float | None, seed: int | None) -> dict:
    spec = load_report(name).spec
    if duration is not None:
        spec = replace(spec, horizon=duration)
    if seed is not None:
        spec = replace(spec, seed=seed)
    platform = build_platform(spec)
    platform.run(spec.horizon)
    report = build_run_report(platform)
    slos = report.slos
    resolved = sum(
        1 for a in report.alerts if a["end"] is not None
    )
    return {
        "scenario": name,
        "duration": spec.horizon,
        "report": report.as_dict(),
        "overall_attainment": report.overall_attainment(),
        "attainment": {n: s["attainment"] for n, s in slos.items()},
        "budget_spent_s": {n: s["budget_spent_s"] for n, s in slos.items()},
        "alert_latency_s": {n: _alert_latency(s) for n, s in slos.items()},
        "alerts": len(report.alerts),
        "alerts_resolved": resolved,
        "ledgers_ok": report.ledgers_ok(),
        "events": platform.engine.events_executed,
    }


def run_case(mode: str, seed: int | None = None) -> dict:
    """``seed=None`` runs each scenario at its own seed."""
    calm_duration = SMOKE_CALM_DURATION if mode == "smoke" else None
    cells = {
        name: _run_scenario(
            name, calm_duration if name == "calm" else None, seed
        )
        for name in SCENARIOS
    }
    overload = cells["overload"]
    metrics = {
        "attainment/calm": cells["calm"]["overall_attainment"],
        "attainment/overload": overload["overall_attainment"],
        "attainment/data-fault": cells["data-fault"]["overall_attainment"],
        "alerts/calm": cells["calm"]["alerts"],
        "alerts/overload": overload["alerts"],
        "alerts_resolved/overload": overload["alerts_resolved"],
        "alert_latency_s/web_latency": (
            overload["alert_latency_s"]["web_latency"]),
        "budget_spent_s/shed_free": overload["budget_spent_s"]["shed_free"],
        "budget_spent_s/brownout_free": (
            overload["budget_spent_s"]["brownout_free"]),
        "ledgers_ok": all(c["ledgers_ok"] for c in cells.values()),
    }
    return {
        "seed": SEED if seed is None else seed,
        "events_executed": sum(c["events"] for c in cells.values()),
        "metrics": metrics,
        # The per-scenario RunReports ride along so --json can emit the
        # flight-recorder artifact (REPORT_t12.json) next to the payload.
        "report": {name: c["report"] for name, c in cells.items()},
        "scenarios": cells,
    }


def check_case(case: dict) -> None:
    calm = case["scenarios"]["calm"]
    overload = case["scenarios"]["overload"]
    datafault = case["scenarios"]["data-fault"]

    # Calm baseline: every objective attained, not a single alert.
    assert calm["overall_attainment"] == 1.0, (
        f"calm run burned budget: {calm['attainment']}"
    )
    assert calm["alerts"] == 0, f"calm run alerted: {calm['alerts']}"

    # Overload: the shed and brownout budgets actually burn, and at
    # least one burn-rate alert completes a firing -> resolved cycle.
    assert overload["budget_spent_s"]["shed_free"] > 0.0, (
        "overload never engaged the admission latch"
    )
    assert overload["budget_spent_s"]["brownout_free"] > 0.0, (
        "overload never browned out the web service"
    )
    assert overload["alerts"] >= 1, "overload raised no burn-rate alerts"
    assert overload["alerts_resolved"] >= 1, (
        "no overload alert ever resolved"
    )
    # Detection latency is positive (multi-window evidence takes time)
    # and bounded by the slow window — the alert design's worst case.
    latency = overload["alert_latency_s"]["web_latency"]
    assert latency is not None and 0.0 <= latency <= 600.0, (
        f"web_latency alert latency out of range: {latency}"
    )

    # Data plane under faults: the stream-lag budget burns while the
    # repair loop keeps the storage objective whole.
    assert datafault["attainment"]["stream_lag"] < 1.0, (
        "harsh fault schedule never pushed stream lag over objective"
    )
    assert datafault["attainment"]["repair_backlog"] == 1.0, (
        "repair loop left backlog standing across scrapes"
    )

    # Every conservation ledger balances in every scenario.
    for name, cell in case["scenarios"].items():
        assert cell["ledgers_ok"], f"ledger imbalance in {name}"


def format_case(case: dict) -> list[str]:
    lines = ["T12 SLO attainment and burn-rate alerting"]
    for name, cell in case["scenarios"].items():
        lines.append(
            f"  {name} ({cell['duration']:.0f}s): "
            f"attainment={cell['overall_attainment']:.3f} "
            f"alerts={cell['alerts']} "
            f"(resolved={cell['alerts_resolved']}) "
            f"ledgers={'ok' if cell['ledgers_ok'] else 'IMBALANCED'}"
        )
    web_latency = case["scenarios"]["overload"]["alert_latency_s"].get(
        "web_latency"
    )
    if web_latency is not None:
        lines.append(
            f"  overload web_latency alert latency: {web_latency:.0f}s "
            f"after first bad tick"
        )
    spent = case["scenarios"]["overload"]["budget_spent_s"]
    lines.append(
        "  overload budget spent: " + "  ".join(
            f"{n}={s:.0f}s" for n, s in sorted(spent.items())
        )
    )
    return lines
