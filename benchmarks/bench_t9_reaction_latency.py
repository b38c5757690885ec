"""R-T9 — End-to-end reaction latency from the causal trace.

Runs the step-load scenario with telemetry enabled and measures, from
the decision trace itself, how fast the control plane turns a signal
into an allocation change:

* **Per-actuation reaction latency** — scrape→actuation lag of every
  applied change, reported as p50/p95/p99 twice: from the trace-derived
  distribution and from the ``ctrl/reaction_latency`` histogram the
  controller exports about itself (the two instruments must agree on a
  healthy pipeline: both near zero).
* **End-to-end step reaction** — seconds from the load-step timestamp
  to the first applied grow actuation, the headline number: the whole
  pipeline (scrape cadence → PLO window → PID transient → actuation
  delay) in one figure.

Every applied actuation must be causally chained to the scrape that
triggered it (actuate → decide → scrape) — the trace is only a valid
measurement instrument if the chain is complete.

Smoke steps the load at 15 min and stops at 45 min; the checks are the
same.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.traces import (
    actuations,
    end_to_end_reaction,
    latency_quantiles,
    reaction_latencies,
    triggering_scrape,
)
from benchmarks.scenarios import HOUR, build_platform, step_load_service

SEED = 11
#: (step_at, duration) per mode.
TIMELINES = {"smoke": (HOUR / 4, 0.75 * HOUR), "full": (HOUR / 2, 1.5 * HOUR)}


def run_case(mode: str, seed: int = SEED) -> dict:
    step_at, duration = TIMELINES[mode]
    platform = build_platform("adaptive", seed=seed, telemetry=True)
    app = step_load_service(platform, factor=3.0, step_at=step_at)
    platform.run(duration)

    trace = platform.telemetry.trace
    applied = actuations(trace, app)
    chained = [
        span for span in applied
        if triggering_scrape(trace, span) is not None
    ]
    trace_quantiles = latency_quantiles(reaction_latencies(trace, app))
    hist = platform.telemetry.reaction_latency
    step_reaction = end_to_end_reaction(trace, step_at, app, action="grow")
    metrics = {
        "applied": len(applied),
        "chained": len(chained),
        "provenance": len(trace.provenance),
        "reaction_p50_s": trace_quantiles["p50"],
        "reaction_p99_s": trace_quantiles["p99"],
        "step_reaction_s": step_reaction,
        "violations": platform.result().violation_fraction(app),
    }
    return {
        "seed": seed,
        "events_executed": platform.engine.events_executed,
        "metrics": metrics,
        "app": app,
        "step_at": step_at,
        "trace_quantiles": trace_quantiles,
        "hist_quantiles": {
            f"p{q}": hist.quantile(q) for q in (50, 95, 99)
        },
    }


def check_case(case: dict) -> None:
    m = case["metrics"]
    assert m["applied"] >= 1, "the step never produced an actuation"
    assert m["chained"] == m["applied"], (
        f"{m['applied'] - m['chained']} actuations lost their "
        "causal chain to a scrape"
    )
    assert m["provenance"] >= 1
    # The per-actuation lag is bounded by the scrape/control cadence.
    assert case["trace_quantiles"]["p99"] <= 30.0, (
        f"p99 reaction latency {case['trace_quantiles']['p99']:.1f}s "
        "exceeds 3 control periods"
    )
    # The step must be answered within a handful of control periods:
    # PLO window (30 s) + a couple of 10 s decisions, plus margin.
    reaction = m["step_reaction_s"]
    assert reaction is not None, "no grow actuation after the load step"
    assert reaction <= 120.0, f"step reaction took {reaction:.0f}s"


def format_case(case: dict) -> list[str]:
    m = case["metrics"]
    tq, hq = case["trace_quantiles"], case["hist_quantiles"]
    rows = [
        ["trace-derived", f"{tq['p50']:.2f}", f"{tq['p95']:.2f}",
         f"{tq['p99']:.2f}"],
        ["ctrl/reaction_latency", f"{hq['p50']:.2f}", f"{hq['p95']:.2f}",
         f"{hq['p99']:.2f}"],
    ]
    return [
        "T9 reaction latency "
        f"(step ×3 @{case['step_at']:.0f}s, app={case['app']})",
        format_table(["scrape→actuation (s)", "p50", "p95", "p99"], rows),
        f"  applied actuations={m['applied']} "
        f"({m['chained']} chained actuate→decide→scrape), "
        f"provenance records={m['provenance']}",
        f"  end-to-end step reaction: {m['step_reaction_s']:.1f} s "
        f"(load step → first applied grow)",
        f"  PLO violations: {m['violations']:.1%}",
    ]
