"""T13: the autoscaler arena — every policy scored on every pack scenario.

The arena (:mod:`repro.arena`) replays every policy registered in
:mod:`repro.autoscaler.registry` over every entry of the curated
scenario pack (:mod:`repro.scenarios`) and aggregates the per-cell
scorecards into a ranked leaderboard. T13 asserts the *shape* of that
board: the adaptive multi-resource controller leads on violations and
SLO attainment (the R-T1 ordering surviving a much broader regime
sweep), every policy covers every scenario, and the metrics block is a
pure function of the seeds — two same-seed sweeps must agree exactly.

Smoke replays the pack at its native, CI-sized horizons; full mode
doubles every cell's horizon. A seed override replaces every pack
entry's seed.
"""

from __future__ import annotations

from repro.arena import leaderboard_text, run_arena
from repro.scenarios import scenario_names

#: Full mode stretches every cell so slow convergence and late reclaim
#: show up in the scorecards; the pack's native horizons are CI-sized.
FULL_HORIZON = 1200.0


def run_case(mode: str, seed: int | None = None) -> dict:
    """``seed=None`` replays every pack entry at its own seed."""
    return run_arena(
        horizon=FULL_HORIZON if mode == "full" else None, seed=seed
    )


def check_case(case: dict) -> None:
    board = case["metrics"]["leaderboard"]
    by_policy = {row["policy"]: row for row in board}

    # Complete coverage: every registered policy ran every pack entry.
    assert case["metrics"]["scenarios"] == list(scenario_names())
    expected = len(case["metrics"]["scenarios"])
    for row in board:
        assert row["scenarios"] == expected, (
            f"{row['policy']} covered {row['scenarios']}/{expected} scenarios"
        )
    assert len(case["metrics"]["cells"]) == expected * len(board)

    # The headline ordering: the multi-resource controller wins the
    # board, and it does so on the primary key, not a tie-break.
    assert board[0]["policy"] == "adaptive", (
        f"adaptive lost the board to {board[0]['policy']}"
    )
    static = by_policy["static"]
    adaptive = by_policy["adaptive"]
    assert adaptive["mean_violation_rate"] < static["mean_violation_rate"], (
        "adaptive does not beat static on violations"
    )
    assert adaptive["mean_attainment"] >= static["mean_attainment"], (
        "adaptive does not beat static on SLO attainment"
    )
    assert adaptive["wins"] >= 1, "adaptive never strictly won a scenario"

    # Static never actuates, so it can never flap; the controllers do
    # actuate (a zero-flap adaptive run means the wrappers fell off).
    assert by_policy["static"]["total_flaps"] == 0
    assert adaptive["total_flaps"] > 0

    # Chaos scenarios produced repair episodes for every policy.
    for row in board:
        assert row["mean_mttr_s"] is not None, (
            f"{row['policy']} logged no fault recovery at all"
        )


def format_case(case: dict) -> list[str]:
    lines = ["T13 autoscaler arena leaderboard"]
    lines += ["  " + line for line in leaderboard_text(case).splitlines()]
    lines.append(
        f"  pack v{case['metrics']['pack_version']} · "
        f"{len(case['metrics']['cells'])} cells · "
        f"{case['events_executed']} events"
    )
    return lines
