"""The host-performance benchmark in ``bench/``, at smoke size."""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys

import pytest

from repro.platform.evolve import EvolvePlatform

from bench.cli import metric_table, quartiles, verdict
from bench.layers import ACTUATIONS, LAYER_NAMES, LAYERS, OTHER, metric_units
from bench.measure import END_TO_END, ROOT, measure
from bench.workloads import WORKLOADS, fleet_cells

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


@pytest.fixture(scope="module", params=list(WORKLOADS))
def smoke(request):
    """One untraced and two traced smoke measurements of a workload."""
    name = request.param
    plain = measure(name, 1, passes=1, smoke=True)
    traced = [measure(name, 1, passes=1, smoke=True, trace=True) for _ in range(2)]
    return plain, traced


def test_every_metric_is_reported_with_its_unit(smoke):
    plain, traced = smoke
    assert plain["correct"] and plain["failed"] == 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    for report in traced:
        assert report["correct"]
        assert {k: v["unit"] for k, v in report["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }


def test_same_seed_same_fingerprint_and_layer_calls(smoke):
    plain, (first, second) = smoke
    # A traced report's fingerprint is its untraced pass's, and `correct`
    # requires the traced pass to reproduce it cell by cell.
    assert plain["fingerprint"] == first["fingerprint"] == second["fingerprint"]
    units = metric_units()
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if units[k] == "count"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["sim.events"] > 0


def test_layer_shares_sum_to_one(smoke):
    for report in smoke[1]:
        shares = [
            report["metrics"][f"{layer}.share"]["value"]
            for layer in (*LAYER_NAMES, OTHER)
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.05)


def _patched_attributes() -> list:
    found = [EvolvePlatform.run]
    for entry in (*LAYERS, ACTUATIONS):
        module, _, cls = entry.owner.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        found += [vars(owner)[name] for name in entry.names]
    return found


def test_measuring_restores_every_patched_attribute():
    before = _patched_attributes()
    measure("fleet", 0, passes=1, smoke=True, trace=True)
    assert _patched_attributes() == before


def test_a_raising_cell_is_counted_and_the_run_continues():
    def broken() -> dict:
        raise RuntimeError("planted failure")

    cells = [broken, *fleet_cells(0, smoke=True)]
    report = measure("fleet", 0, passes=1, cells=cells)
    assert report["attempted"] == 2
    assert report["failed"] == 1
    assert report["modelled"]["failed_frac"] == 0.5
    assert not report["correct"]
    assert "planted failure" in report["errors"][0]
    assert report["metrics"]["events_per_s"]["value"] > 0


def test_without_the_sources_the_command_fails_and_prints_no_result(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        cmd + args, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


STEADY = [10, 10.1, 9.9, 10, 10.2] * 2


@pytest.mark.parametrize(
    ("old", "new", "better", "bound", "expected"),
    [
        (STEADY, [x - 2 for x in STEADY], "lower", 0.1, "improved"),
        (STEADY[:5], [x - 2 for x in STEADY[:5]], "lower", 0.1, "unchanged"),
        (STEADY, [x + 2 for x in STEADY], "lower", 0.1, "worse"),
        (STEADY, STEADY[1:] + STEADY[:1], "lower", 0.1, "unchanged"),
        ([5, 15, 8, 12, 10], [11, 16, 9, 13, 12], "lower", 0.1, "unresolved"),
        ([100] * 10, [101, 102] * 5, "higher", 0.1, "improved"),
        ([0.2] * 3, [0.2] * 3, "lower", 0.0, "unchanged"),
        ([0.2] * 3, [0.21] * 3, "lower", 0.0, "worse"),
    ],
)
def test_compare_verdicts(old, new, better, bound, expected):
    assert verdict(old, new, better, bound) == expected


def test_quartiles_follow_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_compare_bounds_come_from_benchmark_json():
    table = metric_table()
    for entry in SPEC["end_to_end"]:
        assert table[entry["name"]] == (entry["unit"], entry["better"], entry["bound"])
    assert table["plo_violation_rate"][2] == 0.0


def test_trajectory_lines_hold_medians_and_shares():
    lines = (ROOT / "bench" / "trajectory.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert set(entry["workloads"]) <= set(WORKLOADS)
        for workload in entry["workloads"].values():
            assert set(END_TO_END) <= set(workload["medians"])
            assert set(workload["shares"]) == {*LAYER_NAMES, OTHER}
