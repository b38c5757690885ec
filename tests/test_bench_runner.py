"""Tests for the unified benchmark runner (``benchmarks.runner``).

These tests exercise the registry/budget/check/artifact machinery
against a stub bench module, not the experiments themselves — the
experiments are run by ``python -m benchmarks.runner --smoke`` (the CI
``bench`` job) and digested by ``tests/test_fingerprints.py``. Only the
determinism test executes a real (cheap) experiment.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

runner = pytest.importorskip(
    "benchmarks.runner",
    reason="benchmarks/ is a repo-level package; run pytest from the "
           "repository root",
)

BENCH_DIR = Path(runner.__file__).resolve().parent
STUB = "stub_bench_module"


class StubBench(types.ModuleType):
    """A bench module whose run/check calls are recorded."""

    def __init__(self):
        super().__init__(STUB)
        self.runs: list[tuple[str, int]] = []
        self.checked = 0
        self.fail_check = False

    def run_case(self, mode: str, seed: int = 7) -> dict:
        self.runs.append((mode, seed))
        return {
            "seed": seed,
            "events_executed": 100,
            "metrics": {"applied": 40, "nested": {"deep": 5}},
            "timing": {"wall_thing": 0.5},
        }

    def check_case(self, case: dict) -> None:
        self.checked += 1
        assert not self.fail_check, "stub shape claim failed"

    def format_case(self, case: dict) -> list[str]:
        return [f"stub table: applied={case['metrics']['applied']}"]


@pytest.fixture
def stub(monkeypatch):
    module = StubBench()
    monkeypatch.setitem(sys.modules, STUB, module)
    return module


def _stub_experiment(**budgets):
    return runner.Experiment("stub", STUB, "stub experiment", budgets=budgets)


@pytest.fixture
def registered_stub(stub, monkeypatch):
    """The stub registered so ``main(["--only", "stub"])`` runs it."""
    monkeypatch.setitem(runner.REGISTRY, "stub", _stub_experiment())
    return stub


class TestRegistry:
    def test_every_bench_module_registered_exactly_once(self):
        # The registry is the single entry point for CI: a bench_*.py
        # file that is not registered silently falls out of the perf
        # trajectory.
        on_disk = {
            f"benchmarks.{path.stem}"
            for path in BENCH_DIR.glob("bench_*.py")
        }
        registered = [e.module for e in runner.EXPERIMENTS]
        assert sorted(registered) == sorted(set(registered)), (
            "a module is registered twice"
        )
        assert set(registered) == on_disk
        # ... and each defines its experiment through the runner contract.
        for name in registered:
            module = importlib.import_module(name)
            for fn in ("run_case", "check_case", "format_case"):
                assert callable(getattr(module, fn, None)), (
                    f"{name} does not define {fn}()"
                )

    def test_registry_names_are_unique_and_match_experiments(self):
        assert set(runner.REGISTRY) == {e.name for e in runner.EXPERIMENTS}
        assert len(runner.REGISTRY) == len(runner.EXPERIMENTS)

    def test_budget_paths_resolve_to_known_payload_fields(self):
        for exp in runner.EXPERIMENTS:
            for path in exp.budgets:
                head = path.split(".")[0]
                assert head in ("events_executed", "metrics"), (
                    f"{exp.name}: budget path {path!r} does not target a "
                    "deterministic payload field"
                )


class TestBudgets:
    def test_within_budget_ok(self, stub):
        exp = _stub_experiment(**{"events_executed": 120,
                                  "metrics.applied": 50})
        verdicts = runner.check_budgets(exp, stub.run_case("smoke"))
        assert verdicts["events_executed"] == {
            "value": 100, "budget": 120, "ok": True,
        }
        assert verdicts["metrics.applied"]["ok"]

    def test_over_budget_flags_regression(self, stub):
        exp = _stub_experiment(**{"metrics.applied": 39})
        verdicts = runner.check_budgets(exp, stub.run_case("smoke"))
        assert not verdicts["metrics.applied"]["ok"]

    def test_missing_path_is_a_failure_not_a_pass(self, stub):
        exp = _stub_experiment(**{"metrics.no_such_metric": 10})
        verdicts = runner.check_budgets(exp, stub.run_case("smoke"))
        assert not verdicts["metrics.no_such_metric"]["ok"]
        assert verdicts["metrics.no_such_metric"]["value"] is None

    def test_dotted_lookup_descends_nested_dicts(self, stub):
        exp = _stub_experiment(**{"metrics.nested.deep": 5})
        verdicts = runner.check_budgets(exp, stub.run_case("smoke"))
        assert verdicts["metrics.nested.deep"]["ok"]


class TestPayload:
    def test_smoke_payload_schema(self, stub):
        exp = _stub_experiment(**{"events_executed": 120})
        payload = runner.run_experiment(exp, "smoke")
        assert set(payload) == {
            "experiment", "module", "title", "mode", "seed",
            "wall_seconds", "events_executed", "events_per_sec",
            "metrics", "timing", "table", "budgets", "ok",
        }
        assert payload["mode"] == "smoke"
        assert payload["seed"] == 7
        assert payload["table"] == ["stub table: applied=40"]
        assert payload["ok"] is True
        assert payload["budgets"]["events_executed"]["ok"]
        assert stub.runs == [("smoke", 7)] and stub.checked == 1

    def test_full_mode_skips_budgets(self, stub):
        # Full-mode counts legitimately dwarf the smoke bounds; gating
        # them would make --full unusable. The shape check still runs.
        exp = _stub_experiment(**{"events_executed": 1})
        payload = runner.run_experiment(exp, "full")
        assert payload["budgets"] == {}
        assert payload["ok"] is True
        assert stub.checked == 1

    def test_budget_breach_marks_payload_not_ok(self, stub):
        exp = _stub_experiment(**{"events_executed": 99})
        payload = runner.run_experiment(exp, "smoke")
        assert payload["ok"] is False

    def test_failing_check_marks_payload_not_ok(self, registered_stub,
                                                 tmp_path, capsys):
        registered_stub.fail_check = True
        assert runner.main(["--only", "stub", "--json", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "BENCH_stub.json").read_text())
        assert payload["ok"] is False
        assert "stub shape claim failed" in payload["error"]
        # The metrics and table survive a failed check.
        assert payload["metrics"]["applied"] == 40
        out = capsys.readouterr().out
        assert "CHECK FAILED" in out and "stub table: applied=40" in out

    def test_seed_override_reaches_run_case_and_skips_check(
            self, registered_stub, tmp_path):
        registered_stub.fail_check = True
        argv = ["--only", "stub", "--seed", "99", "--json", str(tmp_path)]
        assert runner.main(argv) == 0
        assert registered_stub.runs == [("smoke", 99)]
        assert registered_stub.checked == 0
        payload = json.loads((tmp_path / "BENCH_stub.json").read_text())
        assert payload["seed"] == 99 and payload["seed_override"] == 99
        assert payload["budgets"] == {} and payload["ok"] is True

    def test_write_result_emits_bench_json(self, stub, tmp_path):
        exp = _stub_experiment()
        payload = runner.run_experiment(exp, "smoke")
        path = runner.write_result(payload, tmp_path)
        assert path == tmp_path / "BENCH_stub.json"
        on_disk = json.loads(path.read_text())
        assert on_disk == payload


class TestDeterminism:
    def test_smoke_metrics_identical_across_runs(self):
        # The contract the CI budgets rest on: everything outside the
        # ``timing``/``wall_seconds`` fields is bit-identical run to run.
        exp = runner.REGISTRY["t9"]
        first = runner.run_experiment(exp, "smoke")
        second = runner.run_experiment(exp, "smoke")
        assert first["metrics"] == second["metrics"]
        assert first["events_executed"] == second["events_executed"]
        assert first["seed"] == second["seed"]
        assert first["budgets"] == second["budgets"]
        assert first["ok"] and second["ok"]
