"""Smoke tests: every example script runs to completion and reports.

Examples are the first thing a new user runs; a broken one is a broken
front door. Each test executes the example's ``main()`` and checks the
report reaches stdout. Durations are what the scripts ship with, so
these double as mini end-to-end runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    for name in ("quickstart", "policy_comparison", "converged_cluster",
                 "bottleneck_shift", "failure_recovery", "multi_tenant"):
        sys.modules.pop(name, None)


def run_example(name: str, capsys) -> str:
    module = importlib.import_module(name)
    module.main()
    return capsys.readouterr().out


@pytest.mark.slow
def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "PLO violation fraction" in out
    assert "final per-replica alloc" in out


@pytest.mark.slow
def test_policy_comparison(capsys):
    out = run_example("policy_comparison", capsys)
    for policy in ("static", "hpa", "vpa", "adaptive"):
        assert policy in out


@pytest.mark.slow
def test_converged_cluster(capsys):
    out = run_example("converged_cluster", capsys)
    assert "siloed" in out and "converged" in out


@pytest.mark.slow
def test_bottleneck_shift(capsys):
    out = run_example("bottleneck_shift", capsys)
    assert "multi-resource" in out
    assert "CPU-only ablation" in out


@pytest.mark.slow
def test_failure_recovery(capsys):
    out = run_example("failure_recovery", capsys)
    assert "node failures injected" in out
    assert "service replacements" in out


@pytest.mark.slow
def test_multi_tenant(capsys):
    out = run_example("multi_tenant", capsys)
    assert "with quotas" in out
    assert "fairness" in out


def test_experiment_json_is_loadable():
    from repro.scenarios.spec import build_platform, load_spec
    spec = load_spec(EXAMPLES_DIR / "experiment.json")
    assert spec.horizon > 0
    assert build_platform(spec).apps
