"""Unit tests for the CLI."""

import json
import math

import pytest

from repro.cli import main


def test_policies_command(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    assert "adaptive" in out
    assert "converged" in out


def test_demo_command(capsys):
    assert main(["demo", "--duration", "600", "--policy", "adaptive"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out
    assert "PLO violations" in out
    assert "cluster: mean usage" in out


def test_demo_static_policy(capsys):
    assert main(["demo", "--duration", "300", "--policy", "static"]) == 0


def test_run_command(tmp_path, capsys):
    config = {
        "format": 5,
        "seed": 1,
        "horizon": 600,
        "nodes": 3,
        "workloads": [
            {
                "kind": "micro",
                "name": "api",
                "params": {
                    "trace": {"kind": "constant", "value": 50},
                    "demands": {"cpu_seconds": 0.01},
                    "allocation": {"cpu": 1, "memory": 1, "disk_bw": 10,
                                   "net_bw": 10},
                    "plo": {"kind": "latency", "target": 0.1},
                },
            }
        ],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "api" in out
    assert "alloc cost" in out


def test_run_duration_override(tmp_path, capsys):
    config = {"seed": 0, "horizon": 86_400, "nodes": 2}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--duration", "60"]) == 0
    assert "0.02 h" in capsys.readouterr().out


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 0, "horizon": 60, "nodes": 2, "workloads": [{}]}')
    assert main(["run", str(path)]) == 2


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_trace_command_chrome(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["trace", str(out), "--duration", "600"]) == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events
    stdout = capsys.readouterr().out
    assert "trace events" in stdout
    assert "provenance records" in stdout
    # At least one applied actuation chains back to a scrape round.
    by_id = {e["args"]["span_id"]: e for e in events
             if e["ph"] == "X" and "span_id" in e.get("args", {})}
    chained = 0
    for event in by_id.values():
        if (event["name"] != "actuate"
                or event["args"].get("outcome") != "applied"):
            continue
        node = event
        while node is not None and node["name"] != "scrape":
            node = by_id.get(node["args"].get("parent_id"))
        chained += node is not None
    assert chained >= 1


def test_trace_command_jsonl(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["trace", str(out), "--format", "jsonl",
                 "--duration", "600"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    kinds = {line["type"] for line in lines}
    assert "span" in kinds
    assert "provenance" in kinds
    assert "JSONL lines" in capsys.readouterr().out


def test_trace_command_filter_and_since(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["trace", str(out), "--format", "jsonl",
                 "--duration", "600", "--filter", "actuate",
                 "--since", "300"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    spans = [line for line in lines if line["type"] == "span"]
    assert spans
    assert all(line["name"].startswith("actuate") for line in spans)
    assert all(line["start"] >= 300.0 for line in spans)


def test_report_command_calm(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "calm", "--duration", "600",
                 "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "svc_latency" in stdout
    assert "overall attainment" in stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.run_report/v1"
    assert doc["slos"]["svc_latency"]["attainment"] == 1.0


def test_report_command_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["report", "atlantis"])


def _fuzz_error(argv, capsys):
    """Run ``repro fuzz`` expecting a usage error; returns its stderr."""
    assert main(["fuzz", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_fuzz_replay_missing_file(tmp_path, capsys):
    err = _fuzz_error(["--replay", str(tmp_path / "absent.json")], capsys)
    assert "absent.json" in err


def test_fuzz_replay_truncated_json(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"seed": 3, "horizon": 6')
    assert "invalid JSON" in _fuzz_error(["--replay", str(path)], capsys)


def test_fuzz_replay_spec_without_horizon(tmp_path, capsys):
    path = tmp_path / "no-horizon.json"
    path.write_text(json.dumps({"format": 4, "seed": 3, "nodes": 3}))
    err = _fuzz_error(["--replay", str(path)], capsys)
    assert "'horizon'" in err


def test_fuzz_every_zero(tmp_path, capsys):
    err = _fuzz_error(
        ["--episodes", "1", "--every", "0", "--out", str(tmp_path)], capsys
    )
    assert "--every" in err


def test_fuzz_negative_episodes(tmp_path, capsys):
    err = _fuzz_error(["--episodes", "-2", "--out", str(tmp_path)], capsys)
    assert "--episodes" in err
    assert "fuzz:" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["run", "{config}", "--duration", "0"], "--duration",
                     id="run-duration"),
        pytest.param(["demo", "--duration", "-60"], "--duration",
                     id="demo-duration"),
        pytest.param(["trace", "{tmp}/t.json", "--duration", "0"],
                     "--duration", id="trace-duration"),
        pytest.param(["report", "calm", "--duration", "0"], "--duration",
                     id="report-duration"),
        pytest.param(["report", "calm", "--seed", "-1"], "--seed",
                     id="report-seed"),
        pytest.param(["arena", "--policies", "static", "--scenarios", "calm",
                      "--seed", "-1"], "--seed", id="arena-seed"),
        pytest.param(["fuzz", "--episodes", "1", "--out", "{tmp}",
                      "--seed", "-1"], "--seed", id="fuzz-seed"),
        pytest.param(["bench", "--only", "t1", "--seed", "-1"], "--seed",
                     id="bench-seed"),
        pytest.param(["report", "calm", "--duration", "60", "--top-k", "0"],
                     "--top-k", id="report-top-k"),
        # An infinite horizon never ends: each of these hung before.
        pytest.param(["run", "{config}", "--duration", "inf"], "--duration",
                     id="run-duration-inf"),
        pytest.param(["demo", "--duration", "inf"], "--duration",
                     id="demo-duration-inf"),
        pytest.param(["trace", "{tmp}/t.json", "--duration", "inf"],
                     "--duration", id="trace-duration-inf"),
        pytest.param(["report", "calm", "--duration", "inf"], "--duration",
                     id="report-duration-inf"),
    ],
)
def test_out_of_range_argument_exits_2(argv, flag, tmp_path, capsys):
    """A bad numeric argument is a usage error caught before any run."""
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"seed": 0, "horizon": 60, "nodes": 2}))
    argv = [a.format(config=config, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be")
    assert captured.out == ""


#: A valid format-5 spec with one short-form service; each case below
#: breaks one key of it.
SPEC = {
    "format": 5,
    "seed": 1,
    "horizon": 60.0,
    "nodes": 2,
    "workloads": [
        {
            "kind": "micro",
            "name": "web",
            "params": {
                "base": 50.0, "amplitude": 10.0, "period": 600.0,
                "cpu_seconds": 0.004, "cpu": 1.0, "memory": 2.0,
                "plo": 0.05, "replicas": 1,
            },
        }
    ],
}


def _without_amplitude(spec):
    del spec["workloads"][0]["params"]["amplitude"]


def _poisson_nan_base(spec):
    spec["arrival_model"] = "poisson"
    spec["workloads"][0]["params"]["base"] = math.nan


@pytest.mark.parametrize(
    "command, fault, named",
    [
        pytest.param("replay", {"scheduler": "bogus"},
                     "unknown scheduler 'bogus'", id="replay-scheduler"),
        pytest.param("replay", _without_amplitude,
                     "missing required key 'amplitude'",
                     id="replay-short-micro-amplitude"),
        pytest.param("replay", {"chaos": [{"domain": "meteor", "at": 10.0,
                                           "duration": 5.0, "target": 0}]},
                     "unknown chaos domain 'meteor'", id="replay-chaos-domain"),
        pytest.param("replay", {"workloads": [{"kind": "quantum", "name": "q",
                                               "params": {}}]},
                     "unknown workload kind 'quantum'",
                     id="replay-workload-kind"),
        pytest.param("replay", {"horizon": -5}, "horizon must be positive",
                     id="replay-negative-horizon"),
        pytest.param("replay", {"nodes": 0}, "cluster: ", id="replay-no-nodes"),
        pytest.param("run", {"quotas": []}, "quotas: ", id="run-quotas-list"),
        pytest.param("run", {"monkey": []}, "monkey: ", id="run-monkey-list"),
        pytest.param("run", {"groups": {}}, "groups: ",
                     id="run-groups-object"),
        # json writes and reads Infinity and NaN; an infinite horizon
        # hung the run, and with MMPP arrivals the build.
        pytest.param("run", {"horizon": math.inf}, "horizon must be positive",
                     id="run-infinite-horizon"),
        pytest.param("run", {"horizon": math.inf, "arrival_model": "mmpp"},
                     "horizon must be positive", id="run-infinite-horizon-mmpp"),
        pytest.param("run", {"fault_cycle": math.inf},
                     "fault_cycle must be positive", id="run-infinite-fault-cycle"),
        # A NaN base died mid-run inside rng.poisson.
        pytest.param("run", _poisson_nan_base, "base must be finite",
                     id="run-poisson-nan-base"),
        # Faults found while building name the file, as load faults do.
        pytest.param("run", {"scheduler_kwargs": {"locality_weight": 2}},
                     "{path}: platform: ", id="run-build-names-file"),
        pytest.param("replay", {"scheduler_kwargs": {"locality_weight": 2}},
                     "{path}: platform: ", id="replay-build-names-file"),
    ],
)
def test_malformed_spec_exits_2(command, fault, named, tmp_path, capsys):
    """A malformed spec is a usage error naming the fault, not a
    traceback and not a replay verdict."""
    spec = json.loads(json.dumps(SPEC))
    if callable(fault):
        fault(spec)
    else:
        spec.update(fault)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["fuzz", "--replay", str(path)] if command == "replay" else [
        "run", str(path)
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named.format(path=path) in err


#: A general-form service whose trace sets a parameter that is now a
#: constant (``OUTrace``'s path resolution, ``OU_STEP``).
_OU_STEP_SERVICE = {
    "kind": "micro",
    "name": "web",
    "params": {
        "trace": {"kind": "ou", "mean": 50.0, "step": 10.0, "horizon": 60.0},
        "demands": {"cpu_seconds": 0.004},
        "allocation": {"cpu": 1.0, "memory": 2.0, "disk_bw": 10, "net_bw": 30},
        "plo": {"kind": "latency", "target": 0.05},
    },
}


@pytest.mark.parametrize(
    "fault, section",
    [
        pytest.param({"workloads": [_OU_STEP_SERVICE]}, "trace kind 'ou'",
                     id="ou-trace-step"),
        pytest.param({"policy": "hpa",
                      "policy_kwargs": {"target_utilization": 0.7}},
                     "platform", id="hpa-target-utilization"),
        pytest.param({"scheduler_kwargs": {"locality_weight": 2}},
                     "platform", id="scheduler-locality-weight"),
    ],
)
def test_spec_setting_a_deleted_option_exits_2(fault, section, tmp_path, capsys):
    """A spec that sets an option which is now a constant is rejected at
    the boundary, naming the section, instead of running."""
    spec = json.loads(json.dumps(SPEC))
    spec.update(fault)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {section}: ")
    assert "unexpected keyword argument" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["trace", "{out}", "--duration", "10"], id="trace"),
        pytest.param(["report", "calm", "--duration", "60", "--output", "{out}"],
                     id="report-output"),
        pytest.param(["arena", "--scenarios", "calm", "--policies", "static",
                      "--json", "{out}"], id="arena-json"),
        pytest.param(["arena", "--scenarios", "calm", "--policies", "static",
                      "--markdown", "{out}"], id="arena-markdown"),
        pytest.param(["bench", "--smoke", "--only", "t1", "--json", "{out}"],
                     id="bench-json"),
    ],
)
def test_unwritable_output_exits_2_before_the_run(argv, tmp_path, capsys):
    """An output under a regular file is a usage error caught before any
    simulation runs, not a traceback after it."""
    regular = tmp_path / "regular"
    regular.write_text("")
    out = regular / "sub"
    assert main([a.format(out=out) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


def test_write_failure_exits_2(tmp_path, capsys, monkeypatch):
    """An OSError while writing an output is an ``error:`` line, exit 2."""
    from pathlib import Path

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "write_text", refuse)
    out = tmp_path / "board.md"
    argv = ["arena", "--scenarios", "calm", "--policies", "static",
            "--markdown", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: Permission denied\n"
    )

