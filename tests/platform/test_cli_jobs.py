"""CLI summarize coverage for jobs, chaos, and quota runs."""

import json
from pathlib import Path

import pytest

from repro.cli import main


def _write(tmp_path, config):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_run_with_jobs_reports_makespans(tmp_path, capsys):
    config = {
        "seed": 2,
        "horizon": 900,
        "nodes": 3,
        "workloads": [
            {"kind": "bigdata", "name": "etl", "params": {
                "stages": [{"name": "map", "work": 100}],
                "allocation": {"cpu": 2, "memory": 4, "disk_bw": 20,
                               "net_bw": 20},
            }},
            {"kind": "hpc", "name": "sim", "params": {
                "ranks": 2, "duration": 120,
                "allocation": {"cpu": 4, "memory": 4, "disk_bw": 5,
                               "net_bw": 50},
            }},
        ],
    }
    assert main(["run", _write(tmp_path, config)]) == 0
    out = capsys.readouterr().out
    assert "BigDataJob" in out
    assert "HPCJob" in out
    assert " s " in out  # makespans rendered


def test_run_with_unfinished_job_reports_running(tmp_path, capsys):
    config = {
        "seed": 0,
        "horizon": 60,
        "nodes": 2,
        "workloads": [{"kind": "bigdata", "name": "long", "params": {
            "stages": [{"name": "map", "work": 1_000_000}],
            "allocation": {"cpu": 2, "memory": 4, "disk_bw": 20, "net_bw": 20},
        }}],
    }
    assert main(["run", _write(tmp_path, config)]) == 0
    assert "running" in capsys.readouterr().out


def test_run_with_chaos_reports_failures(tmp_path, capsys):
    config = {
        "seed": 1,
        "horizon": 3600,
        "nodes": 3,
        "monkey": {"mtbf": 300, "repair_time": 60},
    }
    assert main(["run", _write(tmp_path, config)]) == 0
    assert "node failures injected" in capsys.readouterr().out


def test_run_with_zoned_hetero_cluster(tmp_path, capsys):
    config = {
        "seed": 0,
        "horizon": 120,
        "nodes": 2,
        "zones": 2,
        "groups": [
            {"name": "w", "count": 2,
             "capacity": {"cpu": 8, "memory": 32, "disk_bw": 100,
                          "net_bw": 100}},
        ],
    }
    assert main(["run", _write(tmp_path, config)]) == 0
    assert "2 nodes" in capsys.readouterr().out


EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "experiment.json"


def _workload(spec, name):
    return next(w for w in spec["workloads"] if w["name"] == name)


def _set(name, key, value):
    def edit(spec):
        _workload(spec, name)["params"][key] = value

    return edit


def _set_stage(key, value, *, ft=False):
    def edit(spec):
        _workload(spec, "feature-build")["params"]["stages"][1][key] = value
        if ft:
            spec["ft"] = True

    return edit


def _stages_ab_then_c(spec):
    # With stages a, b and ab, a string "ab" iterates as a and b.
    _workload(spec, "feature-build")["params"]["stages"] = [
        {"name": "a", "work": 100},
        {"name": "b", "work": 100},
        {"name": "ab", "work": 100},
        {"name": "c", "work": 100, "deps": "ab"},
    ]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set("cfd-run", "ranks", 2.5),
                     "hpc 'cfd-run': replica count must be an integer, got 2.5",
                     id="ranks"),
        pytest.param(_set("cfd-run", "ranks", True),
                     "hpc 'cfd-run': replica count must be an integer, got True",
                     id="ranks-bool"),
        pytest.param(_set("feature-build", "executors", 2.5),
                     "bigdata 'feature-build': replica count must be an "
                     "integer, got 2.5",
                     id="executors"),
        pytest.param(_set_stage("max_parallelism", 2.5),
                     "bigdata 'feature-build': stage 'kernel': max_parallelism "
                     "must be an integer, got 2.5",
                     id="max-parallelism"),
        pytest.param(_set_stage("max_parallelism", 2.5, ft=True),
                     "bigdata 'feature-build': stage 'kernel': max_parallelism "
                     "must be an integer, got 2.5",
                     id="max-parallelism-ft"),
        pytest.param(_set_stage("deps", "scan"),
                     "bigdata 'feature-build': stage 'kernel': deps must be a "
                     "list of stage names, got 'scan'",
                     id="deps-string"),
        pytest.param(_stages_ab_then_c,
                     "bigdata 'feature-build': stage 'c': deps must be a list "
                     "of stage names, got 'ab'",
                     id="deps-string-naming-stages"),
        pytest.param(_set("feature-build", "stages", {"scan": {"work": 800}}),
                     "bigdata 'feature-build': stages must be a list of "
                     "objects, got {'scan': {'work': 800}}",
                     id="stages-object"),
    ],
)
def test_malformed_job_exits_2_before_the_run(edit, message, tmp_path, capsys):
    """A non-integer count or a stage list of the wrong shape fails at
    the boundary, naming the job, before any simulated second runs; the
    delayed jobs of the example would otherwise start mid-run."""
    spec = json.loads(EXAMPLE.read_text())
    spec["horizon"] = 2400
    edit(spec)
    path = _write(tmp_path, spec)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""
