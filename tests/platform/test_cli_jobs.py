"""CLI summarize coverage for jobs, chaos, and quota runs."""

import json

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
