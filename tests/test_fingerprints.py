"""Golden fingerprints: sha256 digests of decision-level run outputs.

Each entry in ``tests/data/fingerprints.json`` digests what a seeded run
*decided*: pod placements, ``events_executed``, invariant ``checks_run``
and violations, FaultLog episodes as ``(kind, target, start, end,
domain)``, and headline metrics. Every float is rounded to 9 significant
digits before hashing. A refactor that leaves every digest unchanged
kept the decisions of every covered run.

Covered runs: fuzz run seed 7, episodes 0-35 (all nine fuzzer chaos
domains); every arena cell at horizon 450 s; the three ``repro report``
scenarios; the ``events_executed`` and ``metrics`` blocks of every runner
smoke experiment except ``telemetry_overhead`` (its call counts depend
on how the interpreter was started) and ``micro_timeseries`` (its
metrics are constants); every cell of the R-T7 full fault matrix (the
only runs that enter safe mode or meet an actuation outage: events,
resilience counters in total and per app, re-convergence times and
FaultLog episodes); and one ``enable_chaos`` run striking every fault
kind the monkey drives on the platform from
:func:`tests.conftest.make_chaos_platform`; and one fault-tolerant
big-data job whose straggler makes the task engine launch speculative
copies (events, the job's FT ledger, speculation and lineage counters,
makespan); and one R-T10 overload run whose HPC gang waits past the
starvation timeout, the only digested run in which the admission
controller admits aged pods (events, placements, invariant violations and
the admission ledger); and one run whose metrics faults draw RNG per
sample (continuous outliers and an outlier window overlapping a
blackout and a freeze) over managed services and an unmanaged app whose
samples nothing reads (events, placements, the fault filter's counters
and scale events); and R-T4's mixed-worlds trace at its smoke horizon
under the ``kube`` and the ``siloed`` scheduler, the only digested runs
whose gangs meet those two scheduling cycles (events, placements, the
scheduler's binds and failures, each gang's and batch job's makespan and
each gang's wait).

Digests are recorded on one interpreter (the file's ``python`` field)
and the test skips on any other: float formatting and library numerics
may differ across versions. After an intentional behaviour change,
re-record with ``PYTHONPATH=src python -m tests.test_fingerprints
--record`` and give the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.arena import run_cell
from repro.autoscaler.registry import registered_policies
from repro.cluster.events import PodScheduled
from repro.cluster.resources import ResourceVector
from repro.obs.recorder import build_run_report
from repro.scenarios import (
    build_platform,
    load_report,
    load_scenario,
    report_names,
    scenario_names,
)
from repro.verify.fuzzer import (
    ChaosEvent,
    ScenarioSpec,
    WorkloadSpec,
    generate_scenario,
    run_episode,
)
from repro.verify.invariants import InvariantChecker
from tests.conftest import make_chaos_platform

FINGERPRINTS = Path(__file__).parent / "data" / "fingerprints.json"

FUZZ_SEED = 7
FUZZ_EPISODES = 36
ARENA_HORIZON = 450.0
RUNNER_EXPERIMENTS = (
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11",
    "t12", "arena", "trace_realism",
    "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12",
)
#: The R-T7 full grid, one digest per (workload, fault class) cell.
T7_WORKLOADS = ("micro", "bigdata")
T7_FAULTS = ("crash", "degradation", "scrape-drop", "stale-metrics", "actuation")
#: Every fault kind the chaos monkey can drive through ``enable_chaos``.
MONKEY_KINDS = ("crash", "degrade", "partition", "executor-kill", "data-loss")
MONKEY_HORIZON = 900.0
#: A straggler on one executor of an FT big-data job: the only digested
#: run whose task engine launches (and wins with) speculative copies.
SPECULATION_SPEC = ScenarioSpec(
    seed=11,
    horizon=600.0,
    nodes=4,
    ft=True,
    workloads=(
        WorkloadSpec(
            "bigdata",
            "etl",
            {
                "scan_cpu": 400.0,
                "agg_cpu": 200.0,
                "input_mb": 4000.0,
                "executors": 3,
                "delay": 0.0,
                "cpu": 1.0,
                "memory": 4.0,
                "dataset": True,
            },
        ),
    ),
    chaos=(ChaosEvent("straggler", 40.0, 300.0, 0),),
)
#: An HPC gang submitted into the shedding R-T10 overload mix pends past
#: the starvation timeout, so the admission controller admits aged pods.
STARVATION_HORIZON = 900.0
#: Per-sample metrics faults: every scraped sample, read or not, passes
#: through the fault filter, whose outlier draws share one RNG stream.
NOISE_HORIZON = 600.0
#: R-T4's trace under the two baseline schedulers, at R-T4's smoke
#: horizon: the runner's smoke sizes run it under ``converged`` only.
T4_BASELINES = ("kube", "siloed")
T4_HORIZON = 1.5 * 3600.0


def _interpreter() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def canonical(value):
    """JSON-ready copy of ``value`` with floats at 9 significant digits."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot fingerprint {type(value).__name__}: {value!r}")


def digest(payload) -> str:
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _episodes(log) -> list:
    return [(e.kind, e.target, e.start, e.end, e.domain) for e in log.episodes]


def _record_placements(platform) -> list:
    placements: list = []
    platform.cluster.events.subscribe(
        PodScheduled,
        lambda e: placements.append((e.time, e.pod_name, e.node_name)),
    )
    return placements


# -- the covered runs ---------------------------------------------------------


def _fuzz(index: int) -> dict:
    built: list = []
    result = run_episode(
        generate_scenario(FUZZ_SEED, index),
        every=1,
        collect_fingerprint=True,
        inject=built.append,
    )
    return {
        "placements": result.fingerprint,
        "events_executed": result.events_executed,
        "checks_run": result.checks_run,
        "violations": [str(v) for v in result.violations],
        "faults": _episodes(built[0].fault_log),
    }


def _arena(policy: str, scenario: str) -> dict:
    return run_cell(
        policy, load_scenario(scenario), horizon=ARENA_HORIZON
    ).to_dict()


def _report(name: str) -> dict:
    spec = load_report(name).spec
    platform = build_platform(spec)
    placements = _record_placements(platform)
    platform.run(spec.horizon)
    report = build_run_report(platform).as_dict()
    return {
        "placements": placements,
        "events_executed": platform.engine.events_executed,
        "faults": _episodes(platform.fault_log),
        "report": report,
    }


def _runner(name: str) -> dict:
    from benchmarks import runner

    out = runner.run_experiment(runner.REGISTRY[name], "smoke")
    return {"events_executed": out["events_executed"], "metrics": out["metrics"]}


def _t7_cell(workload: str, fault: str) -> dict:
    from benchmarks import bench_t7_fault_matrix as t7

    cell = t7._run_cell(workload, fault, t7.SEED)
    return {
        "events": cell["events"],
        "stats": cell["stats"],
        "apps": cell["apps"],
        "reconvergence": cell["reconvergence"],
        "faults": _episodes(cell["fault_log"]),
    }


def _monkey() -> dict:
    platform, monkey = make_chaos_platform(list(MONKEY_KINDS))
    placements = _record_placements(platform)
    platform.run(MONKEY_HORIZON)
    return {
        "placements": placements,
        "events_executed": platform.engine.events_executed,
        "strikes": monkey.strikes,
        "faults": _episodes(platform.fault_log),
    }


def _speculation() -> dict:
    built: list = []
    result = run_episode(SPECULATION_SPEC, every=1, inject=built.append)
    job = built[0].apps["etl"]
    return {
        "events_executed": result.events_executed,
        "violations": [str(v) for v in result.violations],
        "ledger": job.ft_accounting(),
        "speculative_launched": job.speculative_launched,
        "speculative_wins": job.speculative_wins,
        "lineage_recomputes": job.lineage_recomputes,
        "makespan": job.makespan(),
    }


def _starvation() -> dict:
    platform = build_platform(replace(load_report("overload").spec, slos=()))
    checker = InvariantChecker.attach(platform, every=1)
    placements = _record_placements(platform)
    platform.submit_hpc(
        "gang",
        ranks=4,
        duration=300.0,
        allocation=ResourceVector(cpu=6, memory=8, disk_bw=5, net_bw=40),
        delay=60.0,
    )
    platform.run(STARVATION_HORIZON)
    checker.final_check()
    stats = platform.admission.stats()
    return {
        "placements": placements,
        "events_executed": platform.engine.events_executed,
        "violations": [str(v) for v in checker.violations],
        "admission": {
            key: stats[key]
            for key in (
                "aged_admissions",
                "rejected_pending",
                "evicted_running",
                "shed_by_class",
            )
        },
    }


def _noise() -> dict:
    from repro.platform.config import ClusterSpec, PlatformConfig
    from repro.platform.evolve import EvolvePlatform
    from repro.workloads.microservice import ServiceDemands
    from repro.workloads.plo import LatencyPLO
    from repro.workloads.traces import DiurnalTrace

    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=17),
        scheduler="converged",
        policy="adaptive",
    )
    placements = _record_placements(platform)
    allocation = ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15)
    for i in range(3):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=70, amplitude=40, period=900, phase=i * 150),
            demands=ServiceDemands(
                cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05, base_latency=0.01
            ),
            allocation=allocation,
            plo=LatencyPLO(0.06, window=30),
        )
    platform.deploy_microservice(
        "batch",
        trace=DiurnalTrace(base=40, amplitude=20, period=600),
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.02),
        allocation=allocation,
        managed=False,
    )
    faults = platform.metrics_faults
    engine = platform.engine

    def at(time: float, action) -> None:
        engine.schedule(time, lambda: action(engine.now))

    at(120.0, lambda now: setattr(faults, "outlier_probability", 0.05))
    at(450.0, lambda now: setattr(faults, "outlier_probability", 0.0))
    at(180.0, lambda now: faults.inject_noise(now, 180.0, probability=0.3, factor=6.0))
    at(200.0, lambda now: faults.blackout("app/svc-0", now, 120.0))
    at(240.0, lambda now: faults.freeze("app/svc-1", now, 150.0))
    platform.run(NOISE_HORIZON)
    return {
        "placements": placements,
        "events_executed": engine.events_executed,
        "outliers_injected": faults.outliers_injected,
        "samples_dropped": faults.samples_dropped,
        "samples_frozen": faults.samples_frozen,
        "scale_events": platform.result().scale_events,
    }


def _t4_baseline(scheduler: str) -> dict:
    from benchmarks import bench_t4_converged_sched as t4
    from benchmarks.scenarios import (
        HOUR,
        build_platform as build_bench_platform,
        deploy_batch_churn,
        deploy_gang_rush,
        deploy_service_mix,
    )

    platform = build_bench_platform(
        "adaptive", nodes=6, seed=t4.SEED, scheduler=scheduler
    )
    placements = _record_placements(platform)
    deploy_service_mix(platform)
    deploy_batch_churn(platform, start=0.25 * HOUR)
    deploy_gang_rush(platform)
    platform.run(T4_HORIZON)
    result = platform.result()
    return {
        "placements": placements,
        "events_executed": platform.engine.events_executed,
        "binds": platform.scheduler.binds,
        "failures": platform.scheduler.failures,
        "makespans": result.makespans,
        "waits": result.hpc_waits,
    }


def runs() -> dict:
    """Fingerprint key → zero-argument function producing its payload."""
    table = {}
    for i in range(FUZZ_EPISODES):
        table[f"fuzz/{FUZZ_SEED}/{i}"] = lambda i=i: _fuzz(i)
    for policy in registered_policies():
        for scenario in scenario_names():
            table[f"arena/{policy}/{scenario}"] = (
                lambda p=policy, s=scenario: _arena(p, s)
            )
    for name in report_names():
        table[f"report/{name}"] = lambda n=name: _report(n)
    for name in RUNNER_EXPERIMENTS:
        table[f"runner/{name}"] = lambda n=name: _runner(n)
    for workload in T7_WORKLOADS:
        for fault in T7_FAULTS:
            table[f"runner/t7-full/{workload}/{fault}"] = (
                lambda w=workload, f=fault: _t7_cell(w, f)
            )
    table["monkey/" + "+".join(MONKEY_KINDS)] = _monkey
    table["speculation/etl"] = _speculation
    table["starvation/gang"] = _starvation
    table["metrics-faults/noise"] = _noise
    for scheduler in T4_BASELINES:
        table[f"runner/t4-baselines/{scheduler}"] = (
            lambda s=scheduler: _t4_baseline(s)
        )
    return table


# -- the test -----------------------------------------------------------------


def _recorded() -> dict:
    return json.loads(FINGERPRINTS.read_text())


RUNS = runs()


@pytest.fixture(scope="module")
def recorded() -> dict:
    data = _recorded()
    if data["python"] != _interpreter():
        pytest.skip(
            f"fingerprints were recorded on Python {data['python']}; "
            f"this is Python {_interpreter()}, whose numerics may differ"
        )
    return data["digests"]


def test_every_run_is_recorded(recorded):
    assert sorted(recorded) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_fingerprint(key, recorded):
    if key.startswith("runner/"):
        pytest.importorskip(
            "benchmarks.runner",
            reason="benchmarks/ is a repo-level package; run pytest from "
            "the repository root",
        )
    assert digest(RUNS[key]()) == recorded[key], (
        f"{key}: decisions changed; if intended, re-record and say why "
        "in CHANGES.md"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help="rewrite the fingerprint file"
    )
    args = parser.parse_args(argv)
    digests = {key: digest(run()) for key, run in sorted(RUNS.items())}
    if args.record:
        payload = {"python": _interpreter(), "digests": digests}
        FINGERPRINTS.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"recorded {len(digests)} digests to {FINGERPRINTS}")
        return 0
    stale = {k for k, v in digests.items() if _recorded()["digests"].get(k) != v}
    for key in sorted(stale):
        print(f"changed: {key}")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
