"""Command-line interface.

Run declarative experiments without writing Python::

    python -m repro run experiment.json
    python -m repro demo --policy adaptive --duration 7200
    python -m repro trace --format chrome out.json
    python -m repro report overload --output report.json
    python -m repro policies

``run`` builds and runs any scenario spec file (see
:mod:`repro.scenarios.spec` and docs/scenarios.md) and prints the
standard summary: per-app PLO violations, utilization, makespans, and
costs.
``trace`` runs the demo scenario with telemetry enabled and exports the
causal run timeline (Chrome ``trace_event`` JSON or JSONL); ``--filter``
and ``--since`` slice the export to a span-name prefix and a start
time. ``report`` runs one of the report scenarios with SLOs attached
(``src/repro/scenarios/report/``) and prints the flight recorder's
``RunReport``: per-SLO attainment and error-budget burn, the merged
alert/fault timeline, ledger conservation verdicts, and the slowest
scrape-to-actuation critical paths.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.cost import app_cost, cost_series
from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import PlatformConfig
from repro.platform.evolve import POLICIES, SCHEDULERS, EvolvePlatform
from repro.scenarios.spec import ConfigError, build_platform, load_spec, spec_file
from repro.workloads.bigdata import BigDataJob
from repro.workloads.hpc import HPCJob
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace


def unwritable(path: str, *, directory: bool = False) -> str | None:
    """Why ``path`` cannot take a command's output, or None.

    A directory output is created with its parents; a file output needs
    an existing directory as its parent and must not be a directory.
    Commands check their outputs with this before any simulation runs.
    """
    target = Path(path)
    try:
        if directory:
            target.mkdir(parents=True, exist_ok=True)
            return None
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        parent = target.parent
        if not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code))
    except OSError as exc:
        return write_error(path, exc)
    return None


def write_error(path: str | Path, exc: OSError) -> str:
    """The ``error:`` line for an output that could not be written."""
    return f"error: cannot write {path}: {exc.strerror or exc}"


def declare_summary(platform: EvolvePlatform) -> None:
    """Declare the series :func:`summarize` reads; call before the run."""
    for name in platform.apps:
        platform.collector.declare(*cost_series(name))


def summarize(platform: EvolvePlatform) -> str:
    """Human-readable end-of-run report."""
    result = platform.result()
    lines = [
        f"simulated {result.duration / 3600:.2f} h on "
        f"{len(platform.cluster.nodes)} nodes "
        f"(scheduler={platform.scheduler.policy_name}, "
        f"policy={getattr(platform.policy, 'policy_name', '?')})",
        "",
    ]
    rows = []
    for name, app in sorted(platform.apps.items()):
        tracker = result.trackers.get(name)
        violation = (
            f"{tracker.violation_fraction:.1%}" if tracker is not None else "-"
        )
        if isinstance(app, (BigDataJob, HPCJob)):
            makespan = result.makespans.get(name)
            status = f"{makespan:.0f} s" if makespan is not None else "running"
        else:
            status = f"{app.replica_count} replicas"
        cost = app_cost(platform.collector, name)
        rows.append([name, type(app).__name__, status, violation,
                     f"${cost.total:.2f}"])
    lines.append(format_table(
        ["app", "kind", "status", "PLO violations", "alloc cost"], rows
    ))
    util = result.utilization
    lines.append("")
    lines.append(
        f"cluster: mean usage {util.overall_usage:.1%}, "
        f"mean allocated {util.overall_alloc:.1%}"
    )
    if platform.injector.failures:
        lines.append(f"node failures injected: {len(platform.injector.failures)}")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = load_spec(args.config)
        if args.duration is not None:
            spec = replace(spec, horizon=args.duration)
        with spec_file(args.config):
            platform = build_platform(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declare_summary(platform)
    platform.run(spec.horizon)
    print(summarize(platform))
    return 0


def _deploy_demo_service(platform: EvolvePlatform, policy: str) -> None:
    """The built-in demo workload (shared by ``demo`` and ``trace``)."""
    platform.deploy_microservice(
        "demo",
        trace=DiurnalTrace(base=150, amplitude=120, period=3600),
        demands=ServiceDemands(cpu_seconds=0.01, disk_mb=0.05,
                               base_latency=0.01),
        allocation=ResourceVector(cpu=0.5, memory=1, disk_bw=25, net_bw=25),
        plo=LatencyPLO(0.05, window=30),
        managed=policy != "static",
    )


def cmd_demo(args: argparse.Namespace) -> int:
    platform = EvolvePlatform(policy=args.policy, scheduler=args.scheduler)
    _deploy_demo_service(platform, args.policy)
    declare_summary(platform)
    platform.run(args.duration)
    print(summarize(platform))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.traces import latency_quantiles, reaction_latencies
    from repro.obs.export import (
        filter_trace,
        write_chrome_trace,
        write_trace_jsonl,
    )

    platform = EvolvePlatform(
        policy=args.policy,
        scheduler=args.scheduler,
        config=PlatformConfig(telemetry=True),
    )
    _deploy_demo_service(platform, args.policy)
    platform.run(args.duration)
    trace = platform.telemetry.trace
    if args.filter is not None or args.since is not None:
        trace = filter_trace(
            trace, name_prefix=args.filter, since=args.since
        )
    write, what = (
        (write_chrome_trace, "trace events") if args.format == "chrome"
        else (write_trace_jsonl, "JSONL lines")
    )
    try:
        count = write(trace, args.output, fault_log=platform.fault_log)
    except OSError as exc:
        print(write_error(args.output, exc), file=sys.stderr)
        return 2
    applied = [
        s for s in trace.by_name("actuate")
        if s.args.get("outcome") == "applied"
    ]
    print(
        f"wrote {count} {what} to {args.output} "
        f"({len(trace)} spans, {len(trace.provenance)} provenance records, "
        f"{len(applied)} applied actuations)"
    )
    latencies = reaction_latencies(trace)
    if latencies:
        q = latency_quantiles(latencies)
        print(
            f"scrape-to-actuation reaction latency: "
            f"p50={q['p50']:.2f}s p95={q['p95']:.2f}s p99={q['p99']:.2f}s "
            f"over {len(latencies)} actuations"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.recorder import build_run_report, write_run_report
    from repro.scenarios import load_report

    spec = load_report(args.scenario).spec
    if args.duration is not None:
        spec = replace(spec, horizon=args.duration)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    platform = build_platform(spec)
    platform.run(spec.horizon)
    report = build_run_report(platform, top_k=args.top_k)

    meta = report.as_dict()["meta"]
    print(
        f"scenario {args.scenario!r}: {meta['duration']:.0f} s simulated, "
        f"seed {meta['seed']}, {len(meta['apps'])} apps"
    )
    print()
    rows = []
    for name, slo in sorted(report.slos.items()):
        rows.append([
            name,
            slo["kind"],
            f"{slo['attainment']:.2%}",
            f"{slo['budget_spent_s']:.0f}s / {slo['budget_s']:.0f}s",
            str(len(slo["alerts"])),
        ])
    print(format_table(
        ["SLO", "kind", "attainment", "budget spent", "alerts"], rows
    ))
    print()
    summary = report.as_dict()["slo_summary"]
    print(
        f"overall attainment {summary['overall_attainment']:.2%}, "
        f"{summary['total_alerts']} alert(s) "
        f"({summary['unresolved_alerts']} unresolved)"
    )
    timeline = report.as_dict()["alert_timeline"]
    if timeline:
        print()
        print("timeline:")
        for entry in timeline:
            end = (
                f"{entry['end']:.0f}s" if entry["end"] is not None
                else "unresolved"
            )
            extra = (
                f" [{entry['domain']}]" if entry.get("domain") else ""
            )
            print(
                f"  {entry['start']:7.0f}s  {entry['type']:<5s} "
                f"{entry['name']} -> {end}{extra}"
            )
    if report.ledgers:
        print()
        verdicts = ", ".join(
            f"{name}={'ok' if block['ok'] else 'IMBALANCED'}"
            for name, block in sorted(report.ledgers.items())
        )
        print(f"ledgers: {verdicts}")
    paths = report.as_dict()["critical_paths"]
    if paths:
        print()
        print("slowest scrape-to-actuation paths:")
        for p in paths:
            chain = " -> ".join(hop["name"] for hop in p["path"])
            print(
                f"  {p['latency']:6.2f}s  {p['app']} @ "
                f"{p['actuated_at']:.0f}s  ({chain})"
            )
    if args.output is not None:
        try:
            write_run_report(report, args.output)
        except OSError as exc:
            print(write_error(args.output, exc), file=sys.stderr)
            return 2
        print()
        print(f"wrote RunReport to {args.output}")
    return 0 if report.ledgers_ok() else 1


def cmd_policies(_args: argparse.Namespace) -> int:
    print("policies  :", ", ".join(POLICIES))
    print("schedulers:", ", ".join(SCHEDULERS))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # ``benchmarks`` is a repo-level package (not installed with repro),
    # so the unified runner is only importable from a source checkout.
    try:
        from benchmarks import runner
    except ImportError:
        print(
            "error: the benchmark registry is not importable — run "
            "`repro bench` from the repository root (the `benchmarks/` "
            "package is not part of the installed distribution)",
            file=sys.stderr,
        )
        return 2
    argv: list[str] = []
    if args.full:
        argv.append("--full")
    elif args.smoke:
        argv.append("--smoke")
    if args.json is not None:
        argv.extend(["--json", args.json])
    if args.only is not None:
        argv.extend(["--only", args.only])
    if args.list:
        argv.append("--list")
    if args.seed is not None:
        argv.extend(["--seed", str(args.seed)])
    return runner.main(argv)


def cmd_arena(args: argparse.Namespace) -> int:
    import json as _json

    from repro import arena
    from repro.scenarios import UnknownScenarioError, scenario_names

    if args.list:
        from repro.scenarios import load_pack

        print("policies :", ", ".join(POLICIES))
        for entry in load_pack():
            print(f"{entry.name:>15s}  {entry.description}")
        return 0

    policies = None
    if args.policies is not None:
        policies = tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        )
        unknown = [p for p in policies if p not in POLICIES]
        if unknown:
            print(
                f"error: unknown policies: {', '.join(unknown)} "
                f"(registered: {', '.join(POLICIES)})",
                file=sys.stderr,
            )
            return 2
    scenarios = None
    if args.scenarios is not None:
        scenarios = tuple(
            s.strip() for s in args.scenarios.split(",") if s.strip()
        )
        unknown = [s for s in scenarios if s not in scenario_names()]
        if unknown:
            print(
                f"error: unknown scenarios: {', '.join(unknown)} "
                f"(pack: {', '.join(scenario_names())})",
                file=sys.stderr,
            )
            return 2
    try:
        payload = arena.run_arena(
            policies=policies, scenarios=scenarios, seed=args.seed
        )
    except UnknownScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(arena.leaderboard_text(payload))
    outputs = []
    if args.json is not None:
        body = dict(payload)
        body["experiment"] = "arena"
        path = Path(args.json) / "BENCH_arena.json"
        text = _json.dumps(body, indent=2, sort_keys=True) + "\n"
        outputs.append((path, text, f"\nwrote {path}"))
    if args.markdown is not None:
        text = arena.leaderboard_markdown(payload) + "\n"
        outputs.append((args.markdown, text, f"wrote {args.markdown}"))
    for path, text, message in outputs:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            print(write_error(path, exc), file=sys.stderr)
            return 2
        print(message)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import fuzzer

    if args.replay is not None:
        try:
            result = fuzzer.replay(
                args.replay, seed=args.seed, every=args.every
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        spec = result.spec
        print(
            f"replayed {args.replay}: seed={spec.seed} "
            f"horizon={spec.horizon:g}s nodes={spec.nodes} "
            f"workloads={len(spec.workloads)} chaos={len(spec.chaos)} — "
            f"{result.events_executed} events, {result.checks_run} checks"
        )
        if result.ok:
            print("no invariant violations")
            return 0
        for violation in result.violations:
            print(f"VIOLATION {violation}")
        return 1

    summary = fuzzer.fuzz(
        args.episodes,
        args.seed if args.seed is not None else 0,
        every=args.every,
        out_dir=args.out,
        differential=args.differential,
        log=print,
    )
    print(
        f"fuzz: {summary.episodes} episodes, "
        f"{len(summary.failures)} failure(s) "
        f"(run seed {summary.run_seed})"
    )
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EVOLVE reproduction: converged-platform experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario spec file")
    run.add_argument("config", help="path to the scenario spec")
    run.add_argument("--duration", type=float, default=None,
                     help="override the spec's horizon (seconds)")
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser("demo", help="run the built-in demo scenario")
    demo.add_argument("--policy", choices=POLICIES, default="adaptive")
    demo.add_argument("--scheduler", choices=SCHEDULERS, default="converged")
    demo.add_argument("--duration", type=float, default=7200.0)
    demo.set_defaults(func=cmd_demo)

    trace = sub.add_parser(
        "trace",
        help="run the demo with telemetry and export the causal timeline",
    )
    trace.add_argument("output", help="output file path")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="chrome trace_event JSON (load in Perfetto) "
                            "or JSONL (one span/provenance/fault per line)")
    trace.add_argument("--policy", choices=POLICIES, default="adaptive")
    trace.add_argument("--scheduler", choices=SCHEDULERS, default="converged")
    trace.add_argument("--duration", type=float, default=3600.0)
    trace.add_argument("--filter", metavar="PREFIX", default=None,
                       help="export only spans whose name starts with "
                            "this prefix (e.g. 'shed', 'actuate')")
    trace.add_argument("--since", type=float, metavar="T", default=None,
                       help="export only spans starting at or after this "
                            "simulated time (seconds)")
    trace.set_defaults(func=cmd_trace, outputs=(("output", False),))

    from repro.scenarios import report_names

    rep = sub.add_parser(
        "report",
        help="run a canonical SLO scenario and print the flight-recorder "
             "RunReport (attainment, burn, alerts, ledgers, critical paths)",
    )
    rep.add_argument("scenario", choices=report_names(),
                     help="which report scenario to run "
                          "(src/repro/scenarios/report/)")
    rep.add_argument("--duration", type=float, default=None,
                     help="override the scenario's horizon (seconds)")
    rep.add_argument("--seed", type=int, default=None,
                     help="override the scenario's seed")
    rep.add_argument("--output", metavar="FILE", default=None,
                     help="also write the RunReport JSON here")
    rep.add_argument("--top-k", type=int, default=5,
                     help="how many critical paths to include")
    rep.set_defaults(func=cmd_report, outputs=(("output", False),))

    policies = sub.add_parser("policies", help="list policies and schedulers")
    policies.set_defaults(func=cmd_policies)

    bench = sub.add_parser(
        "bench",
        help="run the unified benchmark registry (BENCH_<exp>.json per "
             "experiment, deterministic smoke budgets)",
    )
    mode = bench.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="CI-sized variants with deterministic budget "
                           "gates (default)")
    mode.add_argument("--full", action="store_true",
                      help="paper-scale grids behind EXPERIMENTS.md")
    bench.add_argument("--json", metavar="DIR", default=None,
                       help="write one BENCH_<exp>.json per experiment")
    bench.add_argument("--only", default=None,
                       help="comma-separated experiment names (default: all)")
    bench.add_argument("--list", action="store_true",
                       help="list registered experiments and exit")
    bench.add_argument("--seed", type=int, default=None,
                       help="override every experiment's run seed (budgets "
                            "and shape checks are skipped: they are "
                            "calibrated at the default seeds; see "
                            "docs/testing.md)")
    bench.set_defaults(func=cmd_bench)

    ar = sub.add_parser(
        "arena",
        help="score every registered autoscaler policy on the scenario "
             "pack and print the leaderboard (see docs/arena.md)",
    )
    ar.add_argument("--policies", default=None,
                    help="comma-separated policy names "
                         "(default: every registered policy)")
    ar.add_argument("--scenarios", default=None,
                    help="comma-separated pack scenario names "
                         "(default: the whole pack)")
    ar.add_argument("--seed", type=int, default=None,
                    help="override every scenario's episode seed")
    ar.add_argument("--json", metavar="DIR", default=None,
                    help="write the BENCH_arena.json artifact here")
    ar.add_argument("--markdown", metavar="FILE", default=None,
                    help="write the leaderboard as a markdown table "
                         "(for $GITHUB_STEP_SUMMARY)")
    ar.add_argument("--list", action="store_true",
                    help="list registered policies and pack scenarios")
    ar.set_defaults(
        func=cmd_arena, outputs=(("json", True), ("markdown", False))
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="run seeded fuzz episodes under the invariant checker; "
             "violations shrink to a minimal JSON repro (see docs/testing.md)",
    )
    fuzz.add_argument("--episodes", type=int, default=25,
                      help="number of scenarios to generate and run")
    fuzz.add_argument("--seed", type=int, default=None,
                      help="run seed (scenario stream root); with --replay, "
                           "overrides the repro file's episode seed")
    fuzz.add_argument("--out", default="fuzz-repros",
                      help="directory for shrunken repro JSON files")
    fuzz.add_argument("--every", type=int, default=1,
                      help="check invariants every N-th cycle boundary")
    fuzz.add_argument("--replay", metavar="FILE", default=None,
                      help="re-run one repro JSON file instead of fuzzing")
    fuzz.add_argument("--differential", action="store_true",
                      help="also run each clean episode twice to assert "
                           "telemetry-on/off decision bit-identity")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def _bad_argument(args: argparse.Namespace) -> str | None:
    """Why a numeric argument is out of range, or None if all are valid.
    ``main`` checks this before any command runs a simulation."""
    duration = getattr(args, "duration", None)
    # An infinite horizon would never end; NaN fails the comparison.
    if duration is not None and not (duration > 0 and math.isfinite(duration)):
        return f"--duration must be a finite number > 0, got {duration:g}"
    for name, low in (("seed", 0), ("episodes", 0), ("every", 1), ("top_k", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            return f"--{name.replace('_', '-')} must be ≥ {low}, got {value}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _bad_argument(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    for name, directory in getattr(args, "outputs", ()):
        path = getattr(args, name)
        problem = path is not None and unwritable(path, directory=directory)
        if problem:
            print(problem, file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
