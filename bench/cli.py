"""Command line: ``measure``, ``run``, ``trace`` and ``compare``.

``measure`` is the single measurement named in ``BENCHMARK.json``: it runs
in this process and prints its result as the last line of stdout.
``run`` and ``trace`` start one fresh ``measure`` child per repeat and
workload, one at a time, and summarise them; ``compare`` reads two
``run`` outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from bench.layers import EXTRAS, LAYER_NAMES, OTHER
from bench.measure import END_TO_END, MODELLED, ROOT, measure
from bench.workloads import WORKLOADS

TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"

#: Passes per child of ``run`` and ``trace`` (each kind, when tracing).
CHILD_PASSES = 3

#: Fewest repeat pairs that can show an improvement: with 5 pairs, runs of
#: one commit against itself read as improved 1 time in 32 by chance.
MIN_PAIRS = 10

#: Threads a child may use: every run is single-threaded by design.
_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def metric_table() -> dict[str, tuple[str, str, float]]:
    """(unit, better, bound) for every metric ``run`` and ``compare`` use.

    Wall-clock metrics take their bounds from ``BENCHMARK.json``; the
    modelled metrics are deterministic, so their bound is 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    }
    for name, (unit, better) in MODELLED.items():
        table[name] = (unit, better, 0.0)
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """improved, unchanged, worse or unresolved: NEW against parent OLD.

    Improved: at least :data:`MIN_PAIRS` (OLD[i], NEW[i]) pairs, NEW wins
    at least 9/10 of them, ties counting for neither, and the medians
    differ by more than OLD's interquartile range. Worse: NEW's median is
    worse than OLD's by more than ``bound`` × OLD's median. Unresolved:
    OLD's own spread is wider than the bound and not every NEW run beats
    every OLD run.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, old_median, q3 = quartiles(old)
    gain = sign * (statistics.median(new) - old_median)
    pairs = list(zip(old, new))
    wins = sum(sign * (n - o) > 0 for o, n in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    allowed = bound * abs(old_median)
    all_better = min(sign * n for n in new) > max(sign * o for o in old)
    if q3 - q1 > allowed and not all_better:
        return "unresolved"
    return "worse" if -gain > allowed else "unchanged"


# -- children -------------------------------------------------------------------


def _child(workload: str, seed: int, trace: bool) -> dict:
    """One fresh ``measure`` process of :data:`CHILD_PASSES` passes; returns
    its full report."""
    cmd = [
        sys.executable,
        "-m",
        "bench",
        "measure",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--passes",
        str(CHILD_PASSES),
        "--trace",
        str(int(trace)),
    ]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=dict(os.environ, **_CHILD_ENV),
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{cmd} exited {proc.returncode} without a report")
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-2])


def _host() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def _commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


# -- run ------------------------------------------------------------------------


def cmd_run(args) -> int:
    table = metric_table()
    workloads: dict[str, dict] = {}
    for name in args.workloads:
        reports = []
        for repeat in range(args.repeats):
            print(f"# {name} repeat {repeat + 1}/{args.repeats}", file=sys.stderr)
            reports.append(_child(name, args.seed, trace=False))
        workloads[name] = summarise(reports, table)
    payload = {
        "schema": "bench.perf/v1",
        "commit": _commit(),
        "seed": args.seed,
        "repeats": args.repeats,
        "passes": CHILD_PASSES,
        "host": _host(),
        "workloads": workloads,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "perf.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{'workload':10} {'metric':20} {'unit':9} {'median':>12} "
        f"{'q1':>12} {'q3':>12} {'n':>3}"
    )
    for name, summary in workloads.items():
        for metric, row in summary["metrics"].items():
            print(
                f"{name:10} {metric:20} {row['unit']:9} "
                f"{_fmt(row['median']):>12} {_fmt(row['q1']):>12} "
                f"{_fmt(row['q3']):>12} {row['n']:>3}"
            )
        print(f"{name:10} fingerprint {summary['fingerprint']}")
    print(f"wrote {out / 'perf.json'}")
    if args.record:
        traces = {name: _child(name, args.seed, trace=True) for name in workloads}
        record(payload, traces)
        print(f"appended {TRAJECTORY}")
    fails = [s["metrics"]["failed_frac"]["values"] for s in workloads.values()]
    return 1 if any(any(f) for f in fails) else 0


def summarise(reports: list[dict], table: dict) -> dict:
    """Per-metric quartiles over repeats; a repeat whose fingerprint differs
    from the first repeat's counts as wholly failed."""
    fingerprint = reports[0]["fingerprint"]
    values: dict[str, list[float]] = {}
    for report in reports:
        for metric in END_TO_END:
            values.setdefault(metric, []).append(report["metrics"][metric]["value"])
        modelled = dict(report["modelled"])
        if report["fingerprint"] != fingerprint:
            modelled["failed_frac"] = 1.0
        for metric, value in modelled.items():
            values.setdefault(metric, []).append(value)
    metrics = {}
    for metric, vals in values.items():
        unit, better, bound = table[metric]
        q1, median, q3 = quartiles(vals)
        metrics[metric] = {
            "unit": unit,
            "better": better,
            "bound": bound,
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(vals),
            "values": vals,
        }
    return {"fingerprint": fingerprint, "metrics": metrics}


def record(payload: dict, traces: dict[str, dict]) -> None:
    """Append one trajectory line: medians and layer shares per workload."""
    workloads = {}
    for name, summary in payload["workloads"].items():
        traced = {k: v["value"] for k, v in traces[name]["metrics"].items()}
        workloads[name] = {
            "fingerprint": summary["fingerprint"],
            "medians": {m: row["median"] for m, row in summary["metrics"].items()},
            "shares": {
                layer: traced[f"{layer}.share"] for layer in (*LAYER_NAMES, OTHER)
            },
            "trace_overhead": traced["trace.overhead"],
        }
    line = {
        "commit": payload["commit"],
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "host": payload["host"],
        "seed": payload["seed"],
        "repeats": payload["repeats"],
        "workloads": workloads,
    }
    with TRAJECTORY.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


# -- trace ----------------------------------------------------------------------


def cmd_trace(args) -> int:
    reports = {}
    for name in args.workloads:
        print(f"# {name} traced", file=sys.stderr)
        reports[name] = _child(name, args.seed, trace=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.json").write_text(json.dumps(reports, indent=2) + "\n")
    for name, report in reports.items():
        values = {k: v["value"] for k, v in report["metrics"].items()}
        print(f"\n{name}: trace.overhead {_fmt(values['trace.overhead'])}")
        print(f"  {'layer':10} {'self_s':>10} {'share':>7} {'calls':>10}  extras")
        for layer in (*LAYER_NAMES, OTHER):
            extras = ", ".join(
                f"{extra}={_fmt(values[f'{layer}.{extra}'])}"
                for extra, _unit in EXTRAS.get(layer, ())
            )
            print(
                f"  {layer:10} {_fmt(values[f'{layer}.self_s']):>10} "
                f"{values[f'{layer}.share']:>7.3f} "
                f"{values.get(f'{layer}.calls', 0):>10.0f}  {extras}"
            )
    print(f"\nwrote {out / 'trace.json'}")
    return 0 if all(r["correct"] for r in reports.values()) else 1


# -- compare --------------------------------------------------------------------


def _load_perf(path: str) -> dict:
    p = Path(path)
    return json.loads((p / "perf.json" if p.is_dir() else p).read_text())


def cmd_compare(args) -> int:
    old, new = _load_perf(args.old), _load_perf(args.new)
    table = metric_table()
    worse = 0
    print(
        f"{'workload':10} {'metric':20} {'old median':>12} {'new median':>12} "
        f"{'change':>8}  verdict"
    )
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            print(f"{name:10} missing from {args.new}")
            continue
        for metric, old_m in old_w["metrics"].items():
            if metric not in new_w["metrics"]:
                continue
            new_m = new_w["metrics"][metric]
            _unit, better, bound = table[metric]
            result = verdict(old_m["values"], new_m["values"], better, bound)
            worse += result == "worse"
            base = old_m["median"]
            change = (new_m["median"] - base) / abs(base) if base else 0.0
            print(
                f"{name:10} {metric:20} {_fmt(base):>12} "
                f"{_fmt(new_m['median']):>12} {change:>+8.1%}  {result}"
            )
        if old_w["fingerprint"] != new_w["fingerprint"]:
            print(f"{name:10} fingerprint changed: behaviour differs")
    return 1 if worse else 0


# -- measure --------------------------------------------------------------------


def cmd_measure(args) -> int:
    report = measure(
        args.workload,
        args.seed,
        seconds=args.seconds,
        passes=args.passes,
        trace=bool(args.trace),
    )
    print(json.dumps(report))
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be ≥ 0")
    return seed


def _workloads(text: str) -> list[str]:
    names = [n for n in text.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}"
        )
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="one measurement: the BENCHMARK.json command")
    m.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    m.add_argument("--seed", type=_seed, required=True)
    budget = m.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float, help="measure for this long")
    budget.add_argument("--passes", type=int, help="measure this many passes")
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.set_defaults(func=cmd_measure)

    all_workloads = ",".join(WORKLOADS)
    r = sub.add_parser("run", help="end-to-end metrics over fresh child processes")
    r.add_argument(
        "--workloads",
        type=_workloads,
        default=list(WORKLOADS),
        help=f"comma-separated (default {all_workloads})",
    )
    r.add_argument("--repeats", type=int, default=5)
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--out", default="bench-out")
    r.add_argument(
        "--record",
        action="store_true",
        help="also trace, and append a line to bench/trajectory.jsonl",
    )
    r.set_defaults(func=cmd_run)

    t = sub.add_parser("trace", help="per-layer metrics, one traced child each")
    t.add_argument("--workloads", type=_workloads, default=list(WORKLOADS))
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("--out", default="bench-out")
    t.set_defaults(func=cmd_trace)

    c = sub.add_parser("compare", help="NEW against parent OLD, per workload")
    c.add_argument("old", help="perf.json of the parent, or its directory")
    c.add_argument("new", help="perf.json of the change, or its directory")
    c.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)
