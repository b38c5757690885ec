"""Seeded scenario fuzzer with shrinking replay.

The fuzzer composes random-but-reproducible scenarios — a workload mix
(micro/stream/bigdata/hpc), an explicit chaos schedule, and a controller
config — as :class:`~repro.scenarios.spec.ScenarioSpec` values, runs
each as a short platform episode (built by
:func:`~repro.scenarios.spec.build_platform`) with the full
:mod:`repro.verify.invariants` registry attached at ``every=1``, and on
any violation **shrinks** the scenario to a minimal failing form before
writing a replayable JSON repro file.

Determinism contract: a scenario is *entirely* described by its spec.
Scenario generation draws only from
``RngRegistry(run_seed).stream("fuzz/scenario/<index>")``, and the
episode itself draws only from the platform's own registry seeded with
``spec.seed`` — so ``repro fuzz --seed 7`` produces the same episodes on
every machine, and a repro file replays the same run that failed (see
docs/testing.md for the seed-derivation scheme).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

from repro.cluster.events import PodScheduled
from repro.platform.evolve import EvolvePlatform
from repro.scenarios.spec import (
    CONTROLLER_DOMAINS,
    DATA_DOMAINS,
    NODE_DOMAINS,
    OVERLOAD_DOMAINS,
    WORKLOAD_KINDS,
    ZONE_DOMAINS,
    ChaosEvent,
    ScenarioSpec,
    WorkloadSpec,
    build_platform,
    load_spec,
    spec_file,
)
from repro.sim.rng import RngRegistry
from repro.verify.invariants import Invariant, InvariantChecker, Violation

#: Shrinking never reduces the horizon below this (the control loops
#: need a few intervals to do anything at all).
MIN_HORIZON = 60.0
#: Candidate specs one shrink may evaluate.
MAX_SHRINK_EVALS = 64


# -- scenario generation -------------------------------------------------------


def _draw_workload(kind: str, index: int, rng) -> WorkloadSpec:
    name = f"{kind}-{index}"
    if kind == "micro":
        base = round(float(rng.uniform(50.0, 250.0)), 1)
        params = {
            "base": base,
            "amplitude": round(base * float(rng.uniform(0.2, 0.8)), 1),
            "period": 600.0,
            "cpu_seconds": round(float(rng.uniform(0.002, 0.01)), 4),
            "cpu": round(float(rng.uniform(0.5, 2.0)), 2),
            "memory": 2.0,
            "plo": 0.05,
            "replicas": int(rng.integers(1, 3)),
        }
    elif kind == "stream":
        params = {
            "rate": round(float(rng.uniform(100.0, 400.0)), 1),
            "cpu_seconds": round(float(rng.uniform(0.001, 0.004)), 4),
            "cpu": round(float(rng.uniform(0.5, 1.5)), 2),
            "memory": 2.0,
            "plo": 5.0,
            "workers": int(rng.integers(1, 3)),
        }
    elif kind == "bigdata":
        params = {
            "scan_cpu": round(float(rng.uniform(100.0, 400.0)), 1),
            "agg_cpu": round(float(rng.uniform(100.0, 400.0)), 1),
            "input_mb": round(float(rng.uniform(1000.0, 8000.0)), 1),
            "executors": int(rng.integers(2, 4)),
            "delay": round(float(rng.uniform(0.0, 60.0)), 1),
            "cpu": round(float(rng.uniform(1.0, 2.0)), 2),
            "memory": 4.0,
            "dataset": bool(rng.random() < 0.5),
        }
    elif kind == "hpc":
        params = {
            "ranks": int(rng.integers(2, 5)),
            "duration": round(float(rng.uniform(60.0, 180.0)), 1),
            "cpu": round(float(rng.uniform(2.0, 4.0)), 2),
            "memory": round(float(rng.uniform(4.0, 8.0)), 1),
            "delay": round(float(rng.uniform(0.0, 60.0)), 1),
        }
    else:  # pragma: no cover - guarded by WORKLOAD_KINDS
        raise ValueError(f"unknown workload kind {kind!r}")
    return WorkloadSpec(kind=kind, name=name, params=params)


def generate_scenario(run_seed: int, index: int) -> ScenarioSpec:
    """Draw episode ``index`` of a fuzz run, deterministically.

    Each (run_seed, index) pair maps to its own RNG stream, so episodes
    are independent: adding episode 12 never perturbs episode 13.
    """
    rng = RngRegistry(run_seed).stream(f"fuzz/scenario/{index}")
    nodes = int(rng.integers(3, 6))
    horizon = float(rng.integers(4, 11)) * 60.0
    replicas = 3 if float(rng.random()) < 0.25 else 1
    zones = 3 if float(rng.random()) < 0.3 else 1
    overload = bool(float(rng.random()) < 0.5)
    workloads = tuple(
        _draw_workload(
            WORKLOAD_KINDS[int(rng.integers(len(WORKLOAD_KINDS)))], i, rng
        )
        for i in range(int(rng.integers(1, 5)))
    )
    domains = (
        NODE_DOMAINS
        + (CONTROLLER_DOMAINS if replicas > 1 else ())
        + (ZONE_DOMAINS if zones > 1 else ())
        + OVERLOAD_DOMAINS
    )
    chaos = tuple(
        ChaosEvent(
            domain=domains[int(rng.integers(len(domains)))],
            at=round(float(rng.uniform(30.0, max(60.0, 0.6 * horizon))), 1),
            duration=round(float(rng.uniform(30.0, 120.0)), 1),
            target=int(rng.integers(16)),
        )
        for _ in range(int(rng.integers(0, 4)))
    )
    seed = int(rng.integers(2**31 - 1))
    # v3 draws happen strictly after every v2 draw (including the seed),
    # so the v2 prefix of an episode's stream — and therefore every
    # ft-less scenario — is bit-identical to what the v2 fuzzer drew.
    ft = bool(float(rng.random()) < 0.35)
    if ft:
        chaos += tuple(
            ChaosEvent(
                domain=DATA_DOMAINS[int(rng.integers(len(DATA_DOMAINS)))],
                at=round(
                    float(rng.uniform(30.0, max(60.0, 0.6 * horizon))), 1
                ),
                duration=round(float(rng.uniform(30.0, 120.0)), 1),
                target=int(rng.integers(16)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
    # v4 draws: trace-model knobs, strictly after every v3 draw, so
    # scenarios with the new models disabled are bit-identical to v3's.
    arrival_model = "rate"
    heavy_tail = False
    if float(rng.random()) < 0.35:
        arrival_model = ("poisson", "mmpp")[int(rng.integers(2))]
        heavy_tail = bool(float(rng.random()) < 0.4)
    surge = bool(float(rng.random()) < 0.25)
    return ScenarioSpec(
        seed=seed,
        horizon=horizon,
        nodes=nodes,
        controller_replicas=replicas,
        workloads=workloads,
        chaos=chaos,
        zones=zones,
        overload=overload,
        ft=ft,
        arrival_model=arrival_model,
        heavy_tail=heavy_tail,
        surge=surge,
    )


# -- episodes ------------------------------------------------------------------


@dataclass
class EpisodeResult:
    spec: ScenarioSpec
    violations: list[Violation]
    events_executed: int
    checks_run: int
    #: (time, pod, node) placement triples, when requested.
    fingerprint: list[tuple[float, str, str]] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def run_episode(
    spec: ScenarioSpec,
    *,
    every: int = 1,
    telemetry: bool = False,
    invariants: list[Invariant] | None = None,
    inject: Callable[[EvolvePlatform], None] | None = None,
    collect_fingerprint: bool = False,
) -> EpisodeResult:
    """Run one scenario under the invariant checker.

    ``inject`` runs against the built platform before the clock starts —
    the hook tests use to plant a known corruption (a raw double-bind, a
    stale-heap push) and prove the harness catches it.
    """
    platform = build_platform(spec, telemetry=telemetry)
    checker = InvariantChecker.attach(
        platform,
        every=every,
        invariants=invariants,
        stop_on_violation=True,
    )
    fingerprint: list[tuple[float, str, str]] | None = None
    if collect_fingerprint:
        fingerprint = []
        platform.cluster.events.subscribe(
            PodScheduled,
            lambda e: fingerprint.append((e.time, e.pod_name, e.node_name)),
        )
    if inject is not None:
        inject(platform)
    platform.run(spec.horizon)
    checker.final_check()
    checker.detach()
    return EpisodeResult(
        spec=spec,
        violations=list(checker.violations),
        events_executed=platform.engine.events_executed,
        checks_run=checker.checks_run,
        fingerprint=fingerprint,
    )


def telemetry_identity_violation(
    spec: ScenarioSpec, *, every: int = 1
) -> Violation | None:
    """Differential invariant: telemetry must not change decisions.

    Runs the spec twice — telemetry off and on — and compares the
    placement fingerprint and total event count. Unlike the cycle-level
    invariants this one needs two full runs, so the fuzzer applies it
    per episode behind ``--differential``.
    """
    base = run_episode(spec, every=every, collect_fingerprint=True)
    tele = run_episode(
        spec, every=every, telemetry=True, collect_fingerprint=True
    )
    if base.fingerprint != tele.fingerprint:
        return Violation(
            "telemetry-identity",
            spec.horizon,
            f"placements diverge with telemetry enabled "
            f"({len(base.fingerprint)} vs {len(tele.fingerprint)} binds)",
        )
    if base.events_executed != tele.events_executed:
        return Violation(
            "telemetry-identity",
            spec.horizon,
            f"event count diverges with telemetry enabled "
            f"({base.events_executed} vs {tele.events_executed})",
        )
    return None


# -- shrinking -----------------------------------------------------------------


#: Plain values shrinking tries after the drop moves, in order: each
#: turns one feature of the scenario off. Data-plane chaos events stay
#: runnable with ``ft`` off (evict works regardless; speed_factor and
#: dropped replicas are inert without the fault-tolerant models), so
#: that move never needs to prune the chaos list.
PLAIN_VALUES = (
    ("controller_replicas", 1),
    ("zones", 1),
    ("overload", False),
    ("ft", False),
    ("surge", False),
    ("heavy_tail", False),
    ("arrival_model", "rate"),
)


def _moves(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Reductions of ``spec``, in the order shrinking tries them."""
    for i in range(len(spec.workloads)):
        yield replace(
            spec, workloads=spec.workloads[:i] + spec.workloads[i + 1:]
        )
    for i in range(len(spec.chaos)):
        yield replace(spec, chaos=spec.chaos[:i] + spec.chaos[i + 1:])
    for name, plain in PLAIN_VALUES:
        if getattr(spec, name) != plain:
            yield replace(spec, **{name: plain})
    if spec.horizon > MIN_HORIZON:
        yield replace(spec, horizon=max(MIN_HORIZON, spec.horizon / 2))


def shrink(
    spec: ScenarioSpec,
    still_fails: Callable[[ScenarioSpec], bool],
) -> ScenarioSpec:
    """Greedily minimize a failing spec.

    Reduction moves, tried to a fixpoint: drop one workload, drop one
    chaos event, set one field of :data:`PLAIN_VALUES` to its plain
    value, halve the horizon. A candidate is kept only if
    ``still_fails``, and each kept candidate restarts the moves — so the
    result is 1-minimal with respect to these moves (dropping any single
    remaining element makes the failure disappear), within
    :data:`MAX_SHRINK_EVALS` evaluations.
    """
    evals = 0
    current = spec
    improved = True
    while improved and evals < MAX_SHRINK_EVALS:
        improved = False
        for candidate in _moves(current):
            if evals >= MAX_SHRINK_EVALS:
                break
            evals += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current


# -- the fuzz loop -------------------------------------------------------------


@dataclass
class FuzzFailure:
    index: int
    violations: list[Violation]
    spec: ScenarioSpec
    shrunk: ScenarioSpec
    repro_path: str | None


@dataclass
class FuzzSummary:
    run_seed: int
    episodes: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def write_repro(
    spec: ScenarioSpec,
    violations: list[Violation],
    out_dir: str | Path,
    run_seed: int,
    index: int,
) -> Path:
    """Persist a failing (shrunken) spec as a replayable JSON file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"repro-{run_seed}-{index}.json"
    payload = spec.to_dict()
    payload["violations"] = [str(v) for v in violations]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def fuzz(
    episodes: int,
    run_seed: int,
    *,
    every: int = 1,
    out_dir: str | Path | None = "fuzz-repros",
    differential: bool = False,
    inject: Callable[[EvolvePlatform], None] | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzSummary:
    """Run ``episodes`` seeded scenarios; shrink and persist any failure."""
    say = log if log is not None else (lambda _msg: None)
    summary = FuzzSummary(run_seed=run_seed, episodes=episodes)
    for index in range(episodes):
        spec = generate_scenario(run_seed, index)
        result = run_episode(spec, every=every, inject=inject)
        violations = list(result.violations)
        if not violations and differential:
            extra = telemetry_identity_violation(spec, every=every)
            if extra is not None:
                violations.append(extra)
        if not violations:
            say(
                f"episode {index}: ok "
                f"({result.events_executed} events, "
                f"{result.checks_run} checks)"
            )
            continue
        say(f"episode {index}: VIOLATION {violations[0]}")

        def still_fails(candidate: ScenarioSpec) -> bool:
            if not run_episode(candidate, every=every, inject=inject).ok:
                return True
            if differential:
                return (
                    telemetry_identity_violation(candidate, every=every)
                    is not None
                )
            return False

        shrunk = shrink(spec, still_fails)
        say(
            f"episode {index}: shrunk to {len(shrunk.workloads)} "
            f"workload(s), {len(shrunk.chaos)} chaos event(s), "
            f"horizon {shrunk.horizon:g}s"
        )
        repro_path = None
        if out_dir is not None:
            repro_path = str(
                write_repro(shrunk, violations, out_dir, run_seed, index)
            )
            say(f"episode {index}: repro written to {repro_path}")
        summary.failures.append(
            FuzzFailure(
                index=index,
                violations=violations,
                spec=spec,
                shrunk=shrunk,
                repro_path=repro_path,
            )
        )
    return summary


def replay(
    path: str | Path, *, seed: int | None = None, every: int = 1
) -> EpisodeResult:
    """Re-run a repro file; ``seed`` overrides the recorded episode seed."""
    spec = load_spec(path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    with spec_file(path):
        return run_episode(spec, every=every)
