"""One control period on locals against the code it replaced.

``PIDController.update`` scales its gains inline, ``AdaptiveGainTuner.update``
diagnoses oscillation and sluggishness in one pass over its window,
``MultiResourceController.decide`` computes the four scaled, clamped
dimensions and both closeness tests directly, and
``ControlLoopManager`` reads the PLO signal, usage and allocation series
it binds once the collector stores them. This module keeps the bodies
they replaced as the reference: a ``PIDGains`` built per update, the
tuner's ``_sign_flips`` and ``_sluggish`` helpers, the ``factors`` dict
with ``ResourceVector.scale``, the bounds' ``clamp`` and ``approx_equal``,
and collector reads by series names formatted per period (the freshness
probe, the saturation snapshot and the provenance's newest sample).

The reference ``decide`` counts a call before it validates
``feedforward``, as the replaced code did; no case here passes a negative
feedforward, whose handling ``test_multiresource.py`` checks.

Every case runs a fresh twin pair, one on each path, from the same inputs.
After every call the two must agree by ``repr`` on every
``ControlDecision`` field, on ``last_terms``, on the PID's integral and
filter state and on the tuner's scale, window, last event and event
counts, so a float that differs in its last bit, or a signed zero, fails.
"""

from __future__ import annotations

import cProfile
import functools
import math
import operator
import pstats

import pytest

from repro.cluster.pod import PodPhase
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.adaptive import (
    GROW,
    OSCILLATION_FLIPS,
    RELAX,
    SCALE_BOUNDS,
    SHRINK,
    SLUGGISH_PERIODS,
    AdaptiveGainTuner,
)
from repro.control.estimator import SaturationSnapshot
from repro.control.multiresource import (
    ERROR_CLAMP,
    RECLAIM_CAUTION,
    AllocationBounds,
    ControlDecision,
    MultiResourceController,
)
from repro.control.pid import (
    DERIVATIVE_ALPHA,
    INTEGRAL_LIMIT,
    OUTPUT_LIMITS,
    PIDController,
    PIDGains,
)
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import DiurnalTrace, StepTrace

NAN = math.nan
INF = math.inf

# -- the reference: one control period before the rewrite ---------------------


def ref_pid_update(pid, error, dt):
    if dt <= 0:
        raise ValueError("dt must be positive")
    factor = pid.gain_scale
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    base = pid.gains
    gains = PIDGains(base.kp * factor, base.ki * factor, base.kd * factor)
    pid.updates += 1
    if pid._filtered_error is None:
        pid._filtered_error = error
    else:
        a = DERIVATIVE_ALPHA
        pid._filtered_error = a * error + (1 - a) * pid._filtered_error
    if pid._prev_filtered is None:
        derivative = 0.0
    else:
        derivative = (pid._filtered_error - pid._prev_filtered) / dt
    pid._prev_filtered = pid._filtered_error
    proposed_integral = pid._integral + error * dt
    if gains.ki > 0:
        limit = INTEGRAL_LIMIT
        proposed_integral = max(
            -limit, min(limit, gains.ki * proposed_integral)
        ) / gains.ki
    pid.last_terms = (
        gains.kp * error,
        gains.ki * proposed_integral,
        gains.kd * derivative,
    )
    unclamped = sum(pid.last_terms)
    lo, hi = OUTPUT_LIMITS
    output = max(lo, min(hi, unclamped))
    saturated_high = unclamped > hi and error > 0
    saturated_low = unclamped < lo and error < 0
    if not saturated_high and not saturated_low:
        pid._integral = proposed_integral
    pid.last_output = output
    return output


def ref_sign_flips(tuner):
    significant = [e for e in tuner._errors if abs(e) > tuner.deadband]
    flips = 0
    for prev, cur in zip(significant, significant[1:]):
        if prev * cur < 0:
            flips += 1
    return flips


def ref_sluggish(tuner):
    if len(tuner._errors) < SLUGGISH_PERIODS:
        return False
    recent = list(tuner._errors)[-SLUGGISH_PERIODS:]
    if any(abs(e) <= tuner.deadband for e in recent):
        return False
    return all(e > 0 for e in recent) or all(e < 0 for e in recent)


def ref_tuner_update(tuner, error):
    tuner._errors.append(float(error))
    lo, hi = SCALE_BOUNDS
    if ref_sign_flips(tuner) >= OSCILLATION_FLIPS:
        tuner.scale *= SHRINK
        tuner.oscillation_events += 1
        tuner.last_event = "oscillation"
        tuner._errors.clear()
    elif ref_sluggish(tuner):
        tuner.scale *= GROW
        tuner.sluggish_events += 1
        tuner.last_event = "sluggish"
        tuner._errors.clear()
    else:
        tuner.scale += (1.0 - tuner.scale) * RELAX
        tuner.last_event = None
    tuner.scale = max(lo, min(hi, tuner.scale))
    return tuner.scale


def ref_scale(vector, factors):
    """The deleted ``ResourceVector.scale``."""
    values = vector.as_dict()
    for name, factor in factors.items():
        values[name] *= factor
    return ResourceVector(**values)


def ref_decide(ctrl, error, saturation, current, dt, *, feedforward=0.0):
    ctrl.decisions += 1
    if feedforward < 0:
        raise ValueError("feedforward must be non-negative")
    error = max(ERROR_CLAMP[0], min(ERROR_CLAMP[1], error))
    if ctrl.adaptive:
        ctrl.pid.gain_scale = ref_tuner_update(ctrl.tuner, error)
    output = ref_pid_update(ctrl.pid, error, dt)
    if feedforward > 0:
        output = min(OUTPUT_LIMITS[1], max(0.0, output) + feedforward)
    gain_scale = ctrl.pid.gain_scale
    if feedforward <= 0 and abs(error) <= ctrl.deadband:
        return ControlDecision(
            "hold", current, error, output, gain_scale, {}, reason="deadband"
        )
    if output > 0:
        weights = ctrl.estimator.grow_weights(saturation)
        action = "grow"
        effort = output
    elif output < 0:
        weights = ctrl.estimator.reclaim_weights(saturation)
        action = "reclaim"
        effort = output * RECLAIM_CAUTION
    else:
        return ControlDecision(
            "hold", current, error, output, gain_scale, {},
            reason="zero-output",
        )
    weights = {
        name: (weights.get(name, 0.0) if name in ctrl.dimensions else 0.0)
        for name in RESOURCES
    }
    if all(w == 0.0 for w in weights.values()):
        return ControlDecision(
            "hold", current, error, output, gain_scale, weights,
            reason="no-dimensions",
        )
    factors = {
        name: max(0.05, 1.0 + effort * weight)
        for name, weight in weights.items()
    }
    proposed = ref_scale(current, factors)
    clamped = ctrl.bounds.clamp(proposed)
    was_clamped = not clamped.approx_equal(proposed, tolerance=1e-9)
    if clamped.approx_equal(current, tolerance=1e-9):
        return ControlDecision(
            "hold", current, error, output, gain_scale, weights,
            reason="clamped", clamped=True,
        )
    return ControlDecision(
        action, clamped, error, output, gain_scale, weights,
        clamped=was_clamped,
    )


def ref_latest_sample(collector, name):
    """The deleted ``MetricsCollector.latest_sample``."""
    series = collector.stored(name)
    return series.last_sample() if series is not None else None


def ref_signal_fresh(manager, app, error, now):
    """The replaced freshness probe, through the deleted
    ``MetricsCollector.latest_time``."""
    if error is None:
        return False
    sample = ref_latest_sample(manager.collector, app.plo.metric_name(app.name))
    last_t = sample[0] if sample is not None else None
    return last_t is not None and now - last_t <= manager.freshness_timeout


def ref_saturation(manager, app):
    """The saturation snapshot and whether it fell back to live pods."""
    prefix = app.metric_prefix()
    fractions = {}
    for name in RESOURCES:
        usage = manager.collector.window_mean(
            f"{prefix}/usage/{name}", manager.interval
        )
        alloc = manager.collector.latest(f"{prefix}/alloc/{name}")
        if usage is None or alloc is None or alloc <= 0:
            break
        fractions[name] = usage / alloc
    else:
        return SaturationSnapshot(fractions), False
    total_usage = ResourceVector.zero()
    total_alloc = ResourceVector.zero()
    for pod in [p for p in app._pods if p.phase == PodPhase.RUNNING]:
        total_usage = total_usage + pod.usage
        total_alloc = total_alloc + pod.allocation
    return SaturationSnapshot.from_vectors(total_usage, total_alloc), True


# -- what the two paths must agree on --------------------------------------------


def _vector(v) -> str:
    return repr((v.cpu, v.memory, v.disk_bw, v.net_bw))


def _decision(d: ControlDecision) -> tuple:
    return (
        d.action,
        _vector(d.new_allocation),
        repr(d.error),
        repr(d.output),
        repr(d.gain_scale),
        repr(d.weights),
        d.reason,
        d.clamped,
    )


def _pid_state(pid: PIDController) -> str:
    return repr((
        pid.last_terms, pid._integral, pid._filtered_error,
        pid._prev_filtered, pid.last_output, pid.gain_scale, pid.updates,
    ))


def _tuner_state(tuner: AdaptiveGainTuner) -> str:
    return repr((
        tuner.scale, list(tuner._errors), tuner.last_event,
        tuner.oscillation_events, tuner.sluggish_events,
    ))


def _state(ctrl: MultiResourceController) -> tuple:
    return _pid_state(ctrl.pid), _tuner_state(ctrl.tuner), ctrl.decisions


def _twin(ctrl: MultiResourceController) -> MultiResourceController:
    """A fresh controller configured like ``ctrl``."""
    return MultiResourceController(
        ctrl.pid.gains,
        ctrl.bounds,
        deadband=ctrl.deadband,
        adaptive=ctrl.adaptive,
        dimensions=ctrl.dimensions,
    )


# -- the PID and the tuner alone ------------------------------------------------

EDGE_ERRORS = [0.0, -0.0, -1.0, 3.0, 0.1, -0.1, 0.1, 0.1, -0.1, -0.1, 1e-300,
               -1e-300, 0.5, -0.5, 2.0, -2.0]

PID_CASES = {
    # name: (PIDController kwargs, errors, gain scale per update)
    "edges": (
        dict(gains=PIDGains(kp=0.8, ki=0.08, kd=0.1)),
        EDGE_ERRORS + [INF, -INF], [1.0],
    ),
    "nan": (
        dict(gains=PIDGains(kp=0.8, ki=0.08, kd=0.1)),
        [0.5, NAN, 0.5, -0.5], [1.0],
    ),
    "both-rails": (
        dict(gains=PIDGains(kp=4.0, ki=0.5, kd=0.3)),
        [1.0, 2.0, 3.0, -1.0, -2.0, -1.0, 0.0, 1.0], [1.0],
    ),
    "integral-clamp": (
        dict(gains=PIDGains(kp=0.1, ki=2.0, kd=0.0)),
        [3.0] * 4 + [-3.0] * 6 + [0.0, -0.0], [1.0],
    ),
    "no-integral": (
        dict(gains=PIDGains(kp=1.0, ki=0.0, kd=0.5)),
        EDGE_ERRORS, [1.0],
    ),
    "scaled-gains": (
        dict(gains=PIDGains(kp=0.8, ki=0.3, kd=0.1)),
        EDGE_ERRORS, [1.0, 2.5, 0.2, 1.3, 5.0],
    ),
}


@pytest.mark.parametrize("name", sorted(PID_CASES))
def test_pid_update_matches_reference(name):
    kwargs, errors, scales = PID_CASES[name]
    fast, ref = PIDController(**kwargs), PIDController(**kwargs)
    for step, error in enumerate(errors):
        fast.gain_scale = ref.gain_scale = scales[step % len(scales)]
        got = fast.update(error, 10.0)
        want = ref_pid_update(ref, error, 10.0)
        assert repr(got) == repr(want), f"{name}: update {step}"
        assert _pid_state(fast) == _pid_state(ref), f"{name}: update {step}"


@pytest.mark.parametrize("scale", [0.0, -0.5])
def test_pid_rejects_a_nonpositive_scale_like_reference(scale):
    fast, ref = (PIDController(PIDGains(kp=1.0, ki=0.1)) for _ in range(2))
    fast.update(0.5, 1.0)
    ref_pid_update(ref, 0.5, 1.0)
    fast.gain_scale = ref.gain_scale = scale
    with pytest.raises(ValueError):
        fast.update(0.5, 1.0)
    with pytest.raises(ValueError):
        ref_pid_update(ref, 0.5, 1.0)
    assert _pid_state(fast) == _pid_state(ref)


TUNER_CASES = {
    # name: (AdaptiveGainTuner kwargs, errors)
    "edges": (dict(deadband=0.1), EDGE_ERRORS + [NAN, 0.2, NAN, -0.2]),
    "at-the-deadband": (dict(deadband=0.1), [0.1] * 6 + [-0.1] * 6),
    "oscillation": (dict(deadband=0.05), [0.5, -0.5] * 8),
    "sluggish-up": (dict(deadband=0.05), [0.5] * 10),
    "sluggish-down": (dict(deadband=0.05), [-0.5] * 10),
    "zero-deadband": (
        dict(deadband=0.0),
        [1e-200, -1e-200, 1e-200, 0.0, -0.0, 1e-320, -1e-320, 0.5, -0.5, 0.5],
    ),
    "negative-deadband": (dict(deadband=-0.1), [0.0, 0.05, -0.05, 0.0, 0.2]),
    "both-bounds": (
        dict(deadband=0.05),
        [1.0] * 40 + [0.0] * 4 + [0.5, -0.5] * 40,
    ),
}


@pytest.mark.parametrize("name", sorted(TUNER_CASES))
def test_tuner_update_matches_reference(name):
    kwargs, errors = TUNER_CASES[name]
    fast, ref = AdaptiveGainTuner(**kwargs), AdaptiveGainTuner(**kwargs)
    for step, error in enumerate(errors):
        got = fast.update(error)
        want = ref_tuner_update(ref, error)
        assert repr(got) == repr(want), f"{name}: update {step}"
        assert _tuner_state(fast) == _tuner_state(ref), f"{name}: update {step}"


def test_tuner_cases_reach_both_events():
    events = set()
    for kwargs, errors in TUNER_CASES.values():
        tuner = AdaptiveGainTuner(**kwargs)
        for error in errors:
            tuner.update(error)
            events.add(tuner.last_event)
    assert events == {None, "oscillation", "sluggish"}


# -- one decision ------------------------------------------------------------------

BOUNDS = AllocationBounds(
    minimum=ResourceVector(cpu=0.1, memory=0.25, disk_bw=5, net_bw=5),
    maximum=ResourceVector(cpu=2.0, memory=4.0, disk_bw=60, net_bw=60),
)
START = ResourceVector(cpu=0.6, memory=1.0, disk_bw=15, net_bw=15)


def sat(cpu=0.3, memory=0.3, disk_bw=0.3, net_bw=0.3) -> SaturationSnapshot:
    return SaturationSnapshot(
        {"cpu": cpu, "memory": memory, "disk_bw": disk_bw, "net_bw": net_bw}
    )


HOT = sat(cpu=0.98, memory=0.5, disk_bw=0.9, net_bw=0.2)
IDLE = sat(cpu=0.1, memory=0.2, disk_bw=0.05, net_bw=0.3)
BUSY = sat(cpu=0.7, memory=0.7, disk_bw=0.7, net_bw=0.7)  # nothing to reclaim
THRESHOLDS = sat(cpu=0.85, memory=0.6, disk_bw=0.85, net_bw=0.6)


def steps(errors, saturation, feedforward=0.0):
    return [(e, saturation, feedforward) for e in errors]


DECIDE_CASES = {
    # name: (MultiResourceController kwargs, starting allocation, steps)
    "edge-errors": (
        {}, START,
        steps([0.0, -0.0, NAN, -1.0, 3.0, 0.1, -0.1, INF, -INF, 7.0, -7.0,
               0.10000000000000002, -0.10000000000000002], HOT)
        + steps([-1.0, 0.5, -0.5], IDLE),
    ),
    "feedforward-in-deadband": (
        {}, START,
        steps([0.05, 0.0, -0.05, 0.1], IDLE, feedforward=0.3)
        + steps([0.0], HOT, feedforward=INF)
        + steps([-0.5], IDLE, feedforward=NAN)
        + steps([-0.8], IDLE, feedforward=0.2),
    ),
    "both-rails": (
        dict(gains=PIDGains(kp=6.0, ki=0.2, kd=0.5)), START,
        steps([3.0, 3.0, 2.0], HOT) + steps([-1.0, -1.0, -0.9], IDLE),
    ),
    "integral-clamp": (
        dict(gains=PIDGains(kp=0.05, ki=1.0, kd=0.0)), START,
        steps([0.3] * 6, HOT) + steps([-0.4] * 8, IDLE),
    ),
    "adaptive-off": (
        dict(adaptive=False), START,
        steps([0.5, -0.5] * 4, HOT) + steps([0.6] * 5, HOT),
    ),
    "cpu-only": (
        dict(dimensions=("cpu",)), START,
        steps([0.8, 0.8], HOT) + steps([-0.6] * 3, IDLE)
        + steps([0.8], sat(cpu=0.2, disk_bw=0.95)),
    ),
    "ceiling": (
        {}, BOUNDS.maximum.replace(disk_bw=55.0),
        steps([1.0, 1.0, 1.0], HOT),
    ),
    "floor": (
        {}, BOUNDS.minimum.replace(cpu=0.11),
        steps([-1.0, -1.0, -1.0], IDLE),
    ),
    "thresholds": (
        {}, START,
        steps([0.5, 0.5], THRESHOLDS) + steps([-0.5, -0.5], THRESHOLDS)
        + steps([0.5], sat(0.85, 0.85, 0.85, 0.85))
        + steps([-0.5], sat(0.6, 0.6, 0.6, 0.6)),
    ),
    "oscillation": (
        {}, START, steps([0.6, -0.6] * 6, HOT),
    ),
    "sluggish": (
        {}, START, steps([0.4] * 5, HOT) + steps([-0.4] * 5, IDLE),
    ),
    "no-dimensions": (
        {}, START,
        steps([-0.5, -0.5], BUSY)
        + [(0.5, HOT, 0.0)],
    ),
    "zero-gains": (
        dict(gains=PIDGains(kp=0.0)), START, steps([0.5, -0.5], HOT),
    ),
}


def _controller(kwargs) -> MultiResourceController:
    kwargs = dict(kwargs)
    gains = kwargs.pop("gains", PIDGains(kp=0.8, ki=0.08, kd=0.1))
    return MultiResourceController(gains, BOUNDS, **kwargs)


def _decide_run(name):
    """Per call: the fast decision and the reference decision."""
    kwargs, start, calls = DECIDE_CASES[name]
    fast = _controller(kwargs)
    ref = _twin(fast)
    current = start
    seen = []
    for step, (error, saturation, ff) in enumerate(calls):
        got = fast.decide(error, saturation, current, 10.0, feedforward=ff)
        want = ref_decide(ref, error, saturation, current, 10.0, feedforward=ff)
        assert _decision(got) == _decision(want), f"{name}: call {step}"
        assert _state(fast) == _state(ref), f"{name}: call {step}"
        seen.append((got, fast.pid.last_terms, fast.tuner.last_event))
        current = got.new_allocation
    return seen


@pytest.mark.parametrize("name", sorted(DECIDE_CASES))
def test_decide_matches_reference(name):
    _decide_run(name)


def test_decide_cases_reach_the_paths_they_name():
    seen = {name: _decide_run(name) for name in DECIDE_CASES}
    every = [d for run in seen.values() for d, _, _ in run]
    assert {d.reason for d in every} == {
        "", "deadband", "zero-output", "no-dimensions", "clamped",
    }
    assert {d.action for d in every} == {"grow", "reclaim", "hold"}
    assert any(d.clamped and d.action != "hold" for d in every)
    rails = {d.output for d, _, _ in seen["both-rails"]}
    assert {1.0, -0.5} <= rails
    integral = {terms[1] for _, terms, _ in seen["integral-clamp"]}
    assert {1.0, -1.0} <= integral  # the integral term sits on the clamp
    events = {event for run in seen.values() for _, _, event in run}
    assert {"oscillation", "sluggish"} <= events
    ceiling = [d for d, _, _ in seen["ceiling"]]
    assert ceiling[0].clamped and ceiling[-1].reason == "clamped"
    floor = [d for d, _, _ in seen["floor"]]
    assert floor[0].clamped and floor[-1].reason == "clamped"
    assert [d.reason for d, _, _ in seen["feedforward-in-deadband"][:3]] == [""] * 3


# -- the loop on a platform --------------------------------------------------------

DEMANDS = ServiceDemands(
    cpu_seconds=0.008, disk_mb=0.1, net_mb=0.05, base_latency=0.01
)
REPLICA = ResourceVector(cpu=0.6, memory=1, disk_bw=15, net_bw=15)


def _platform(*, telemetry=False):
    """Three managed services with feedforward on; an overload step; a
    scrape blackout of one service's usage series, so its saturation
    falls back to the live pods while its latency stays fresh; a blackout
    of another's latency long enough for safe mode; and a fourth service
    deployed at 255 s while scrape rounds are dropped, so its first
    periods find none of its series and it binds them after the others."""
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=5, telemetry=telemetry),
        scheduler="converged",
        policy="adaptive",
        policy_kwargs={"feedforward": True},
    )
    for i in range(2):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=600.0,
                               phase=i * 150.0),
            demands=DEMANDS,
            allocation=REPLICA,
            plo=LatencyPLO(0.06, window=30),
        )
    platform.deploy_microservice(
        "surge",
        trace=StepTrace([(0.0, 50.0), (200.0, 260.0), (400.0, 40.0)]),
        demands=DEMANDS,
        allocation=REPLICA,
        plo=LatencyPLO(0.05, window=30),
    )
    faults = platform.metrics_faults
    at = platform.engine.schedule_at
    at(250.0, lambda: faults.drop_scrapes(250.0, 40.0))
    at(255.0, lambda: platform.deploy_microservice(
        "late",
        trace=DiurnalTrace(base=50, amplitude=30, period=600.0),
        demands=DEMANDS,
        allocation=REPLICA,
        plo=LatencyPLO(0.06, window=30),
    ))
    at(300.0, lambda: faults.blackout("app/svc-1/usage", 300.0, 90.0))
    at(420.0, lambda: faults.blackout("app/surge/latency", 420.0, 60.0))
    return platform


def _run_shadowed(platform):
    """Run ``platform`` for 600 s with every decision, saturation snapshot,
    freshness verdict and (with telemetry on) provenance signal checked
    against the reference; return what the run went through."""
    manager = platform.policy.manager
    collector = platform.collector
    seen = {"decided": 0, "fallbacks": 0, "stale": 0, "provenance": 0}
    actions = set()
    verdicts = set()
    bound_at = {}

    def shadowed(fast):
        ref = _twin(fast)
        real = fast.decide

        def decide(error, saturation, current, dt, *, feedforward=0.0):
            got = real(error, saturation, current, dt, feedforward=feedforward)
            want = ref_decide(
                ref, error, saturation, current, dt, feedforward=feedforward
            )
            assert _decision(got) == _decision(want), f"t={platform.engine.now}"
            assert _state(fast) == _state(ref), f"t={platform.engine.now}"
            seen["decided"] += 1
            actions.add((got.action, feedforward > 0))
            return got

        def reset():
            # Leaving safe mode resets the controller: reset the twin too.
            real_reset()
            ref.reset()

        real_reset = fast.reset
        fast.reset = reset
        return decide

    shadowed_entries = set()

    def shadow_new_entries():
        for name, entry in manager._entries.items():
            if name not in shadowed_entries:
                shadowed_entries.add(name)
                entry.controller.decide = shadowed(entry.controller)

    real_saturation = manager._saturation

    def saturation(entry, usage, alloc):
        got = real_saturation(entry, usage, alloc)
        want, fell_back = ref_saturation(manager, entry.app)
        assert repr(got.fractions) == repr(want.fractions), (
            f"{entry.app.name} at t={platform.engine.now}"
        )
        seen["fallbacks"] += fell_back
        return got

    real_step = manager._step

    def step(entry, now):
        shadow_new_entries()
        app = entry.app
        status = app.plo.evaluate(collector, app.name, now)
        fresh = ref_signal_fresh(manager, app, status.error, now)
        outcome = real_step(entry, now)
        verdict = outcome[0]
        verdicts.add(verdict)
        stale = verdict in ("stale-skip", "safe-mode-hold", "safe-mode-entry")
        assert stale == (not fresh), f"{app.name} at t={now}: {verdict}"
        seen["stale"] += stale
        if entry.bound is not None:
            bound_at.setdefault(app.name, now)
            signal, usage, alloc = entry.bound
            names = entry.series
            assert signal is collector.stored(names.signal)
            assert all(map(operator.is_, usage, map(collector.stored, names.usage)))
            assert all(map(operator.is_, alloc, map(collector.stored, names.alloc)))
        return outcome

    real_emit = manager._emit_provenance

    def emit(entry, now, sp, verdict, decision, replicas):
        metric = entry.app.plo.metric_name(entry.app.name)
        want = ref_latest_sample(collector, metric)
        real_emit(entry, now, sp, verdict, decision, replicas)
        record = platform.telemetry.trace.provenance[-1]
        assert (record.app, record.time) == (entry.app.name, now)
        if want is None:
            assert (record.inputs, record.signal_age, record.scrape_span_id) == (
                {metric: None}, None, None
            )
        else:
            signal_time, signal = want
            assert repr(record.inputs) == repr({metric: signal})
            assert repr(record.signal_age) == repr(now - signal_time)
            assert record.scrape_span_id == collector.scrape_span_at(signal_time)
        seen["provenance"] += 1

    manager._saturation = saturation
    manager._step = step
    manager._emit_provenance = emit
    platform.run(600.0)
    return seen, actions, verdicts, bound_at


def test_closed_loop_matches_reference():
    _check_closed_loop(telemetry=False)


def test_closed_loop_with_telemetry_matches_reference():
    _check_closed_loop(telemetry=True)


def _check_closed_loop(*, telemetry):
    platform = _platform(telemetry=telemetry)
    seen, actions, verdicts, bound_at = _run_shadowed(platform)
    # 60 periods of three services, and 35 of the late one from 260 s.
    steps = 3 * 60 + 35
    assert seen["decided"] + seen["stale"] == steps
    # Stale: every service at 280 s (the dropped rounds), the late one at
    # 260 and 270 s too, and the surge at 450-470 s, entering safe mode.
    assert seen["stale"] == 4 + 2 + 3
    assert seen["fallbacks"] >= 3
    assert seen["provenance"] == (steps if telemetry else 0)
    assert {("grow", True), ("reclaim", False), ("hold", False)} <= actions
    assert {"stale-skip", "safe-mode-entry", "actuated"} <= verdicts
    # The late service finds no series of its own until the scrape round
    # at 290 s, so it binds them 280 s after the others did.
    assert bound_at == {"svc-0": 10.0, "svc-1": 10.0, "surge": 10.0, "late": 290.0}


def test_control_step_call_budget():
    # Profiled calls per ControlLoopManager._step on the fleet smoke shape
    # (six adaptive services on three nodes for 300 s, 180 steps): 110.1
    # measured (Python 3.11); the budget is that plus ~25%. Before the
    # period read bound series and tested a resize's fit once it read
    # 144.8, and before it ran on locals 265.0. The run is seeded, so the
    # count is the same on every machine.
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=3),
        config=PlatformConfig(seed=3),
        scheduler="converged",
        policy="adaptive",
    )
    for i in range(6):
        platform.deploy_microservice(
            f"svc-{i}",
            trace=DiurnalTrace(base=60, amplitude=40, period=3600.0,
                               phase=i * 120.0),
            demands=DEMANDS,
            allocation=REPLICA,
            plo=LatencyPLO(0.06, window=30),
        )
    manager = platform.policy.manager
    profile = cProfile.Profile()
    steps = 0

    def profiled(step, entry, now):
        nonlocal steps
        steps += 1
        return profile.runcall(step, entry, now)

    manager._step = functools.partial(profiled, manager._step)
    platform.run(300.0)
    assert steps == 180
    # Each runcall also records the profiler's own disable() call.
    per_step = (pstats.Stats(profile).total_calls - steps) / steps
    assert per_step < 138.0, f"{per_step:.1f} profiled calls per control step"
