"""Trace and arrival constructors reject NaN and infinite parameters.

A range check such as ``base < 0`` is False for NaN, so before these
checks a NaN parameter passed construction and surfaced mid-run: a NaN
diurnal ``base`` read 0 req/s through ``rate`` and NaN through ``rates``,
and under the Poisson model killed the run inside ``rng.poisson``. An
infinite ``horizon`` hung the constructors that pre-draw a schedule over
it. Each constructor, and ``CorrelatedSurge.attach`` for its overrides,
now raises a ``ValueError`` naming the parameter.
"""

import math

import numpy as np
import pytest

from repro.workloads.arrivals import (
    CorrelatedSurge,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
)
from repro.workloads.traces import (
    BurstyTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    NoisyTrace,
    OUTrace,
    RampTrace,
    ScaledTrace,
)


def _rng() -> np.random.Generator:
    return np.random.default_rng(0)


#: (class name, builder taking the keyword arguments to override, the
#: parameters each case sets to NaN or infinity).
BUILDERS = [
    ("ConstantTrace", lambda **kw: ConstantTrace(kw.get("value", 5.0)), ["value"]),
    (
        "RampTrace",
        lambda **kw: RampTrace(
            kw.get("start_time", 0.0),
            kw.get("end_time", 10.0),
            kw.get("start_rate", 1.0),
            kw.get("end_rate", 2.0),
        ),
        ["start_time", "end_time", "start_rate", "end_rate"],
    ),
    (
        "DiurnalTrace",
        lambda **kw: DiurnalTrace(
            kw.pop("base", 50.0), kw.pop("amplitude", 10.0), **kw
        ),
        ["base", "amplitude", "period", "phase"],
    ),
    (
        "FlashCrowdTrace",
        lambda **kw: FlashCrowdTrace(
            kw.pop("start_time", 10.0), kw.pop("peak_rate", 100.0), **kw
        ),
        ["start_time", "peak_rate", "rise", "decay"],
    ),
    (
        "BurstyTrace",
        lambda **kw: BurstyTrace(kw.pop("base", 20.0), rng=_rng(), **kw),
        ["base", "burst_factor", "burst_rate", "burst_duration", "horizon"],
    ),
    (
        "NoisyTrace",
        lambda **kw: NoisyTrace(ConstantTrace(5.0), rng=_rng(), **kw),
        ["rel_std", "bucket", "horizon"],
    ),
    (
        "OUTrace",
        lambda **kw: OUTrace(kw.pop("mean", 40.0), rng=_rng(), **kw),
        ["mean", "relaxation", "volatility", "horizon"],
    ),
    (
        "ScaledTrace",
        lambda **kw: ScaledTrace(ConstantTrace(5.0), kw.get("factor", 2.0)),
        ["factor"],
    ),
    (
        "MMPPArrivals",
        lambda **kw: MMPPArrivals(ConstantTrace(5.0), _rng(), **kw),
        ["horizon"],
    ),
    (
        "CorrelatedSurge",
        lambda **kw: CorrelatedSurge(_rng(), **{"horizon": 600.0, **kw}),
        ["horizon", "mean_interval", "duration", "factor", "max_lag"],
    ),
    (
        "CorrelatedSurge.attach",
        lambda **kw: CorrelatedSurge(_rng(), horizon=600.0).attach(
            ConstantTrace(5.0), **kw
        ),
        ["factor", "lag"],
    ),
    ("ParetoSizes", lambda **kw: ParetoSizes(**kw), ["alpha"]),
    (
        "PoissonArrivals",
        lambda **kw: PoissonArrivals(ConstantTrace(5.0), _rng(), **kw),
        ["rate_bound"],
    ),
]

CASES = [
    pytest.param(build, param, value, id=f"{cls}-{param}-{label}")
    for cls, build, params in BUILDERS
    for param in params
    for label, value in (("nan", math.nan), ("inf", math.inf))
]


@pytest.mark.parametrize("build, param, value", CASES)
def test_non_finite_parameter_is_rejected(build, param, value):
    with pytest.raises(ValueError, match=f"{param} must be finite"):
        build(**{param: value})


def test_every_builder_accepts_its_defaults():
    # So each rejection above is the parameter's, not the builder's.
    for _cls, build, _params in BUILDERS:
        build()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mmpp_factors_must_be_finite(value):
    with pytest.raises(ValueError, match="factors must be finite"):
        MMPPArrivals(ConstantTrace(5.0), _rng(), factors=(1.0, value))
