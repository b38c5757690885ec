"""Pinned arrival streams: contiguous 1 s windows over 600 s.

Each stream below is drawn the way a microservice consumes it — one
``window(i, i + 1)`` call per simulated second — and its
:func:`~repro.workloads.traceio.event_fingerprint` is baked in. The
digests were recorded before arrival thinning was vectorized, so any
change to the RNG draw order, the bound estimate, the sort-before-accept
order or the acceptance test breaks at least one of them.
"""

import numpy as np
import pytest

from repro.workloads.arrivals import (
    CorrelatedSurge,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
)
from repro.workloads.traceio import event_fingerprint
from repro.workloads.traces import (
    BurstyTrace,
    DiurnalTrace,
    ReplayTrace,
)

HORIZON = 600

SAMPLES = [
    (0.0, 12.0),
    (37.5, 55.0),
    (120.25, 20.0),
    (250.0, 80.0),
    (251.0, 80.0),
    (333.3, 4.0),
    (400.0, 0.0),
    (460.0, 45.0),
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _diurnal() -> DiurnalTrace:
    return DiurnalTrace(base=40.0, amplitude=30.0, period=300.0, phase=20.37)


def _replay() -> ReplayTrace:
    return ReplayTrace(SAMPLES, time_scale=1.1, rate_scale=1.5)


def _surged(lag):
    surge = CorrelatedSurge(
        _rng(1203),
        horizon=HORIZON,
        mean_interval=90.0,
        duration=30.0,
        factor=3.5,
        max_lag=12.0,
    )
    return surge.attach(_diurnal(), name="web", lag=lag)


STREAMS = {
    "poisson-diurnal": lambda: PoissonArrivals(_diurnal(), _rng(1201)),
    "poisson-replay": lambda: PoissonArrivals(_replay(), _rng(1202)),
    "poisson-surged": lambda: PoissonArrivals(_surged(None), _rng(1204)),
    "poisson-surged-lagged": lambda: PoissonArrivals(_surged(7.5), _rng(1205)),
    "poisson-bursty-bound": lambda: PoissonArrivals(
        BurstyTrace(
            20.0,
            burst_rate=1 / 100.0,
            burst_duration=30.0,
            horizon=HORIZON,
            rng=_rng(8),
        ),
        _rng(1207),
        rate_bound=70.0,
    ),
    "mmpp-replay": lambda: MMPPArrivals(_replay(), _rng(1209), horizon=500.0),
}

#: event_fingerprint of the concatenated windows, recorded before
#: vectorization.
DIGESTS = {
    "mmpp-replay": (
        "2770ae0eb4c2ce9a6c51d7159add579a33ba6c54851766fd9e3280e04ed63986"
    ),
    "poisson-bursty-bound": (
        "b529ea2f5e631638ab6f4502973246bfa85c6bb8f437cda85a93fa22e532fa37"
    ),
    "poisson-diurnal": (
        "fd7d30b44393c63a4ed965b680c2209cd662854306f1760c97e25a524b491397"
    ),
    "poisson-replay": (
        "01339295c7f1d7c69c50d01217562a07f3922769e3f32b2b56d9aa4d4581ef82"
    ),
    "poisson-surged": (
        "a5daf851fa817d2c31c01ac12bf04d2e6553ef2ba3259e7dcfd817150328125d"
    ),
    "poisson-surged-lagged": (
        "f6df6b4597162e3dcb64c1b4b6397a780bdb032927bb76f20aaaf6727da7e95b"
    ),
}

#: (times, sizes) digests of a marked Poisson stream over the replay trace.
MARKED_DIGESTS = (
    "d9de129754a62c21906e38535d08369bf58d327396c0eab2d3776615ebb02bcc",
    "2691b26a6831d7aef888574c19fea0b2843eb2242915d40c12c16779553b0a8b",
)


def _windows(process) -> np.ndarray:
    return np.concatenate(
        [process.window(float(i), float(i + 1)) for i in range(HORIZON)]
    )


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_window_stream_is_pinned(name):
    assert event_fingerprint(_windows(STREAMS[name]())) == DIGESTS[name]


def test_marked_stream_is_pinned():
    marked = MarkedArrivals(
        PoissonArrivals(_replay(), _rng(1210)), ParetoSizes(alpha=1.6), _rng(1211)
    )
    pairs = [marked.window_marked(float(i), float(i + 1)) for i in range(HORIZON)]
    times = np.concatenate([t for t, _s in pairs])
    sizes = np.concatenate([s for _t, s in pairs])
    assert len(times) == len(sizes)
    assert (event_fingerprint(times), event_fingerprint(sizes)) == MARKED_DIGESTS
