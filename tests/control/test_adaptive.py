"""Unit tests for the adaptive gain tuner."""

import pytest

from repro.control.adaptive import SCALE_BOUNDS, SLUGGISH_PERIODS, AdaptiveGainTuner


def test_initial_scale_is_one():
    assert AdaptiveGainTuner().scale == 1.0


def test_oscillation_shrinks_gains():
    tuner = AdaptiveGainTuner(deadband=0.05)
    for e in [0.5, -0.5, 0.5, -0.5, 0.5]:
        tuner.update(e)
    assert tuner.scale < 1.0
    assert tuner.oscillation_events >= 1


def test_sluggishness_grows_gains():
    tuner = AdaptiveGainTuner(deadband=0.05)
    for _ in range(SLUGGISH_PERIODS):
        tuner.update(0.5)
    assert tuner.scale > 1.0
    assert tuner.sluggish_events == 1


def test_persistent_negative_error_also_sluggish():
    tuner = AdaptiveGainTuner(deadband=0.05)
    for _ in range(SLUGGISH_PERIODS):
        tuner.update(-0.5)
    assert tuner.scale > 1.0


def test_deadband_errors_cause_no_adaptation():
    tuner = AdaptiveGainTuner(deadband=0.1)
    for _ in range(20):
        tuner.update(0.05)
    assert tuner.scale == pytest.approx(1.0, abs=0.01)
    assert tuner.oscillation_events == 0
    assert tuner.sluggish_events == 0


def test_scale_bounded():
    lo, hi = SCALE_BOUNDS
    tuner = AdaptiveGainTuner()
    for _ in range(100):
        tuner.update(1.0)
    assert tuner.scale == hi

    tuner2 = AdaptiveGainTuner()
    for i in range(100):
        tuner2.update(0.5 if i % 2 == 0 else -0.5)
    assert tuner2.scale == lo


def test_relaxes_toward_one():
    tuner = AdaptiveGainTuner()
    for _ in range(SLUGGISH_PERIODS):
        tuner.update(1.0)  # sluggish → grow
    grown = tuner.scale
    assert grown > 1.0
    # Now converged: small errors relax the scale back down.
    for _ in range(20):
        tuner.update(0.0)
    assert 1.0 <= tuner.scale < grown


def test_window_cleared_after_adaptation():
    tuner = AdaptiveGainTuner()
    for _ in range(SLUGGISH_PERIODS):
        tuner.update(1.0)
    assert tuner.sluggish_events == 1
    # One more big error isn't a full run in the fresh window.
    tuner.update(1.0)
    assert tuner.sluggish_events == 1


def test_reset():
    tuner = AdaptiveGainTuner()
    for _ in range(SLUGGISH_PERIODS):
        tuner.update(1.0)
    tuner.reset()
    assert tuner.scale == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window": 1},
        {"bounds": (0.0, 2.0)},
        {"bounds": (0.5, 0.9)},
        {"relax": 2.0},
    ],
)
def test_invalid_params(kwargs):
    # Window, bounds and relax are constants, not options.
    with pytest.raises(TypeError):
        AdaptiveGainTuner(**kwargs)
