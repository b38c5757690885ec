"""Unit tests for the adaptive gain tuner."""

import pytest

from repro.control.adaptive import AdaptiveGainTuner


def test_initial_scale_is_one():
    assert AdaptiveGainTuner().scale == 1.0


def test_oscillation_shrinks_gains():
    tuner = AdaptiveGainTuner(window=8, oscillation_flips=3, deadband=0.05)
    for e in [0.5, -0.5, 0.5, -0.5, 0.5]:
        tuner.update(e)
    assert tuner.scale < 1.0
    assert tuner.oscillation_events >= 1


def test_sluggishness_grows_gains():
    tuner = AdaptiveGainTuner(sluggish_periods=4, deadband=0.05)
    for _ in range(4):
        tuner.update(0.5)
    assert tuner.scale > 1.0
    assert tuner.sluggish_events == 1


def test_persistent_negative_error_also_sluggish():
    tuner = AdaptiveGainTuner(sluggish_periods=4, deadband=0.05)
    for _ in range(4):
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
    tuner = AdaptiveGainTuner(bounds=(0.5, 2.0), sluggish_periods=2)
    for _ in range(100):
        tuner.update(1.0)
    assert tuner.scale <= 2.0

    tuner2 = AdaptiveGainTuner(bounds=(0.5, 2.0), oscillation_flips=2, window=4)
    for i in range(100):
        tuner2.update(0.5 if i % 2 == 0 else -0.5)
    assert tuner2.scale >= 0.5


def test_relaxes_toward_one():
    tuner = AdaptiveGainTuner(relax=0.5, sluggish_periods=2)
    tuner.update(1.0)
    tuner.update(1.0)  # sluggish → grow
    grown = tuner.scale
    assert grown > 1.0
    # Now converged: small errors relax the scale back down.
    for _ in range(20):
        tuner.update(0.0)
    assert 1.0 <= tuner.scale < grown


def test_window_cleared_after_adaptation():
    tuner = AdaptiveGainTuner(sluggish_periods=3)
    for _ in range(3):
        tuner.update(1.0)
    assert tuner.sluggish_events == 1
    # One more big error isn't 3-in-a-row in the fresh window.
    tuner.update(1.0)
    assert tuner.sluggish_events == 1


def test_reset():
    tuner = AdaptiveGainTuner(sluggish_periods=2)
    tuner.update(1.0)
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
    with pytest.raises(ValueError):
        AdaptiveGainTuner(**kwargs)
