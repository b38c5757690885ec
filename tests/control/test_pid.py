"""Unit + property tests for the PID controller."""

import pytest
from hypothesis import given, strategies as st

from repro.control.pid import (
    DERIVATIVE_ALPHA,
    INTEGRAL_LIMIT,
    OUTPUT_LIMITS,
    PIDController,
    PIDGains,
)

LO, HI = OUTPUT_LIMITS


class TestGains:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PIDGains(kp=-1)


class TestProportional:
    def test_pure_p_output(self):
        pid = PIDController(PIDGains(kp=0.25))
        assert pid.update(1.0, dt=1.0) == pytest.approx(0.25)
        assert pid.update(-2.0, dt=1.0) == pytest.approx(-0.5)

    def test_zero_error_zero_output(self):
        pid = PIDController(PIDGains(kp=1, ki=0, kd=0))
        assert pid.update(0.0, dt=1.0) == 0.0


class TestIntegral:
    def test_integral_accumulates(self):
        pid = PIDController(PIDGains(kp=0, ki=0.1))
        pid.update(1.0, dt=1.0)
        out = pid.update(1.0, dt=1.0)
        assert out == pytest.approx(0.2)

    def test_integral_limit_clamps(self):
        pid = PIDController(PIDGains(kp=0, ki=1.0))
        for _ in range(100):
            pid.update(1.0, dt=1.0)
        assert pid.last_terms[1] == pytest.approx(INTEGRAL_LIMIT)

    def test_conditional_antiwindup(self):
        pid = PIDController(PIDGains(kp=1.0, ki=0.5))
        for _ in range(50):
            pid.update(2.0, dt=1.0)  # saturated high the whole time
        # Error flips: recovery should be fast because integral didn't wind.
        out = pid.update(-1.0, dt=1.0)
        assert out < 0.5

    def test_reset_clears_state(self):
        pid = PIDController(PIDGains(kp=1, ki=1))
        pid.update(1.0, dt=1.0)
        pid.reset()
        assert pid.last_terms == (0.0, 0.0, 0.0)
        assert pid.last_output == 0.0
        fresh = PIDController(PIDGains(kp=1, ki=1))
        assert pid.update(0.25, dt=1.0) == fresh.update(0.25, dt=1.0)


class TestDerivative:
    def test_derivative_opposes_rising_error(self):
        pid_d = PIDController(PIDGains(kp=0, kd=1.0))
        pid_d.update(0.0, dt=1.0)
        out = pid_d.update(1.0, dt=1.0)
        # de/dt = 1, of which the filter lets DERIVATIVE_ALPHA through.
        assert out == pytest.approx(DERIVATIVE_ALPHA)

    def test_filter_smooths_derivative(self):
        filt = PIDController(PIDGains(kp=0, kd=1.0))
        filt.update(0.0, dt=1.0)
        raw = (0.5 - 0.0) / 1.0  # the unfiltered de/dt of the same step
        assert 0 < filt.update(0.5, dt=1.0) < raw


class TestClampingAndValidation:
    def test_output_clamped(self):
        pid = PIDController(PIDGains(kp=100))
        assert pid.update(10.0, dt=1.0) == HI
        assert pid.update(-10.0, dt=1.0) == LO

    def test_invalid_limits(self):
        # The output clamp is the constant OUTPUT_LIMITS.
        with pytest.raises(TypeError):
            PIDController(PIDGains(kp=1), output_limits=(1, 1))

    def test_invalid_dt(self):
        pid = PIDController(PIDGains(kp=1))
        with pytest.raises(ValueError):
            pid.update(1.0, dt=0)

    def test_invalid_alpha(self):
        # The filter factor is the constant DERIVATIVE_ALPHA.
        with pytest.raises(TypeError):
            PIDController(PIDGains(kp=1), derivative_alpha=0)

    def test_gain_scale_applies(self):
        pid = PIDController(PIDGains(kp=1))
        pid.gain_scale = 2.0
        assert pid.update(0.25, dt=1.0) == pytest.approx(0.5)

    def test_nonpositive_gain_scale_rejected(self):
        for scale in (0.0, -1.0):
            pid = PIDController(PIDGains(kp=1, ki=0.5))
            pid.gain_scale = scale
            with pytest.raises(ValueError, match="scale factor must be positive"):
                pid.update(1.0, dt=1.0)
            assert pid.updates == 0  # rejected before any state moved


class TestClosedLoop:
    def test_converges_on_first_order_plant(self):
        """PI control of a simple lag plant reaches the setpoint."""
        pid = PIDController(PIDGains(kp=0.8, ki=0.3))
        state = 0.0
        setpoint = 1.0
        for _ in range(200):
            error = setpoint - state
            u = pid.update(error, dt=0.1)
            state += 0.5 * u * 0.1  # plant: integrator with gain 0.5
        assert state == pytest.approx(setpoint, abs=0.05)


class TestProperties:
    errors = st.floats(min_value=-100, max_value=100, allow_nan=False)

    @given(st.lists(errors, min_size=1, max_size=50))
    def test_output_always_within_limits(self, error_seq):
        pid = PIDController(PIDGains(kp=2, ki=0.5, kd=0.3))
        for e in error_seq:
            out = pid.update(e, dt=1.0)
            assert LO <= out <= HI

    @given(st.lists(errors, min_size=1, max_size=50))
    def test_integral_term_bounded(self, error_seq):
        pid = PIDController(PIDGains(kp=1, ki=0.5))
        for e in error_seq:
            pid.update(e, dt=1.0)
            assert abs(pid.last_terms[1]) <= INTEGRAL_LIMIT + 1e-9

    @given(errors)
    def test_pure_p_is_stateless(self, e):
        a = PIDController(PIDGains(kp=0.7))
        b = PIDController(PIDGains(kp=0.7))
        b.update(42.0, dt=1.0)  # history must not matter for P-only output
        assert a.update(e, dt=1.0) == pytest.approx(b.update(e, dt=1.0))
