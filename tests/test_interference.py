import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvsim import InterferenceSpec

finite = st.floats(-1e6, 1e6, allow_nan=False)


def rabi(omega_pc, omega_pnc, detuning=1.0, tau=1.0):
    """The report of the Rabi group alone."""
    return InterferenceSpec(omega_pc=omega_pc, omega_pnc=omega_pnc, detuning=detuning).report(tau)


def ratio(zeta_over_beta, e_field):
    return InterferenceSpec(zeta_over_beta=zeta_over_beta, e_field=e_field).report(1.0)["amplitude_ratio"]


class TestInterferenceRate:
    def test_no_weak_amplitude(self):
        out = rabi(5.0, 0.0)["rate_terms"]
        assert out["rate"] == pytest.approx(25.0)
        assert out["reversal_odd"] == 0.0

    def test_small_real_amplitude_sets_the_asymmetry_scale(self):
        out = rabi(1.0, 2e-5)["rate_terms"]
        assert out["reversal_odd"] / abs(1.0) ** 2 == pytest.approx(4e-5, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a=finite, b=finite)
    @example(a=-916609.0, b=905561.0)
    def test_expansion_is_exact(self, a, b):
        out = rabi(a, b)["rate_terms"]
        squares = a**2 + b**2
        expanded = a**2 + out["reversal_odd"] + b**2
        # (a+b)^2 rounds on the scale of a^2 + b^2, not of the cancelled rate
        scale = max(out["rate"], expanded, squares, 1e-300)
        assert abs(out["rate"] - expanded) <= 1e-12 * scale

    def test_pnc_sign_flip_parity(self):
        up, down = rabi(2.0, 3e-4)["rate_terms"], rabi(2.0, -3e-4)["rate_terms"]
        assert down["reversal_odd"] == pytest.approx(-up["reversal_odd"], rel=1e-14)


class TestAmplitudeRatio:
    def test_measured_yb_scale(self):
        # zeta/beta = -24 mV/cm = -2.4 V/m against E = 1 kV/cm = 1e5 V/m
        assert ratio(-2.4, 1e5) == pytest.approx(-2.4e-5, rel=1e-15)

    def test_zero_weak_amplitude(self):
        assert ratio(0.0, 1e5) == 0.0

    def test_linear_in_inverse_field(self):
        assert ratio(-2.4, 2e5) == pytest.approx(ratio(-2.4, 1e5) / 2)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="e_field: must be nonzero"):
            InterferenceSpec(zeta_over_beta=-2.4, e_field=0.0)


class TestLightShift:
    def test_no_weak_rabi_no_pv_shift(self):
        assert rabi(1e6, 0.0, detuning=1e7)["pv_shift"] == 0.0

    def test_hand_evaluated_example(self):
        out = rabi(1e6, 20.0, detuning=2 * math.pi * 1e6)
        # 2 * 1e6 * 20 / (4 * 2pi * 1e6) = 5/pi
        assert out["pv_shift"] == pytest.approx(5.0 / math.pi, rel=1e-12)
        assert out["pv_shift"] == pytest.approx(1.5915494309189535, rel=1e-12)

    def test_pv_shift_is_odd_total_nearly_even(self):
        up = rabi(1e6, 20.0, detuning=1e7)
        down = rabi(1e6, -20.0, detuning=1e7)
        assert down["pv_shift"] == pytest.approx(-up["pv_shift"], rel=1e-14)
        # the even remainder differs only at second order in the small amplitude
        assert down["total_shift"] - down["pv_shift"] == pytest.approx(
            up["total_shift"] - up["pv_shift"], rel=1e-14
        )

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="detuning: must be nonzero"):
            InterferenceSpec(omega_pc=1.0, omega_pnc=0.1, detuning=0.0)


class TestRamseyPhase:
    def test_zero_shift(self):
        assert rabi(1e6, 0.0, tau=10.0)["ramsey_phase"] == 0.0

    def test_product(self):
        out = rabi(1e6, 20.0, detuning=2 * math.pi * 1e6, tau=1.0)
        assert out["ramsey_phase"] == pytest.approx(1.5915494309189535)

    def test_zero_time(self):
        assert rabi(1e6, 20.0, tau=0.0)["ramsey_phase"] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(pnc=finite, tau=st.floats(0, 1e3, allow_nan=False), k=st.floats(0.1, 10))
    def test_bilinear(self, pnc, tau, k):
        phase = rabi(1e6, pnc, detuning=1e7, tau=tau)["ramsey_phase"]
        assert rabi(1e6, k * pnc, detuning=1e7, tau=tau)["ramsey_phase"] == pytest.approx(
            k * phase, rel=1e-12, abs=1e-300)
        out = rabi(1e6, pnc, detuning=1e7, tau=k * tau)
        assert out["ramsey_phase"] == pytest.approx(k * phase, rel=1e-12, abs=1e-300)
        assert out["ramsey_phase"] == out["pv_shift"] * (k * tau)
