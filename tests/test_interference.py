import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvsim import (
    AmplitudePair,
    amplitude_ratio,
    interference_rate,
    pv_light_shift,
    ramsey_phase,
)

finite = st.floats(-1e6, 1e6, allow_nan=False)


class TestInterferenceRate:
    def test_no_weak_amplitude(self):
        out = interference_rate(AmplitudePair(a_pc=3.0 + 4.0j, a_pnc=0.0))
        assert out["rate"] == pytest.approx(25.0)
        assert out["reversal_odd"] == 0.0

    def test_small_real_amplitude_sets_the_asymmetry_scale(self):
        out = interference_rate(AmplitudePair(a_pc=1.0, a_pnc=2e-5))
        assert out["reversal_odd"] / abs(1.0) ** 2 == pytest.approx(4e-5, rel=1e-12)

    def test_quadrature_amplitudes_do_not_interfere(self):
        out = interference_rate(AmplitudePair(a_pc=1j, a_pnc=1.0))
        assert out["reversal_odd"] == pytest.approx(0.0, abs=1e-15)
        assert out["rate"] == pytest.approx(2.0)

    @settings(max_examples=200, deadline=None)
    @given(ar=finite, ai=finite, br=finite, bi=finite)
    @example(ar=-916609.0, ai=1.0, br=905561.0, bi=0.0)
    def test_expansion_is_exact(self, ar, ai, br, bi):
        pair = AmplitudePair(a_pc=complex(ar, ai), a_pnc=complex(br, bi))
        out = interference_rate(pair)
        squares = abs(pair.a_pc) ** 2 + abs(pair.a_pnc) ** 2
        expanded = abs(pair.a_pc) ** 2 + out["reversal_odd"] + abs(pair.a_pnc) ** 2
        # |a+b|^2 rounds on the scale of |a|^2 + |b|^2, not of the cancelled rate
        scale = max(out["rate"], expanded, squares, 1e-300)
        assert abs(out["rate"] - expanded) <= 1e-12 * scale

    def test_pnc_sign_flip_parity(self):
        pair = AmplitudePair(a_pc=2.0 + 1.0j, a_pnc=3e-4 - 1e-4j)
        flipped = AmplitudePair(a_pc=pair.a_pc, a_pnc=-pair.a_pnc)
        assert interference_rate(flipped)["reversal_odd"] == pytest.approx(
            -interference_rate(pair)["reversal_odd"], rel=1e-14
        )

    def test_magnitude_ratio_diagnostic(self):
        assert AmplitudePair(a_pc=2.0, a_pnc=1e-4).magnitude_ratio == pytest.approx(5e-5)


class TestAmplitudeRatio:
    def test_measured_yb_scale(self):
        # zeta/beta = -24 mV/cm = -2.4 V/m against E = 1 kV/cm = 1e5 V/m
        assert amplitude_ratio(-2.4, 1e5) == pytest.approx(-2.4e-5, rel=1e-15)

    def test_zero_weak_amplitude(self):
        assert amplitude_ratio(0.0, 1e5) == 0.0

    def test_linear_in_inverse_field(self):
        assert amplitude_ratio(-2.4, 2e5) == pytest.approx(amplitude_ratio(-2.4, 1e5) / 2)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            amplitude_ratio(-2.4, 0.0)


class TestLightShift:
    def test_no_weak_rabi_no_pv_shift(self):
        out = pv_light_shift(AmplitudePair(a_pc=1e6, a_pnc=0.0), detuning=1e7)
        assert out["pv_shift"] == 0.0

    def test_hand_evaluated_example(self):
        out = pv_light_shift(AmplitudePair(a_pc=1e6, a_pnc=20.0), detuning=2 * math.pi * 1e6)
        # 2 * 1e6 * 20 / (4 * 2pi * 1e6) = 5/pi
        assert out["pv_shift"] == pytest.approx(5.0 / math.pi, rel=1e-12)
        assert out["pv_shift"] == pytest.approx(1.5915494309189535, rel=1e-12)

    def test_pv_shift_is_odd_total_nearly_even(self):
        pair = AmplitudePair(a_pc=1e6, a_pnc=20.0)
        flipped = AmplitudePair(a_pc=1e6, a_pnc=-20.0)
        up = pv_light_shift(pair, detuning=1e7)
        down = pv_light_shift(flipped, detuning=1e7)
        assert down["pv_shift"] == pytest.approx(-up["pv_shift"], rel=1e-14)
        # the even remainder differs only at second order in the small amplitude
        assert down["total_shift"] - down["pv_shift"] == pytest.approx(
            up["total_shift"] - up["pv_shift"], rel=1e-14
        )

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="detuning"):
            pv_light_shift(AmplitudePair(a_pc=1.0, a_pnc=0.1), detuning=0.0)


class TestRamseyPhase:
    def test_zero_shift(self):
        assert ramsey_phase(0.0, 10.0) == 0.0

    def test_product(self):
        assert ramsey_phase(1.5915494309189535, 1.0) == pytest.approx(1.5915494309189535)

    def test_zero_time(self):
        assert ramsey_phase(123.0, 0.0) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(shift=finite, tau=st.floats(0, 1e3, allow_nan=False), k=st.floats(0.1, 10))
    def test_bilinear(self, shift, tau, k):
        assert ramsey_phase(k * shift, tau) == pytest.approx(k * ramsey_phase(shift, tau), rel=1e-12, abs=1e-300)
        assert ramsey_phase(shift, k * tau) == pytest.approx(k * ramsey_phase(shift, tau), rel=1e-12, abs=1e-300)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ramsey_phase(1.0, -1.0)
