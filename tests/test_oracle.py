import math

import numpy as np
import pytest

from apvsim import (
    Isotope,
    IsotopeChain,
    NonCatStateError,
    NonInformativePointError,
    ProjectedPattern,
    StateVector,
    build_chain,
    build_common_generator,
    build_generator,
    build_state,
    cfi_parity,
    common_noise_check,
    parity_fringe,
    project_deviation,
    protocol_table,
    qfi,
    ramsey_evolve,
)
from conftest import make_yb_chain, random_chain
from test_protocols import single_shot_cfg


def one_qubit_chain():
    return build_chain(
        [Isotope(A=86, Z=38, n_atoms=1), Isotope(A=88, Z=38, n_atoms=0)],
        ref_index=1,
        sin2_theta_w=0.2325,
    )


def projected(h_perp, signs=None):
    if signs is None:
        signs = tuple(0 if x == 0 else (1 if x > 0 else -1) for x in h_perp)
    return ProjectedPattern(
        beta=0.0,
        h_perp=tuple(h_perp),
        signs=tuple(signs),
        weighted_l1=sum(abs(x) for x in h_perp),
        weighted_l2sq=sum(x * x for x in h_perp),
    )


def small_yb(counts=(1, 1, 1, 1)):
    chain = make_yb_chain(counts=counts)
    h = (-1.0, -1.0, 1.0, 1.0)
    return chain, h, project_deviation(chain, h)


def brute_force_moments(state, gen):
    """Enumeration oracle: accumulate <G> and <G^2> bit by bit."""
    m = state.num_qubits
    mean = 0.0
    mean_sq = 0.0
    for b in range(1 << m):
        lam = 0.0
        for j, g in enumerate(gen.per_qubit_coeff):
            lam += g * (1.0 if ((b >> j) & 1) == 0 else -1.0)
        p = abs(state.amplitudes[b]) ** 2
        mean += p * lam
        mean_sq += p * lam * lam
    return mean, mean_sq


class TestGeneratorConstruction:
    def test_single_qubit_diagonal(self):
        chain = one_qubit_chain()
        gen = build_generator(chain, projected((1.0, 0.0)), tau=1.0, omega=1.0 / math.pi)
        assert gen.diag == pytest.approx([1.0, -1.0])

    def test_four_qubit_extreme_eigenvalue(self):
        chain = make_yb_chain(counts=(1, 1, 1, 1))
        gen = build_generator(chain, projected((-1.0, -1.0, 1.0, 1.0)), tau=1.0, omega=1.0 / math.pi)
        assert len(gen.diag) == 16
        assert np.max(gen.diag) == pytest.approx(4.0)
        # the maximizing basis state puts the negative-coefficient qubits bit-down
        assert gen.diag[0b0011] == pytest.approx(4.0)

    def test_diag_matches_bitwise_enumeration(self):
        chain, h, proj = small_yb((1, 2, 1, 1))
        gen = build_generator(chain, proj, tau=1.3, omega=0.7)
        for b in range(len(gen.diag)):
            lam = sum(
                g * (1.0 if ((b >> j) & 1) == 0 else -1.0)
                for j, g in enumerate(gen.per_qubit_coeff)
            )
            assert gen.diag[b] == pytest.approx(lam, rel=1e-14, abs=1e-14)

    def test_dfs_pair_common_noise_cancels_on_both_branches(self):
        chain = one_qubit_chain()
        proj = projected((1.0, 0.0))
        common = build_common_generator(chain, tau=1.0, omega=1.0, dfs=True)
        state = build_state("dfs_cat", chain, proj)
        idx = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        # 4-state register: both populated branches sit at eigenvalue zero
        assert len(idx) == 2
        assert common.diag[idx] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_qubit_cap(self):
        chain = make_yb_chain(counts=(4, 4, 4, 4))
        with pytest.raises(ValueError, match="cap"):
            build_generator(chain, projected((1, -1, 1, -1)), 1.0, 1.0, cap=14)


class TestStateConstruction:
    def test_cross_cat_two_amplitudes(self):
        chain = build_chain(
            [Isotope(A=86, Z=38, n_atoms=1), Isotope(A=88, Z=38, n_atoms=1)],
            ref_index=1, sin2_theta_w=0.2325,
        )
        state = build_state("cross_cat", chain, projected((1.0, -1.0)))
        nz = np.flatnonzero(np.abs(state.amplitudes) > 0)
        # sign pattern (+, -) populates |01> style pair: indices 2 and its flip 1
        assert list(nz) == [1, 2]
        assert np.abs(state.amplitudes[nz]) == pytest.approx([2**-0.5, 2**-0.5])

    def test_product_state_is_uniform(self):
        chain, _, _ = small_yb((1, 1, 1, 1))
        state = build_state("product_x", chain)
        assert state.amplitudes == pytest.approx(np.full(16, 0.25 + 0j))

    def test_minimal_paired_cat(self):
        chain = one_qubit_chain()
        phase = 0.9
        state = build_state("dfs_cat", chain, projected((1.0, 0.0)), phase=phase)
        # branch |s, -s> = |up, down> is index 0b10; the swapped branch 0b01
        assert state.amplitudes[0b10] == pytest.approx(2**-0.5)
        assert state.amplitudes[0b01] == pytest.approx(np.exp(1j * phase) / math.sqrt(2))

    def test_ghz_per_isotope_block_structure(self):
        chain, _, _ = small_yb((2, 1, 1, 0))
        state = build_state("ghz_per_isotope", chain, phase=0.3)
        nz = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        assert len(nz) == 8  # three populated isotopes -> 2^3 branch combos
        assert np.abs(state.amplitudes[nz]) == pytest.approx(np.full(8, 2**-1.5))

    def test_norm_is_one(self):
        chain, _, proj = small_yb((2, 2, 1, 1))
        for kind in ("product_x", "ghz_per_isotope", "cross_cat"):
            state = build_state(kind, chain, proj, phase=0.7)
            assert state.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        chain, _, proj = small_yb()
        with pytest.raises(ValueError, match="unknown state kind"):
            build_state("w_state", chain, proj)

    def test_cap_enforced(self):
        chain = make_yb_chain(counts=(4, 4, 4, 4))
        with pytest.raises(ValueError, match="cap"):
            build_state("product_x", chain)

    def test_states_are_read_only(self):
        chain, _, proj = small_yb()
        state = build_state("cross_cat", chain, proj)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestQfi:
    def test_eigenstate_has_zero_variance(self):
        chain, _, proj = small_yb()
        gen = build_generator(chain, proj, 1.0, 1.0)
        amp = np.zeros(16, dtype=complex)
        amp[5] = 1.0
        assert qfi(StateVector(amplitudes=amp, labels=gen.labels), gen) == pytest.approx(0.0, abs=1e-12)

    def test_cross_cat_reaches_squared_separation(self):
        chain, h, proj = small_yb((2, 1, 2, 1))
        cfg = single_shot_cfg(omega=0.9, tau=1.1)
        gen = build_generator(chain, proj, cfg.tau, cfg.omega)
        state = build_state("cross_cat", chain, proj)
        sep = protocol_table(chain, h, cfg, ("cross_cat_ideal",))[0].eigsep
        assert qfi(state, gen) == pytest.approx(sep**2, rel=1e-12)

    def test_product_state_variance_adds_per_qubit(self):
        chain, _, proj = small_yb((1, 2, 2, 1))
        gen = build_generator(chain, proj, 1.4, 0.8)
        state = build_state("product_x", chain)
        independent = 4.0 * sum(g * g for g in gen.per_qubit_coeff)
        assert qfi(state, gen) == pytest.approx(independent, rel=1e-12)
        mean, mean_sq = brute_force_moments(state, gen)
        assert qfi(state, gen) == pytest.approx(4 * (mean_sq - mean**2), rel=1e-10, abs=1e-12)

    def test_register_mismatch_rejected(self):
        chain, _, proj = small_yb()
        other = make_yb_chain(counts=(2, 1, 1, 1))
        gen = build_generator(other, project_deviation(other, (-1, -1, 1, 1)), 1.0, 1.0)
        state = build_state("product_x", chain)
        with pytest.raises(ValueError, match="register"):
            qfi(state, gen)

    def test_variance_bound_over_random_states(self):
        chain, _, proj = small_yb((2, 2, 2, 2))
        gen = build_generator(chain, proj, 1.0, 1.0)
        bound = float(np.max(gen.diag) - np.min(gen.diag)) ** 2
        rng = np.random.default_rng(3)
        for _ in range(1000):
            amp = rng.normal(size=256) + 1j * rng.normal(size=256)
            amp /= np.linalg.norm(amp)
            state = StateVector(amplitudes=amp, labels=gen.labels)
            assert qfi(state, gen) <= bound * (1 + 1e-12)
        # equality holds for the equal superposition of the extremal eigenvectors
        amp = np.zeros(256, dtype=complex)
        amp[int(np.argmax(gen.diag))] = 2**-0.5
        amp[int(np.argmin(gen.diag))] = 2**-0.5
        state = StateVector(amplitudes=amp, labels=gen.labels)
        assert qfi(state, gen) == pytest.approx(bound, rel=1e-12)


class TestEvolution:
    def test_zero_angle_is_identity(self):
        chain, _, proj = small_yb()
        gen = build_generator(chain, proj, 1.0, 1.0)
        state = build_state("cross_cat", chain, proj, phase=0.2)
        evolved = ramsey_evolve(state, gen, 0.0)
        assert evolved.amplitudes == pytest.approx(state.amplitudes)

    def test_single_qubit_phase_accumulation(self):
        # coefficient g = omega*tau/2 turns theta=1 into relative phase omega*tau
        chain = one_qubit_chain()
        omega_tau = 0.62
        gen = build_common_generator(chain, tau=omega_tau / (2 * math.pi), omega=1.0)
        assert gen.per_qubit_coeff[0] == pytest.approx(omega_tau / 2)
        state = build_state("product_x", chain)
        evolved = ramsey_evolve(state, gen, 1.0)
        rel_phase = np.angle(evolved.amplitudes[1] / evolved.amplitudes[0])
        assert rel_phase == pytest.approx(omega_tau, rel=1e-12)

    def test_cross_cat_branch_phase_advances_by_separation(self):
        chain, _, proj = small_yb((1, 1, 1, 1))
        gen = build_generator(chain, proj, 1.0, 0.3)
        state = build_state("cross_cat", chain, proj)
        nz = np.flatnonzero(np.abs(state.amplitudes) > 0)
        sep = abs(float(gen.diag[nz[0]] - gen.diag[nz[1]]))
        theta = 0.123
        evolved = ramsey_evolve(state, gen, theta)
        before = np.angle(state.amplitudes[nz[0]] / state.amplitudes[nz[1]])
        after = np.angle(evolved.amplitudes[nz[0]] / evolved.amplitudes[nz[1]])
        assert math.remainder(after - before - (-theta * (gen.diag[nz[0]] - gen.diag[nz[1]])), 2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert theta * sep == pytest.approx(abs(after - before))

    def test_norm_preserved(self):
        chain, _, proj = small_yb((2, 1, 1, 1))
        gen = build_generator(chain, proj, 1.0, 1.0)
        state = build_state("ghz_per_isotope", chain, phase=1.1)
        for theta in (0.1, 2.0, 17.3):
            assert ramsey_evolve(state, gen, theta).norm_sq == pytest.approx(1.0, abs=1e-12)


class TestParityReadout:
    def setup_method(self):
        self.chain, h, self.proj = small_yb((1, 1, 1, 1))
        self.cfg = single_shot_cfg(omega=0.8, tau=1.2)
        self.gen = build_generator(self.chain, self.proj, self.cfg.tau, self.cfg.omega)
        self.state = build_state("cross_cat", self.chain, self.proj)
        self.sep = protocol_table(self.chain, h, self.cfg, ("cross_cat_ideal",))[0].eigsep

    def test_full_probability_at_origin(self):
        assert parity_fringe(self.state, self.gen, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_probability_at_quarter_period(self):
        theta = math.pi / (2 * self.sep)
        assert parity_fringe(self.state, self.gen, theta) == pytest.approx(0.5, rel=1e-10)

    def test_cosine_shape_with_cat_phase(self):
        phase = 0.77
        state = build_state("cross_cat", self.chain, self.proj, phase=phase)
        for theta in (0.0, 0.02, 0.11):
            expected = (1 + math.cos(theta * self.sep + phase)) / 2
            assert parity_fringe(state, self.gen, theta) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_slope_against_finite_difference_and_closed_form(self):
        theta = math.pi / (2 * self.sep)
        step = 1e-7 * 2 * math.pi / self.sep
        fd = (
            parity_fringe(self.state, self.gen, theta + step)
            - parity_fringe(self.state, self.gen, theta - step)
        ) / (2 * step)
        assert abs(fd) == pytest.approx(self.sep / 2, rel=1e-6)
        analytic = -(self.sep / 2) * math.sin(theta * self.sep)
        assert fd == pytest.approx(analytic, rel=1e-6)

    def test_multibranch_states_are_rejected(self):
        state = build_state("ghz_per_isotope", self.chain)
        with pytest.raises(NonCatStateError):
            parity_fringe(state, self.gen, 0.1)
        with pytest.raises(NonCatStateError):
            parity_fringe(build_state("product_x", self.chain), self.gen, 0.1)

    def test_cfi_saturates_qfi_at_mid_fringe(self):
        theta = math.pi / (2 * self.sep)
        f_q = qfi(self.state, self.gen)
        assert cfi_parity(self.state, self.gen, theta) == pytest.approx(f_q, rel=1e-6)

    def test_cfi_never_exceeds_qfi_on_a_scan(self):
        f_q = qfi(self.state, self.gen)
        period = 2 * math.pi / self.sep
        for k in range(100):
            theta = (k + 0.5) / 100 * period
            assert cfi_parity(self.state, self.gen, theta) <= f_q * (1 + 1e-6)

    def test_extremum_is_flagged(self):
        with pytest.raises(NonInformativePointError):
            cfi_parity(self.state, self.gen, 0.0)


class TestCommonNoise:
    def test_paired_cat_is_immune_for_any_phase(self):
        chain, _, proj = small_yb((1, 1, 1, 0))
        state = build_state("dfs_cat", chain, proj, phase=0.4)
        common = build_common_generator(chain, 1.0, 1.0, dfs=True)
        rng = np.random.default_rng(5)
        for phase in rng.uniform(-20, 20, size=25):
            assert common_noise_check(state, common, float(phase)) == pytest.approx(1.0, abs=1e-12)

    def test_unpaired_cat_dephases_as_a_cosine(self):
        # unbalanced allocation so the branch signs do not happen to cancel
        chain, _, proj = small_yb((2, 1, 1, 1))
        state = build_state("cross_cat", chain, proj)
        common = build_common_generator(chain, 1.0, 1.0)
        nz = np.flatnonzero(np.abs(state.amplitudes) > 0)
        sep_common = abs(float(common.diag[nz[0]] - common.diag[nz[1]]))
        assert sep_common > 0
        for phase in (0.3, 1.1, 2.9):
            expected = abs(math.cos(phase * sep_common / 2))
            assert common_noise_check(state, common, phase) == pytest.approx(expected, abs=1e-12)

    def test_zero_phase_is_trivially_unity(self):
        chain, _, proj = small_yb((2, 1, 1, 1))
        state = build_state("ghz_per_isotope", chain)
        common = build_common_generator(chain, 1.0, 1.0)
        assert common_noise_check(state, common, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_paired_signal_separation_doubles(self):
        chain, _, proj = small_yb((1, 1, 1, 1))
        plain = build_generator(chain, proj, 1.0, 1.0)
        paired = build_generator(chain, proj, 1.0, 1.0, dfs=True)
        sep_plain = float(np.max(plain.diag) - np.min(plain.diag))
        sep_paired = float(np.max(paired.diag) - np.min(paired.diag))
        assert sep_paired == pytest.approx(2 * sep_plain, rel=1e-13)
