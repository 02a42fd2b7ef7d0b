import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apvsim
from apvsim import (
    ERROR_SLUGS,
    AllocationError,
    ProtocolConfig,
    UnidentifiableThetaError,
    ZeroSignalError,
    allocate_atoms,
    cat_contrast,
    combine_classical_fit,
    project_deviation,
    protocol_grid,
    protocol_table,
    reallocate,
    squeezing_factor,
)
from conftest import make_yb_chain, random_chain
from test_chain import synthetic_chain

H_SPLIT = (-1.0, -1.0, 1.0, 1.0)


def single_shot_cfg(**kw):
    base = dict(omega=1.0, tau=1.0, c0=1.0, f1=1.0, f2=1.0, p_surv=1.0,
                t2=math.inf, squeezing_db=0.0, rep_rate=1.0, t_avg=1.0, c_sql=1.0)
    base.update(kw)
    return ProtocolConfig(**base)


def row(protocol, counts=(1, 1, 1, 1), cfg=None):
    """One protocol's row on the even-Yb chain with the split-sign pattern."""
    chain = make_yb_chain(counts=counts)
    return protocol_table(chain, H_SPLIT, cfg or single_shot_cfg(), (protocol,))[0]


class TestSqueezingFactor:
    def test_zero_gain(self):
        assert squeezing_factor(0.0) == 1.0

    def test_four_db(self):
        assert squeezing_factor(4.0) == pytest.approx(0.6309573444801932, rel=1e-12)

    def test_twenty_db(self):
        assert squeezing_factor(20.0) == pytest.approx(0.1, rel=1e-14)

    def test_anti_squeezing(self):
        assert squeezing_factor(-6.0) == pytest.approx(1.9952623149688795, rel=1e-12)


class TestContrastModels:
    def test_lossless_reduces_to_base_contrast(self):
        cfg = single_shot_cfg(c0=0.87)
        assert cat_contrast(cfg, 50, cfg.t2) == 0.87

    def test_single_gate_factor(self):
        cfg = single_shot_cfg(f1=0.9999)
        # a linear chain at N=1: one single-qubit gate, no entangling gate
        assert cat_contrast(cfg, 1, cfg.t2) == pytest.approx(0.9999, rel=1e-15)

    def test_thousand_atom_cat_against_high_precision_product(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cfg = single_shot_cfg(f1=0.9999, f2=0.999)
        got = cat_contrast(cfg, 1000, cfg.t2)
        oracle = float(mp.mpf("0.9999") ** 1000 * mp.mpf("0.999") ** 999)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.33303595109484500641, rel=1e-12)

    def test_decoherence_factor(self):
        cfg = single_shot_cfg(t2=10.0, tau=2.0)
        assert cat_contrast(cfg, 5, cfg.t2) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_fewer_than_one_atom_raises(self):
        cfg = single_shot_cfg()
        for n_atoms in (0, np.array([[3, 0], [1, 2]])):
            with pytest.raises(ValueError, match="need at least one atom, got 0"):
                cat_contrast(cfg, n_atoms, cfg.t2)

    @pytest.mark.parametrize("t2,t2_once", [(math.nan, math.inf), (math.inf, math.nan), (0.0, math.inf), (1.0, -1.0)])
    def test_coherence_times_that_are_not_positive_raise(self, t2, t2_once):
        cfg = single_shot_cfg()
        for n_atoms in (4, np.array([4, 10**8])):  # the scalar form and the grid form
            with pytest.raises(ValueError, match="coherence times must be positive"):
                cat_contrast(cfg, n_atoms, t2, t2_once)

    def test_dfs_gate_product_only_when_lossless(self):
        # "split" budget: one reversal-pair cat over the 10 allocated atoms
        cfg = single_shot_cfg(f1=0.9999, f2=0.999, dfs_budget="split")
        contrast = row("dfs_cat", (3, 3, 2, 2), cfg).contrast_used
        assert contrast == pytest.approx(0.9999**10 * 0.999**9, rel=1e-13)

    def test_dfs_residual_term(self):
        cfg = single_shot_cfg(t2_diff=1.0, tau=1.0, dfs_budget="split")
        contrast = row("dfs_cat", (2, 2, 2, 1), cfg).contrast_used
        assert contrast == pytest.approx(0.36787944117144233, rel=1e-14)

    def test_dfs_residual_term_is_atom_number_independent(self):
        cfg = single_shot_cfg(t2_diff=3.0)
        assert row("dfs_cat", (1, 1, 1, 1), cfg).contrast_used == pytest.approx(
            row("dfs_cat", (16, 16, 16, 16), cfg).contrast_used, rel=1e-14
        )

    def test_invalid_atom_count(self):
        with pytest.raises(ValueError):
            cat_contrast(single_shot_cfg(), 0, math.inf)


class TestPerIsotopeUncertainties:
    def test_sql_single_atom_single_shot(self):
        assert row("sql").per_isotope[0] == pytest.approx(0.15915494309189535, rel=1e-13)

    def test_sql_square_root_scaling(self):
        dws = row("sql", (100, 400, 100, 400)).per_isotope
        assert dws[0] == pytest.approx(dws[1] * 2, rel=1e-13)

    def test_sql_contrast_is_inverse_linear(self):
        assert row("sql", (9, 9, 9, 9), single_shot_cfg(c_sql=0.5)).per_isotope[0] == pytest.approx(
            2 * row("sql", (9, 9, 9, 9)).per_isotope[0], rel=1e-13
        )

    def test_sql_zero_atoms_rejected(self):
        # an isotope without atoms is left out of the fit, not evaluated
        res = row("sql", (0, 4, 4, 4))
        assert res.per_isotope[0] == math.inf
        assert res.error is None and math.isfinite(res.delta_theta)

    def test_sql_requires_at_least_one_repetition(self):
        rows = protocol_table(make_yb_chain(), H_SPLIT, single_shot_cfg(t_avg=0.5))
        assert {r.error for r in rows} == {"invalid_config"}

    def test_squeezed_matches_sql_at_zero_gain(self):
        assert row("squeezed", (25, 25, 25, 25)).per_isotope == row("sql", (25, 25, 25, 25)).per_isotope

    def test_squeezed_four_db(self):
        cfg = single_shot_cfg(squeezing_db=4.0)
        squeezed = row("squeezed", (25, 25, 25, 25), cfg).per_isotope
        sql = row("sql", (25, 25, 25, 25), cfg).per_isotope
        assert squeezed == pytest.approx([0.6309573444801932 * x for x in sql], rel=1e-13)

    def test_one_atom_cat_is_one_atom(self):
        assert row("same_isotope_cat", cfg=single_shot_cfg(c0=0.91)).per_isotope == pytest.approx(
            row("sql", cfg=single_shot_cfg(c_sql=0.91)).per_isotope, rel=1e-13
        )

    def test_cat_inverse_linear_scaling_when_ideal(self):
        dws = row("same_isotope_cat", (64, 8, 64, 8)).per_isotope
        assert dws[0] == pytest.approx(dws[1] / 8, rel=1e-13)

    def test_cat_hundred_atoms_against_high_precision_product(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cfg = single_shot_cfg(f1=0.9999, f2=0.999)
        contrast = float(mp.mpf("0.9999") ** 100 * mp.mpf("0.999") ** 99)
        expected = 1.0 / (2 * math.pi * contrast * 100)
        got = row("same_isotope_cat", (100, 100, 100, 100), cfg).per_isotope[0]
        assert got == pytest.approx(expected, rel=1e-12)


class TestClassicalFit:
    def test_flat_pattern_closed_form(self):
        # equal uncertainties, q = 1 everywhere, split-sign pattern: the
        # 2x2 solve collapses to delta omega / 2
        chain = synthetic_chain((1.0, 1.0, 1.0, 1.0), (1, 1, 1, 1))
        dw = 0.37
        got = combine_classical_fit(chain, (-1.0, -1.0, 1.0, 1.0), (dw,) * 4, single_shot_cfg())
        assert got == pytest.approx(dw / 2, rel=1e-13)

    def test_matches_numerical_matrix_inversion(self, yb_chain):
        cfg = single_shot_cfg(omega=0.7)
        h = (0.3, -1.2, 0.8, 0.1)
        dws = (0.01, 0.02, 0.015, 0.04)
        got = combine_classical_fit(yb_chain, h, dws, cfg)
        w = np.array([1 / d**2 for d in dws])
        design = np.stack([np.array(yb_chain.q), cfg.omega * np.array(h)], axis=1)
        fisher = design.T @ (w[:, None] * design)
        oracle = math.sqrt(np.linalg.inv(fisher)[1, 1])
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_pattern_parallel_to_q_is_unidentifiable(self, yb_chain):
        with pytest.raises(UnidentifiableThetaError):
            combine_classical_fit(yb_chain, yb_chain.q, (0.1, 0.1, 0.1, 0.1), single_shot_cfg())

    def test_needs_two_measured_isotopes(self, yb_chain):
        with pytest.raises(ValueError, match=">= 2"):
            combine_classical_fit(
                yb_chain, (1, -1, 1, -1), (0.1, math.inf, math.inf, math.inf), single_shot_cfg()
            )

    def test_sql_fit_equals_projected_closed_form(self):
        # marginalizing the common scale with per-atom-homogeneous noise is
        # algebraically the weighted projection; checked on random chains
        rng = np.random.default_rng(11)
        for _ in range(100):
            chain, h = random_chain(rng, max_total=64)
            cfg = single_shot_cfg(omega=float(rng.uniform(0.2, 3.0)))
            proj = project_deviation(chain, h)
            l2sq = math.fsum(n * x * x for n, x in zip(chain.n_atoms, proj.h_perp))
            if l2sq < 1e-12:
                continue
            fitted = protocol_table(chain, h, cfg, ("sql",))[0].delta_theta
            closed = 1.0 / (2 * math.pi * cfg.tau * cfg.omega * math.sqrt(l2sq))
            assert fitted == pytest.approx(closed, rel=1e-10)


class TestCatSensitivities:
    def test_matched_cat_single_shot(self):
        chain = synthetic_chain((1.0, 1.0, 1.0, 1.0), (1, 1, 1, 1))
        proj = project_deviation(chain, H_SPLIT)
        assert proj.weighted_l1 == 4.0
        res = protocol_table(chain, H_SPLIT, single_shot_cfg(), ("cross_cat_ideal",))[0]
        assert res.delta_theta == pytest.approx(1.0 / (8 * math.pi), rel=1e-13)
        assert res.delta_theta == pytest.approx(0.039788735772973836, rel=1e-12)
        assert res.eigsep == pytest.approx(8 * math.pi, rel=1e-13)

    def test_doubling_every_allocation_halves_delta(self, yb_chain, ideal_cfg):
        small = reallocate(yb_chain, (10, 10, 10, 10))
        big = reallocate(yb_chain, (20, 20, 20, 20))
        d_small = protocol_table(small, H_SPLIT, ideal_cfg, ("cross_cat_ideal",))[0].delta_theta
        d_big = protocol_table(big, H_SPLIT, ideal_cfg, ("cross_cat_ideal",))[0].delta_theta
        assert d_big == pytest.approx(d_small / 2, rel=1e-13)

    def test_noisy_variant_divides_by_global_contrast(self, yb_chain, benchmark_cfg):
        ideal, noisy = protocol_table(
            yb_chain, H_SPLIT, benchmark_cfg, ("cross_cat_ideal", "cross_cat_noisy")
        )
        contrast = cat_contrast(benchmark_cfg, yb_chain.total_atoms, benchmark_cfg.t2)
        assert noisy.delta_theta == pytest.approx(ideal.delta_theta / contrast, rel=1e-13)
        assert noisy.contrast_used == pytest.approx(contrast, rel=1e-14)

    def test_parallel_pattern_has_no_signal(self, yb_chain, ideal_cfg):
        res = protocol_table(yb_chain, yb_chain.q, ideal_cfg, ("cross_cat_ideal",))[0]
        assert res.error == "no_signal" and math.isnan(res.delta_theta)

    def test_dfs_budget_conventions(self, yb_chain):
        # single_shot_cfg is lossless, so every contrast is exactly 1
        dfs = ("dfs_cat",)
        per_channel = protocol_table(yb_chain, H_SPLIT, single_shot_cfg(dfs_budget="per_channel"), dfs)[0]
        split = protocol_table(yb_chain, H_SPLIT, single_shot_cfg(dfs_budget="split"), dfs)[0]
        assert per_channel.contrast_used == split.contrast_used == 1.0
        # doubling the budget doubles the separation and halves delta theta
        assert per_channel.eigsep == pytest.approx(2 * split.eigsep, rel=1e-13)
        assert per_channel.delta_theta == pytest.approx(split.delta_theta / 2, rel=1e-13)
        plain = protocol_table(yb_chain, H_SPLIT, single_shot_cfg(), ("cross_cat_ideal",))[0]
        assert split.delta_theta == pytest.approx(plain.delta_theta, rel=1e-13)


class TestProtocolTable:
    def test_sql_row_is_fit_of_per_isotope_values(self, yb_chain, benchmark_cfg):
        res = protocol_table(yb_chain, H_SPLIT, benchmark_cfg, ("sql",))[0]
        # delta omega = 1 / (2 pi C tau sqrt(N_A R T_avg))
        reps = benchmark_cfg.rep_rate * benchmark_cfg.t_avg
        dws = tuple(1.0 / (2 * math.pi * math.sqrt(n * reps)) for n in yb_chain.n_atoms)
        assert res.per_isotope == pytest.approx(dws, rel=1e-14)
        assert res.delta_theta == pytest.approx(
            combine_classical_fit(yb_chain, H_SPLIT, dws, benchmark_cfg), rel=1e-14
        )

    def test_ideal_matched_cat_is_never_beaten(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            chain, h = random_chain(rng, max_total=40)
            cfg = single_shot_cfg(omega=float(rng.uniform(0.2, 3.0)))
            proj = project_deviation(chain, h)
            if proj.weighted_l1 < 1e-9:
                continue
            rows = protocol_table(chain, h, cfg)
            best = {r.protocol: r.delta_theta for r in rows if r.error is None}
            for name, value in best.items():
                if name in ("cross_cat_ideal", "dfs_cat"):
                    continue
                assert best["cross_cat_ideal"] <= value * (1 + 1e-12), name

    def test_rank_of_noisy_cross_and_same_isotope_flips_with_size(self, benchmark_cfg):
        h = (-1.0, -1.0, 1.0, 1.0)
        deltas = {}
        for total in (100, 4000):
            chain = make_yb_chain(counts=(total // 4,) * 4)
            rows = protocol_table(chain, h, benchmark_cfg, ("same_isotope_cat", "cross_cat_noisy"))
            deltas[total] = {r.protocol: r.delta_theta for r in rows}
        assert deltas[100]["cross_cat_noisy"] < deltas[100]["same_isotope_cat"]
        assert deltas[4000]["cross_cat_noisy"] > deltas[4000]["same_isotope_cat"]

    def test_degenerate_pattern_marks_rows_without_aborting(self, yb_chain, benchmark_cfg):
        rows = protocol_table(yb_chain, yb_chain.q, benchmark_cfg)
        assert [r.protocol for r in rows] == list(
            ("sql", "squeezed", "same_isotope_cat", "cross_cat_ideal", "cross_cat_noisy", "dfs_cat")
        )
        slugs = {r.protocol: r.error for r in rows}
        assert slugs["sql"] == "singular_fit"
        assert slugs["cross_cat_ideal"] == "no_signal"
        assert all(math.isnan(r.delta_theta) for r in rows)

    def test_unknown_protocol_is_a_caller_error(self, yb_chain, benchmark_cfg):
        with pytest.raises(ValueError, match="unknown protocols"):
            protocol_table(yb_chain, (1, -1, 1, -1), benchmark_cfg, ("sql", "bogus"))
        with pytest.raises(ValueError, match=r"unknown protocols \['bogus'\]; choose from"):
            protocol_grid(yb_chain, (1, -1, 1, -1), benchmark_cfg, np.array([yb_chain.n_atoms]), ("sql", "bogus"))
        with pytest.raises(ValueError, match="all isotopes have zero atoms"):  # the projection, also at the call
            protocol_grid(yb_chain, (1, -1, 1, -1), benchmark_cfg, np.array([yb_chain.n_atoms, (0, 0, 0, 0)]))

    def test_scaling_exponents(self, benchmark_cfg):
        # log-log slope over five octaves of total atom number
        totals = [2**k for k in range(4, 13)]
        h = (-1.0, -1.0, 1.0, 1.0)
        deltas = {"sql": [], "squeezed": [], "cross_cat_ideal": []}
        for total in totals:
            chain = make_yb_chain(counts=(total // 4,) * 4)
            for row in protocol_table(chain, h, benchmark_cfg, tuple(deltas)):
                deltas[row.protocol].append(row.delta_theta)
        logs = np.log(totals)
        for name, expected in (("sql", -0.5), ("squeezed", -0.5), ("cross_cat_ideal", -1.0)):
            slope = np.polyfit(logs, np.log(deltas[name]), 1)[0]
            assert slope == pytest.approx(expected, abs=0.005)

    def test_averaging_time_scaling_is_exact(self, yb_chain, benchmark_cfg):
        from dataclasses import replace

        h = (-1.0, -1.0, 1.0, 1.0)
        base = protocol_table(yb_chain, h, benchmark_cfg)
        longer = protocol_table(yb_chain, h, replace(benchmark_cfg, t_avg=9 * benchmark_cfg.t_avg))
        for a, b in zip(base, longer):
            assert b.delta_theta == pytest.approx(a.delta_theta / 3, rel=1e-12)

    @pytest.mark.parametrize("field", ["c0", "f1", "f2", "p_surv", "t2"])
    def test_monotone_in_hardware_quality(self, yb_chain, field):
        from dataclasses import replace

        h = (-1.0, -1.0, 1.0, 1.0)
        lo_val, hi_val = (0.9, 0.99) if field != "t2" else (5.0, 50.0)
        base = ProtocolConfig(
            omega=1.0, tau=1.0, c0=0.95, f1=0.999, f2=0.995, p_surv=0.99,
            t2=20.0, squeezing_db=4.0, rep_rate=1.0, t_avg=3600.0, c_sql=1.0,
        )
        worse = protocol_table(yb_chain, h, replace(base, **{field: lo_val}))
        better = protocol_table(yb_chain, h, replace(base, **{field: hi_val}))
        for w, b in zip(worse, better):
            assert b.delta_theta <= w.delta_theta * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 10**8), min_size=4, max_size=4),
    f1=st.floats(0.9, 1.0),
    f2=st.floats(0.9, 1.0),
    p_surv=st.floats(0.9, 1.0),
)
def test_every_row_is_finite_or_a_slug(counts, f1, f2, p_surv):
    # large cats drive the contrast product below the smallest float; very
    # unequal cat contrasts leave the fit with one informative isotope
    cfg = ProtocolConfig(omega=1.0, tau=1.0, f1=f1, f2=f2, p_surv=p_surv, rep_rate=1.0,
                         t_avg=3600.0)
    for res in protocol_table(make_yb_chain(counts=tuple(counts)), H_SPLIT, cfg):
        if res.error is None:
            assert math.isfinite(res.delta_theta) and res.delta_theta > 0, res
        else:
            assert res.error in ("no_contrast", "singular_fit") and math.isnan(res.delta_theta), res


# --- the closed forms at contrasts of about 1e-300, against mpmath -------------

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


def mp_contrast(cfg, n_atoms, t2=math.inf):
    c = mp.mpf(cfg.c0) * mp.mpf(cfg.f1) ** n_atoms * mp.mpf(cfg.f2) ** (n_atoms - 1)
    c *= mp.mpf(cfg.p_surv) ** n_atoms
    return c if t2 == math.inf else c * mp.exp(-n_atoms * mp.mpf(cfg.tau) / t2)


def mp_own_cat_delta(chain, h, cfg):
    """The classical fit of one cat per isotope, every step in mpmath."""
    reps = mp.mpf(cfg.reps)
    f_qq = f_qt = f_tt = mp.mpf(0)
    for iso, qa, ha in zip(chain.isotopes, chain.q, h):
        n = iso.n_atoms
        dw = 1 / (2 * mp.pi * mp_contrast(cfg, n) * cfg.tau * n * mp.sqrt(reps))
        x, y, w = mp.mpf(qa), cfg.omega * mp.mpf(ha), 1 / dw**2
        f_qq, f_qt, f_tt = f_qq + w * x * x, f_qt + w * x * y, f_tt + w * y * y
    return mp.sqrt(f_qq / (f_qq * f_tt - f_qt**2))


def mp_cross_cat_delta(chain, h, cfg):
    """One noisy cat over the chain: 1 / (sep C sqrt(R T)), every step in mpmath."""
    n = [mp.mpf(iso.n_atoms) for iso in chain.isotopes]
    q, hv = [mp.mpf(x) for x in chain.q], [mp.mpf(x) for x in h]
    beta = mp.fsum(a * b * c for a, b, c in zip(n, hv, q)) / mp.fsum(a * c * c for a, c in zip(n, q))
    l1 = mp.fsum(a * abs(b - beta * c) for a, b, c in zip(n, hv, q))
    sep = 2 * mp.pi * cfg.tau * cfg.omega * l1
    return 1 / (sep * mp_contrast(cfg, chain.total_atoms) * mp.sqrt(mp.mpf(cfg.reps)))


def fidelity_for(contrast_exponent, gates):
    """f with f**gates = 10**contrast_exponent."""
    return 10.0 ** (contrast_exponent / gates)


class TestContrastNearUnderflow:
    # every probe pays F^n1 F^n2 with F1 = F2 = f, so a cat of n atoms has
    # contrast f^(2n - 1)

    def test_own_cat_fit_at_contrast_1e_300(self):
        n = 10**12
        f = fidelity_for(-300, 2 * n - 1)
        # a long interrogation at a high repetition count keeps 1 / delta omega^2
        # and the fit's products inside the float range
        cfg = ProtocolConfig(omega=1.0, tau=1e60, f1=f, f2=f, rep_rate=1e150, t_avg=1e150)
        chain = make_yb_chain(counts=(n, n, n, n))
        with mp.workdps(60):
            assert 1e-302 < mp_contrast(cfg, n) < 1e-298
            expected = mp_own_cat_delta(chain, H_SPLIT, cfg)
            rows = {r.protocol: r for r in protocol_table(chain, H_SPLIT, cfg)}
            own = rows["same_isotope_cat"]
            assert own.error is None
            assert abs(own.delta_theta - expected) <= 1e-12 * expected
            # one cat over all 4n atoms has contrast ~1e-1200: past underflow
            assert mp_contrast(cfg, 4 * n) < mp.mpf(sys.float_info.min) * sys.float_info.epsilon
        for name in ("cross_cat_noisy", "dfs_cat"):
            assert rows[name].error == "no_contrast" and math.isnan(rows[name].delta_theta)

    @pytest.mark.parametrize("dfs_budget", ["per_channel", "split"])
    def test_cross_cat_at_contrast_1e_300(self, dfs_budget):
        n = 10**6
        f = fidelity_for(-300, 2 * 4 * n - 1)
        cfg = ProtocolConfig(omega=1.0, tau=1.0, f1=f, f2=f, rep_rate=1.0, t_avg=3600.0,
                             dfs_budget=dfs_budget)
        chain = make_yb_chain(counts=(n, n, n, n))
        rows = {r.protocol: r for r in protocol_table(chain, H_SPLIT, cfg)}
        with mp.workdps(60):
            assert 1e-302 < mp_contrast(cfg, 4 * n) < 1e-298
            expected = mp_cross_cat_delta(chain, H_SPLIT, cfg)
            got = rows["cross_cat_noisy"]
            assert got.error is None
            assert abs(got.delta_theta - expected) <= 1e-12 * expected
            assert abs(got.contrast_used - mp_contrast(cfg, 4 * n)) <= 1e-12 * got.contrast_used
        # the reversal-pair cat of 2 x 4n atoms (per channel) is past underflow;
        # the split budget keeps 4n atoms and the same contrast
        if dfs_budget == "per_channel":
            assert rows["dfs_cat"].error == "no_contrast"
        else:
            assert rows["dfs_cat"].delta_theta == got.delta_theta


def table_slug(exc):
    """The slug of the first entry of ERROR_SLUGS whose class ``exc`` is an instance of."""
    return next(slug for cls, slug in ERROR_SLUGS if isinstance(exc, cls))


class TestErrorSlugs:
    def test_each_class_and_slug_once(self):
        classes, slugs = zip(*ERROR_SLUGS)
        assert len(set(classes)) == len(classes) and len(set(slugs)) == len(slugs)

    def test_no_entry_is_shadowed_by_an_earlier_base(self):
        for i, (cls, _) in enumerate(ERROR_SLUGS):
            assert not any(issubclass(cls, earlier) for earlier, _ in ERROR_SLUGS[:i]), cls

    def test_allocation_error_is_one_class(self):
        assert apvsim.scans.AllocationError is apvsim.protocols.AllocationError is AllocationError

    def test_a_failed_allocation_is_the_allocation_slug(self, yb_chain):
        with pytest.raises(AllocationError) as raised:
            allocate_atoms(yb_chain, len(yb_chain.isotopes) - 1)
        assert table_slug(raised.value) == "allocation"

    @pytest.mark.parametrize("exc,slug", [
        (UnidentifiableThetaError("parallel"), "singular_fit"),
        (ZeroSignalError("no component"), "no_signal"),
        (ValueError("plain"), "invalid_config"),
        (ZeroDivisionError("contrast 0"), "no_contrast"),
        (OverflowError("dw**2"), "no_contrast"),
    ])
    def test_subclasses_keep_their_own_slugs(self, exc, slug):
        assert table_slug(exc) == slug
