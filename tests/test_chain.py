import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvsim import (
    DeviationPattern,
    Isotope,
    IsotopeChain,
    build_chain,
    project_deviation,
    weak_charge,
)
from conftest import make_yb_chain, random_chain


class TestWeakCharge:
    def test_yb_174(self):
        # -104 + 70 * (1 - 4*0.2325) = -104 + 70*0.07
        assert weak_charge(70, 104, 0.2325) == pytest.approx(-99.1, rel=1e-12)

    def test_proton_term_cancels_at_quarter(self):
        # 1 - 4*0.25 = 0 exactly, and N = 0 kills the rest
        assert weak_charge(1, 0, 0.25) == 0.0

    def test_cs_133(self):
        assert weak_charge(55, 78, 0.2325) == pytest.approx(-74.15, rel=1e-12)

    @pytest.mark.parametrize(
        "z,n,s2w",
        [(0, 5, 0.23), (-1, 5, 0.23), (5, -1, 0.23), (5, 5, 0.0), (5, 5, 0.5), (5, 5, -0.1), (5, 5, 0.7)],
    )
    def test_domain_errors(self, z, n, s2w):
        with pytest.raises(ValueError):
            weak_charge(z, n, s2w)


class TestBuildChain:
    def test_yb_even_pattern(self):
        chain = make_yb_chain()
        # oracle: direct ratios of weak_charge outputs
        charges = [weak_charge(70, a - 70, 0.2325) for a in (170, 172, 174, 176)]
        expected = [qw / charges[2] for qw in charges]
        assert chain.q == pytest.approx(expected, rel=1e-15)
        frozen = (0.9596367305751766, 0.9798183652875883, 1.0, 1.0201816347124117)
        assert chain.q == pytest.approx(frozen, rel=1e-12)

    def test_reference_entry_is_exactly_one(self):
        assert make_yb_chain().q[2] == 1.0

    def test_zero_weak_charge_rejected(self):
        # Z=1, N=0 at sin2_theta_w = 0.25 has vanishing weak charge
        isotopes = [Isotope(A=1, Z=1, n_atoms=1), Isotope(A=2, Z=1, n_atoms=1)]
        with pytest.raises(ValueError, match="vanishes"):
            build_chain(isotopes, ref_index=0, sin2_theta_w=0.25)

    def test_needs_two_isotopes(self):
        with pytest.raises(ValueError, match=">= 2"):
            build_chain([Isotope(A=170, Z=70, n_atoms=1)], ref_index=0, sin2_theta_w=0.2325)

    def test_ref_index_range(self):
        isotopes = [Isotope(A=170, Z=70, n_atoms=1), Isotope(A=172, Z=70, n_atoms=1)]
        with pytest.raises(ValueError, match="ref_index"):
            build_chain(isotopes, ref_index=2, sin2_theta_w=0.2325)

    def test_isotope_field_validation(self):
        with pytest.raises(ValueError):
            Isotope(A=0, Z=1)
        with pytest.raises(ValueError):
            Isotope(A=10, Z=11)
        with pytest.raises(ValueError):
            Isotope(A=10, Z=5, n_atoms=-1)


def synthetic_chain(q, counts):
    """Chain with a hand-picked q pattern (bypasses the weak-charge map)."""
    isotopes = tuple(
        Isotope(A=100 + 2 * i, Z=40, n_atoms=int(n)) for i, n in enumerate(counts)
    )
    return IsotopeChain(isotopes=isotopes, ref_index=0, sin2_theta_w=0.2325, q=tuple(q))


class TestProjection:
    def test_pattern_equal_to_q_projects_to_zero(self, yb_chain):
        proj = project_deviation(yb_chain, yb_chain.q)
        assert proj.beta == pytest.approx(1.0, rel=1e-14)
        assert all(abs(x) < 1e-14 for x in proj.h_perp)
        assert proj.signs == (0, 0, 0, 0)

    def test_sign_split_on_flat_pattern(self):
        chain = synthetic_chain((1.0, 1.0, 1.0, 1.0), (5, 5, 5, 5))
        proj = project_deviation(chain, (-1.0, -1.0, 1.0, 1.0))
        # hand evaluation: sum h q = 0 so beta = 0 and h survives unchanged
        assert proj.beta == 0.0
        assert proj.h_perp == (-1.0, -1.0, 1.0, 1.0)
        assert proj.signs == (-1, -1, 1, 1)
        assert proj.weighted_l1 == pytest.approx(20.0)
        assert proj.weighted_l2sq == pytest.approx(20.0)

    def test_orthogonality_by_direct_summation(self, yb_chain):
        proj = project_deviation(yb_chain, (1.0, 1.0, 1.0, 1.0))
        residual = math.fsum(
            n * hp * qa for n, hp, qa in zip(yb_chain.n_atoms, proj.h_perp, yb_chain.q)
        )
        scale = math.fsum(n * abs(qa) for n, qa in zip(yb_chain.n_atoms, yb_chain.q))
        assert abs(residual) <= 1e-12 * scale

    def test_idempotence(self, yb_chain):
        proj = project_deviation(yb_chain, (0.3, -1.2, 0.8, 0.1))
        again = project_deviation(yb_chain, proj.h_perp)
        assert abs(again.beta) < 1e-12
        assert again.h_perp == pytest.approx(proj.h_perp, abs=1e-12)

    def test_reference_choice_does_not_move_the_direction(self):
        h = (0.3, -1.2, 0.8, 0.1)
        projections = [
            project_deviation(make_yb_chain(ref_index=r), h) for r in range(4)
        ]
        base = projections[0]
        for proj in projections[1:]:
            assert proj.signs == base.signs
            assert proj.h_perp == pytest.approx(base.h_perp, rel=1e-10, abs=1e-12)

    def test_global_sign_flip_swaps_branches(self, yb_chain):
        h = (0.3, -1.2, 0.8, 0.1)
        plus = project_deviation(yb_chain, h)
        minus = project_deviation(yb_chain, tuple(-x for x in h))
        assert minus.signs == tuple(-s for s in plus.signs)
        assert minus.beta == pytest.approx(-plus.beta, rel=1e-14)
        assert minus.weighted_l1 == pytest.approx(plus.weighted_l1, rel=1e-14)

    def test_zero_atom_isotopes_are_excluded_from_weights(self):
        chain = synthetic_chain((1.0, 2.0, 3.0), (4, 0, 4))
        proj = project_deviation(chain, (1.0, 1.0, 1.0))
        residual = math.fsum(
            n * hp * qa for n, hp, qa in zip(chain.n_atoms, proj.h_perp, chain.q)
        )
        assert abs(residual) < 1e-13
        # the unpopulated isotope still gets a component
        assert len(proj.h_perp) == 3

    def test_all_zero_allocation_rejected(self):
        chain = synthetic_chain((1.0, 1.1), (0, 0))
        with pytest.raises(ValueError, match="zero atoms"):
            project_deviation(chain, (1.0, -1.0))

    def test_length_mismatch_rejected(self, yb_chain):
        with pytest.raises(ValueError, match="length"):
            project_deviation(yb_chain, (1.0, -1.0))

    def test_random_chain_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            chain, h = random_chain(rng)
            proj = project_deviation(chain, h)
            residual = math.fsum(
                n * hp * qa for n, hp, qa in zip(chain.n_atoms, proj.h_perp, chain.q)
            )
            scale = math.fsum(
                n * abs(ha) * abs(qa) for n, ha, qa in zip(chain.n_atoms, h, chain.q)
            )
            assert abs(residual) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(
    h=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
    counts=st.lists(st.integers(1, 50), min_size=4, max_size=4),
)
def test_projection_properties_hypothesis(h, counts):
    chain = make_yb_chain(counts=tuple(counts))
    proj = project_deviation(chain, h)
    residual = math.fsum(n * hp * qa for n, hp, qa in zip(chain.n_atoms, proj.h_perp, chain.q))
    scale = math.fsum(n * abs(ha) * abs(qa) for n, ha, qa in zip(chain.n_atoms, h, chain.q))
    assert abs(residual) <= 1e-12 * scale + 1e-15
    again = project_deviation(chain, proj.h_perp)
    top = max(1.0, max(abs(x) for x in proj.h_perp))
    assert abs(again.beta) <= 1e-12 * top
    assert again.h_perp == pytest.approx(proj.h_perp, abs=1e-11 * top)


def test_sign_split_preset_follows_mass_order():
    chain = make_yb_chain()
    assert DeviationPattern.sign_split(chain).h == (-1.0, -1.0, 1.0, 1.0)
    # shuffled listing order: the split still follows mass number
    isotopes = [
        Isotope(A=176, Z=70, n_atoms=1),
        Isotope(A=170, Z=70, n_atoms=1),
        Isotope(A=174, Z=70, n_atoms=1),
        Isotope(A=172, Z=70, n_atoms=1),
    ]
    shuffled = build_chain(isotopes, ref_index=2, sin2_theta_w=0.2325)
    assert DeviationPattern.sign_split(shuffled).h == (1.0, -1.0, 1.0, -1.0)
