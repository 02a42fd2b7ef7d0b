import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvsim import (
    DeviationPattern,
    Isotope,
    IsotopeChain,
    build_chain,
    project_deviation,
    weak_charge,
)
from apvsim.chain import _SCALAR_ROWS, _row_fsums
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


# --- row sums: math.fsum's value, or its exception, row by row -----------------

_MAX = sys.float_info.max
_INF = math.inf
# Rows where a sum rounded without a proof could differ from math.fsum.
_FINITE_ROWS = (
    (1e16, 1.0, -1e16),  # near-total cancellation
    (2.0**53, 1.0, -(2.0**53), 2.0**-60),
    (0.1, 0.2, -0.3),
    (1.0, 2.0**-53),  # an exact tie: to even, down
    (1.0 + 2.0**-52, 2.0**-53),  # an exact tie: to even, up
    (1.0, 2.0**-53, 2.0**-110),  # just above a tie
    (1.0, 2.0**-53, -(2.0**-110)),  # just below a tie
    (1.0, 1.0),  # powers of two, and the smaller gap below them
    (1.0, -(2.0**-55)),
    (1.0, -(2.0**-54), -(2.0**-106)),
    (1.0, -(2.0**-54), -(2.0**-110)),  # below the tie under 1.0, whose lower gap is the smaller
    (4.0, -(2.0**-52), 2.0**-106, 2.0**-160),
    (5e-324, 0.0),  # subnormal and zero results
    (1e-300, -1e-300, 5e-324),
    (2.2250738585072014e-308, -2.225073858507201e-308),
    (0.0,),
    (-0.0,),
    (-0.0, -0.0),
    (1.5, -1.5),
)
_SPECIAL_ROWS = (
    (_INF, 1.0),
    (-_INF, 1.0),
    (_INF, -_INF),  # ValueError
    (math.nan, 1.0),
    (_INF, math.nan),
    (_MAX, 2.0**969, 2.0**969, -_MAX),  # OverflowError: intermediate overflow
    (_MAX, _MAX),
)


def _fit(row, k, rng=None):
    """``row`` padded with zeros to k terms, in a random order given ``rng``;
    None if it is longer."""
    if len(row) > k:
        return None
    padded = np.zeros(k)
    order = np.arange(k) if rng is None else rng.permutation(k)
    padded[order[:len(row)]] = row
    return padded


@st.composite
def _row_blocks(draw):
    """A G x parts x k float block of 63, 64 or 65 rows: moderate terms, some
    near-total cancellations, a few arbitrary floats, and hand-picked rows."""
    k = draw(st.integers(1, 8))
    n = draw(st.sampled_from((63, 64, 65)))
    parts = draw(st.sampled_from([p for p in (1, 2, 3, 5) if n % p == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-200, 200, (n, 1))
    cancel = (rng.random(n) < 0.3) & (k > 1)
    rows[cancel, -1] = -rows[cancel, :-1].sum(axis=1) * (1 + 2.0**-40 * rng.standard_normal(cancel.sum()))
    picked = draw(st.lists(st.sampled_from(_FINITE_ROWS + _SPECIAL_ROWS), max_size=6))
    picked += draw(st.lists(st.lists(st.floats(), min_size=k, max_size=k), max_size=3))
    for row in picked:
        padded = _fit(row, k, rng)
        if padded is not None:
            rows[rng.integers(n)] = padded
    return rows.reshape(n // parts, parts, k)


def _explicit_block(rows, k, n, parts):
    """``rows`` first, then rows of positive integers, whose sums are exact:
    whether numpy's sums are kept turns on ``rows`` alone."""
    block = np.random.default_rng(k).integers(1, 1000, (n, k)).astype(float)
    fitted = [p for p in (_fit(row, k) for row in rows) if p is not None]
    block[:len(fitted)] = fitted
    return block.reshape(n // parts, parts, k)


def _loop_sums(block):
    """Per grid row: math.fsum of each of its rows, or the first exception."""
    out = []
    for parts in block.tolist():
        try:
            out.append([math.fsum(part) for part in parts])
        except (ValueError, ArithmeticError) as exc:
            out.append(exc)
    return out


def _check_row_fsums(block):
    want = _loop_sums(block)
    failed = [isinstance(sums, Exception) for sums in want]
    nan = [math.nan] * block.shape[1]
    want_hex = [[x.hex() for x in (nan if bad else sums)] for sums, bad in zip(want, failed)]
    got = _row_fsums(block, raising=False)
    assert [[x.hex() for x in sums] for sums in got.tolist()] == want_hex
    if not any(failed):
        assert [[x.hex() for x in sums] for sums in _row_fsums(block).tolist()] == want_hex
        return
    exc = want[failed.index(True)]
    with pytest.raises(type(exc)) as raised:
        _row_fsums(block)
    assert str(raised.value) == str(exc)


@settings(max_examples=300, deadline=None)
@given(block=_row_blocks())
@example(block=_explicit_block(_FINITE_ROWS, 3, 65, 5))
@example(block=_explicit_block(_FINITE_ROWS + _SPECIAL_ROWS, 4, 64, 1))
@example(block=_explicit_block(_SPECIAL_ROWS + _FINITE_ROWS, 4, 63, 3))
def test_row_fsums_equal_math_fsum_row_by_row(block):
    _check_row_fsums(block)


@pytest.mark.parametrize("row", _FINITE_ROWS + _SPECIAL_ROWS)
@pytest.mark.parametrize("k, n, parts", [(4, 64, 2), (8, 65, 5)])
def test_row_fsums_on_one_hand_picked_row(row, k, n, parts):
    # the only row of its block that may lack a proof
    _check_row_fsums(_explicit_block((row,), k, n, parts))


@pytest.mark.parametrize("k, order", [(1, "C"), (4, "F")])
def test_row_fsums_only_read_their_terms(k, order):
    # at k = 1, and with the terms already in column order, the columns the
    # cascades read are a view of the terms
    block = np.asarray(np.random.default_rng(k).standard_normal((_SCALAR_ROWS + 1, k)), order=order)
    block[0, 0] = math.inf  # a row without a proof, summed again
    assert np.shares_memory(np.ascontiguousarray(block.T), block)
    before = block.copy()
    for raising in (False, True):
        _row_fsums(block, raising)
        assert block.view(np.int64).tolist() == before.view(np.int64).tolist()


def test_row_fsums_give_math_fsum_the_unproven_row_alone(monkeypatch):
    # a subnormal sum has no proof; the rows of positive integers have one
    block = _explicit_block(((1e-300, -1e-300, 5e-324),), 3, 65, 1).reshape(65, 3)
    rows, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: rows.append(list(row)) or fsum(row))
    assert _row_fsums(block).tolist() == [fsum(row) for row in block.tolist()]
    assert rows == [[1e-300, -1e-300, 5e-324]]
