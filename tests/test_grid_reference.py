"""The grid evaluation against a per-row scalar reference.

``_reference_*`` below is a frozen copy of the scalar path that evaluated
one allocation at a time before the atom scan became one grid evaluation:
a projection, a fit and a contrast written with ``math`` on Python floats,
one ``protocol_table`` per grid point on a reallocated chain.  The grid
must give every row the same value, bit for bit (compared by ``repr``),
and the same error slug.  ``protocol_table``, ``combine_classical_fit`` and
the one-allocation ``project_deviation`` have their own kernel on Python
floats, held here to row 0 of the grid field by field.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from apvsim import Isotope, ProtocolConfig, build_chain
from apvsim.chain import _pattern_values, project_deviation, reallocate
from apvsim.protocols import (
    PROTOCOLS,
    SensitivityResult,
    UnidentifiableThetaError,
    ZeroSignalError,
    _grid_fit,
    _square,
    cat_contrast,
    combine_classical_fit,
    protocol_grid,
    protocol_table,
)
from apvsim.scans import AllocationError, ScanSpec, allocate_atoms, atom_scan
from conftest import assert_same_cells, grid_row, scan_cells

# --- the scalar reference -----------------------------------------------------


def _reference_project(chain, h):
    hv = _pattern_values(h)
    weights = [float(iso.n_atoms) for iso in chain.isotopes]
    if sum(weights) == 0:
        raise ValueError("all isotopes have zero atoms")
    num = math.fsum(w * ha * qa for w, ha, qa in zip(weights, hv, chain.q))
    den = math.fsum(w * qa * qa for w, qa in zip(weights, chain.q))
    beta = num / den
    h_perp = tuple(ha - beta * qa for ha, qa in zip(hv, chain.q))
    weighted_l1 = math.fsum(w * abs(x) for w, x in zip(weights, h_perp))
    return beta, h_perp, weighted_l1


def _reference_contrast(cfg, n_atoms, t2, t2_once=math.inf):
    if not (t2 > 0 and t2_once > 0):
        raise ValueError("coherence times must be positive")
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    return (
        cfg.c0 * cfg.f1**n_atoms * cfg.f2**(n_atoms - 1) * cfg.p_surv**n_atoms
        * math.exp(-n_atoms * cfg.tau / t2) * math.exp(-cfg.tau / t2_once)
    )


def _reference_fit(chain, h, per_isotope, cfg):
    rows = []
    for qa, ha, dw in zip(chain.q, _pattern_values(h), per_isotope):
        if dw is None or not math.isfinite(dw):
            continue
        if dw <= 0:
            raise ValueError("frequency uncertainties must be positive")
        rows.append((qa, cfg.omega * ha, 1.0 / dw**2))
    if len(rows) < 2:
        raise ValueError("need >= 2 isotopes with finite uncertainties")
    f_qq = math.fsum(w * x * x for x, _, w in rows)
    f_qt = math.fsum(w * x * y for x, y, w in rows)
    f_tt = math.fsum(w * y * y for _, y, w in rows)
    if 0.0 < f_tt and f_qq * f_tt < sys.float_info.min:
        raise ArithmeticError("the fit weights underflow")
    det = f_qq * f_tt - f_qt * f_qt
    if det <= 1e-12 * f_qq * f_tt:
        raise UnidentifiableThetaError("parallel")
    return math.sqrt(f_qq / det)


def _reference_row(name, chain, h, proj, cfg, reps, xi):
    beta, h_perp, weighted_l1 = proj
    if name in ("sql", "squeezed", "same_isotope_cat"):
        factor = xi if name == "squeezed" else 1.0
        dws = []
        for iso in chain.isotopes:
            n = iso.n_atoms
            if n < 1:
                dws.append(math.inf)
            elif name == "same_isotope_cat":
                contrast = _reference_contrast(cfg, n, cfg.t2)
                dws.append(factor * (1.0 / (2.0 * math.pi * contrast * cfg.tau * n * math.sqrt(reps))))
            else:
                dws.append(factor * (1.0 / (2.0 * math.pi * cfg.c_sql * cfg.tau * math.sqrt(n * reps))))
        dws = tuple(dws)
        if any(d == math.inf and iso.n_atoms >= 1 for d, iso in zip(dws, chain.isotopes)):
            raise ArithmeticError("a per-isotope frequency uncertainty is not finite")
        delta = _reference_fit(chain, h, dws, cfg)
        return SensitivityResult(protocol=name, delta_theta=delta, per_isotope=dws)
    scale = math.fsum(iso.n_atoms * abs(hp + beta * qa)
                      for iso, hp, qa in zip(chain.isotopes, h_perp, chain.q))
    if weighted_l1 <= 1e-12 * scale:
        raise ZeroSignalError("no orthogonal component")
    k, t2, t2_once = 1.0, cfg.t2, math.inf
    if name == "dfs_cat":
        k = 2.0 if cfg.dfs_budget == "per_channel" else 1.0
        t2, t2_once = cfg.t2_local, cfg.t2_diff
    sep = 2.0 * math.pi * cfg.tau * cfg.omega * k * weighted_l1
    contrast = 1.0 if name == "cross_cat_ideal" else _reference_contrast(
        cfg, k * chain.total_atoms, t2, t2_once)
    return SensitivityResult(protocol=name, delta_theta=1.0 / (sep * contrast * math.sqrt(reps)),
                             contrast_used=contrast, eigsep=sep)


_SLUGS = ((UnidentifiableThetaError, "singular_fit"), (ZeroSignalError, "no_signal"),
          (ArithmeticError, "no_contrast"), (ValueError, "invalid_config"))


def _reference_table(chain, h, cfg, protocols=PROTOCOLS):
    proj = _reference_project(chain, h)
    xi = 10.0 ** (-cfg.squeezing_db / 20.0)
    reps = cfg.reps
    out = []
    for name in protocols:
        try:
            if reps < 1:
                raise ValueError("need rep_rate * t_avg >= 1")
            row = _reference_row(name, chain, h, proj, cfg, reps, xi)
            if not 0 < row.delta_theta < math.inf:
                raise ArithmeticError("delta theta is not a finite positive number")
        except (ValueError, ArithmeticError) as exc:
            slug = next(slug for cls, slug in _SLUGS if isinstance(exc, cls))
            row = SensitivityResult(protocol=name, delta_theta=math.nan, error=slug)
        out.append(row)
    return out


def _reference_allocation(chain, total):
    k = len(chain.isotopes)
    if total < k:
        raise AllocationError("too few atoms")
    base, rem = divmod(int(total), k)
    counts = [base] * k
    for r in sorted(range(k), key=lambda i: (chain.isotopes[i].A, i))[:rem]:
        counts[r] += 1
    return counts


def _reference_scan(chain, h, cfg, spec):
    rows = []
    for value in spec.grid:
        try:
            counts = _reference_allocation(chain, int(round(value)))
        except AllocationError:
            rows.extend((value, p, math.nan, math.nan, "allocation") for p in spec.protocols)
            continue
        isotopes = tuple(replace(iso, n_atoms=n) for iso, n in zip(chain.isotopes, counts))
        for res in _reference_table(replace(chain, isotopes=isotopes), h, cfg, spec.protocols):
            rows.append((value, res.protocol, res.delta_theta, res.delta_theta, res.error))
    return tuple(rows)


# --- generated chains and configs ---------------------------------------------

# Near 1 most of the time, so that most rows are finite; near 0 for underflow.
_NEAR_ONE = st.floats(0.999, 1.0)
_FIDELITY = st.one_of(_NEAR_ONE, _NEAR_ONE, st.floats(1e-6, 1e-3), st.floats(1e-6, 1.0))
_TIME = st.floats(1e-3, 1e3)
_COHERENCE = st.one_of(st.just(math.inf), _TIME)


@st.composite
def chains(draw, min_count=0):
    k = draw(st.integers(2, 8))
    z = draw(st.integers(10, 80))
    masses = sorted(draw(st.lists(st.integers(2 * z, 2 * z + 40), min_size=k, max_size=k,
                                  unique=True)))
    counts = draw(st.lists(st.one_of(st.integers(min_count, 20), st.integers(min_count, 2000),
                                     st.integers(min_count, 10**12)), min_size=k, max_size=k))
    if not any(counts):
        counts[0] = 1
    chain = build_chain([Isotope(A=a, Z=z, n_atoms=n) for a, n in zip(masses, counts)],
                        ref_index=draw(st.integers(0, k - 1)), sin2_theta_w=0.2325)
    if draw(st.booleans()):
        h = chain.q  # parallel to q: singular fits and no signal
    else:
        h = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    return chain, h


@st.composite
def configs(draw):
    return ProtocolConfig(
        omega=draw(_TIME), tau=draw(_TIME), c0=draw(_FIDELITY), f1=draw(_FIDELITY),
        f2=draw(_FIDELITY),
        p_surv=draw(st.one_of(st.floats(0.99, 0.999999), st.floats(1e-6, 0.999999), st.just(1.0))),
        t2=draw(_COHERENCE), t2_local=draw(_COHERENCE), t2_diff=draw(_COHERENCE),
        squeezing_db=draw(st.floats(-10.0, 20.0)),
        # R T_avg below 1 now and then: every row is invalid_config
        rep_rate=draw(st.one_of(st.none(), st.floats(1.0, 1e3))),
        t_avg=draw(st.one_of(st.floats(1.0, 1e5), st.floats(1e-3, 1.0))),
        c_sql=draw(_FIDELITY),
        dfs_budget=draw(st.sampled_from(("per_channel", "split"))),
    )


def _yb(counts):
    yb = ((170, 70), (172, 70), (174, 70), (176, 70))
    return build_chain([Isotope(A=a, Z=z, n_atoms=n) for (a, z), n in zip(yb, counts)],
                       ref_index=2, sin2_theta_w=0.2325)


_SPLIT = (-1.0, -1.0, 1.0, 1.0)
_LOSSY = ProtocolConfig(omega=1.0, tau=1.0, f1=0.5, f2=0.5, rep_rate=1.0, t_avg=3600.0)
_ONE_REP = ProtocolConfig(omega=1.0, tau=1.0, rep_rate=1.0, t_avg=0.5)
_PLAIN = ProtocolConfig(omega=1.0, tau=1.0, rep_rate=1.0, t_avg=3600.0)


def _same(got, want):
    assert [repr(r) for r in got] == [repr(r) for r in want]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=chains(), cfg=configs())
@example(instance=(_yb((10, 10, 10, 10)), _SPLIT), cfg=_PLAIN)  # every row finite
@example(instance=(_yb((10, 10, 10, 10)), _yb((1, 1, 1, 1)).q), cfg=_PLAIN)  # singular_fit, no_signal
@example(instance=(_yb((3000, 3000, 3000, 3000)), _SPLIT), cfg=_LOSSY)  # no_contrast
@example(instance=(_yb((10, 10, 10, 10)), _SPLIT), cfg=_ONE_REP)  # invalid_config
@example(instance=(_yb((1, 0, 0, 0)), _SPLIT), cfg=_PLAIN)  # one measured isotope: invalid_config
# Omega h_A overflows on an isotope without atoms, which the fit leaves out
@example(instance=(_yb((5, 0, 5, 5)), (1.0, 1e200, -1.0, 0.5)), cfg=replace(_PLAIN, omega=1e147))
# xi = 1e-300 and a zero SQL denominator: the division by zero decides
@example(instance=(_yb((5, 5, 5, 5)), _SPLIT),
         cfg=replace(_PLAIN, tau=5e-324, c_sql=1e-6, squeezing_db=6000.0))
@example(instance=(_yb((10**12, 1, 1, 1)), _SPLIT), cfg=replace(_PLAIN, tau=1e301))  # first dw 0
@example(instance=(_yb((1, 1, 1, 10**12)), _SPLIT), cfg=replace(_PLAIN, tau=1e301))  # first dw**2 0
@example(instance=(_yb((1, 1, 1, 1)), (4.5e307,) * 4), cfg=_PLAIN)  # sum_A N_A |h_A| overflows
def test_protocol_table_matches_the_scalar_reference(instance, cfg):
    chain, h = instance
    _same(protocol_table(chain, h, cfg), _reference_table(chain, h, cfg))


# --- the one-row kernel against row 0 of the grid -----------------------------


def _hex(*values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=chains(), cfg=configs())
@example(instance=(_yb((2**62, 3, 1, 1)), _SPLIT), cfg=_PLAIN)  # the grid's counts are Python ints
# the first isotope in chain order decides between invalid_config and no_contrast
@example(instance=(_yb((10**12, 1, 1, 1)), _SPLIT), cfg=replace(_PLAIN, tau=1e301))
@example(instance=(_yb((1, 1, 1, 10**12)), _SPLIT), cfg=replace(_PLAIN, tau=1e301))
@example(instance=(_yb((10, 10, 10, 10)), _SPLIT), cfg=_ONE_REP)  # rep_rate * t_avg < 1
@example(instance=(_yb((10, 10, 10, 10)), _yb((1, 1, 1, 1)).q), cfg=_PLAIN)  # h parallel to q
# sum_A N_A |h_A| overflows, so a cat's test for a signal raises, and its delta theta is a number
@example(instance=(_yb((1, 1, 1, 1)), (4.375e307, 4.468e307, 4.56e307, 4.652e307)), cfg=_PLAIN)
def test_protocol_table_is_row_0_of_the_grid(instance, cfg):
    """The one-row kernel on Python floats and the grid over the chain's own
    counts give the same row, field by field, and the same projection."""
    chain, h = instance
    counts = np.array([chain.n_atoms], dtype=object if chain.total_atoms >= 2**62 else np.int64)
    _same(protocol_table(chain, h, cfg), [grid_row(grid, 0) for grid in protocol_grid(chain, h, cfg, counts)])
    one = project_deviation(chain, h)
    rows = project_deviation(chain, h, counts)
    assert _hex(one.beta, *one.h_perp, one.weighted_l1) == _hex(
        rows.beta[0], *rows.h_perp[0].tolist(), rows.weighted_l1[0])


# unmeasured, nonpositive, a square that overflows or underflows, weights
# whose products underflow, or a plain value
_DW = st.one_of(st.none(), st.sampled_from((math.nan, math.inf, -math.inf)), st.floats(max_value=0.0),
                st.floats(1e155, 1e300), st.floats(1e-300, 1e-155), st.floats(1e80, 1e150),
                st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=chains(), cfg=configs(), dws=st.lists(_DW, min_size=8, max_size=8))
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[None, math.nan, 0.5, 0.25] * 2)
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[0.5, -1.0, 0.5, 0.5] * 2)  # dw < 0, dw**2 fine
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[0.5, -1.0, 1e200, 0.5] * 2)
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[0.5, 1e200, -1.0, 0.5] * 2)
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[0.5, 1e200, 0.5, 0.5] * 2)  # dw**2 overflows
@example(instance=(_yb((1, 1, 1, 1)), _yb((1, 1, 1, 1)).q), cfg=_PLAIN, dws=[0.5] * 8)  # h parallel to q
# each w y y is finite and their sum overflows, so math.fsum raises
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=replace(_PLAIN, omega=1e154), dws=[1.0] * 8)
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[1e-170, 0.5, 0.5, math.inf] * 2)
# the fit weights underflow before h parallel to q is tested
@example(instance=(_yb((1, 1, 1, 1)), _yb((1, 1, 1, 1)).q), cfg=_PLAIN, dws=[1e100] * 8)
# the weights' products underflow to a subnormal, and det passes the test for h parallel to q
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, dws=[1e80] * 8)
# one measured isotope with a subnormal w y y: det passes the test for h parallel to q
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=replace(_PLAIN, omega=1e-226),
         dws=[math.inf, math.inf, 2e-67, math.inf] * 2)
def test_combine_classical_fit_is_the_one_row_grid_fit(instance, cfg, dws):
    """The grid fit flags the row where the scalar fit raises; where the
    scalar fit returns, it gives the same delta theta, and it flags the row
    only if that is NaN, which protocol_table turns into no_contrast."""
    chain, h = instance
    dws = dws[:len(chain.isotopes)]
    row = np.array([dws], dtype=float)
    with np.errstate(all="ignore"):
        delta, failed = _grid_fit(chain, h, row, np.array([[_square(dw) for dw in row[0].tolist()]]), cfg)
    try:
        got = combine_classical_fit(chain, h, dws, cfg)
    except (ValueError, ArithmeticError):
        assert failed[0]
    else:
        assert repr(got) == repr(delta[0].item()) and (not failed[0] or math.isnan(got))


_GRIDS = st.lists(st.one_of(st.integers(1, 100), st.integers(1, 10**12)),
                  min_size=1, max_size=100, unique=True)
_PROTOCOL_LISTS = st.lists(st.sampled_from(PROTOCOLS), min_size=1, max_size=6, unique=True)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=chains(min_count=1), cfg=configs(), grid=_GRIDS, protocols=_PROTOCOL_LISTS)
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_LOSSY, grid=[1, 3, 4, 9, 10**6],
         protocols=list(PROTOCOLS))  # allocation rows, then no_contrast at large N
# 64 grid points and more: the row sums take the numpy path, not math.fsum
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, grid=[4 * i for i in range(1, 81)],
         protocols=list(PROTOCOLS))  # every row finite
# from about 10^4 atoms on, the fit sums have no proof and math.fsum sums them;
# near 10^11 they overflow, and the lossy cats have no contrast
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=replace(_LOSSY, omega=1e146),
         grid=[round(4 * 1.47**i) for i in range(70)], protocols=list(PROTOCOLS))
# totals from 2^62 on are split as Python ints; from 2^63 on an int64 cast wraps
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN, grid=[4, 2**62, 2**63, 10**19],
         protocols=list(PROTOCOLS))
def test_atom_scan_matches_the_scalar_reference(instance, cfg, grid, protocols):
    chain, h = instance
    spec = ScanSpec(axis="atom_number", grid=tuple(float(v) for v in sorted(grid)),
                    protocols=tuple(protocols))
    table = atom_scan(chain, h, cfg, spec)
    want = _reference_scan(chain, h, cfg, spec)
    assert_same_cells(scan_cells(table), want)
    counted = {}
    for *_, error in want:
        if error is not None:
            counted[error] = counted.get(error, 0) + 1
    assert table.error_rows == counted


@st.composite
def count_grids(draw):
    """A chain, a pattern and a G x k count matrix drawn from a few levels,
    so that counts repeat, with zeros but at least one atom per row: int64,
    or Python ints once a row sum reaches 2^62."""
    chain, h = draw(chains())
    k = len(chain.isotopes)
    levels = [0] + draw(st.lists(st.one_of(st.integers(1, 20), st.integers(1, 10**12), st.integers(1, 2**61)),
                                 min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(st.sampled_from(levels), min_size=k, max_size=k), min_size=1, max_size=80))
    for row in rows:
        row[0] = row[0] or levels[-1]
    return chain, h, np.array(rows, dtype=object if max(map(sum, rows)) >= 2**62 else np.int64)


def _or_one(drawn):
    return st.one_of(st.just(1.0), drawn)


@settings(max_examples=300, deadline=None)
@given(c0=_or_one(_FIDELITY), f1=_FIDELITY, f2=_FIDELITY, p_surv=_or_one(_FIDELITY),
       tau=st.one_of(_TIME, st.floats(1e290, 1e308)), t2=_COHERENCE, t2_once=_COHERENCE,
       counts=st.lists(st.one_of(st.integers(1, 10**6), st.integers(2**62, 2**80)), min_size=1, max_size=8),
       form=st.sampled_from(("int", "float")))
@example(c0=1.0, f1=0.9999, f2=0.999, p_surv=1.0, tau=1e300, t2=math.inf, t2_once=math.inf,
         counts=[4, 10**8, 2**62], form="int")  # n tau overflows at the largest counts: exp(-inf / inf) is NaN
@example(c0=1.0, f1=0.9999, f2=0.999, p_surv=1.0, tau=1.0, t2=math.nan, t2_once=math.inf,
         counts=[4, 10**8], form="int")  # a NaN t2 is not positive: both forms raise, as the reference does
def test_grid_contrast_is_the_full_product_bit_for_bit(c0, f1, f2, p_surv, tau, t2, t2_once, counts, form):
    """A grid leaves out the factors that are 1.0 at every count, and each
    contrast is still the scalar product of all six factors."""
    cfg = ProtocolConfig(tau=tau, c0=c0, f1=f1, f2=f2, p_surv=p_surv)
    if form == "float":  # a global cat's k N
        counts = [float(n) for n in counts]
    grid = np.array(counts, dtype=float if form == "float" else object if max(counts) >= 2**62 else np.int64)
    try:
        want = [repr(_reference_contrast(cfg, n, t2, t2_once)) for n in counts]
    except ValueError:
        for n_atoms in (grid, counts[0]):
            with pytest.raises(ValueError, match="coherence times must be positive"):
                cat_contrast(cfg, n_atoms, t2, t2_once)
        return
    assert list(map(repr, cat_contrast(cfg, grid, t2, t2_once).tolist())) == want


# At 6e12 atoms of Yb-170 and one of each other isotope, h_perp is rounding dust on
# Yb-170 and O(1) on the others, so weighted_l1 is about 1e-12 sum_A N_A |h_A|; the
# last entry of h puts it at that threshold (no_signal) and one ulp above it.
_EDGE_COUNTS = (6 * 10**12, 1, 1, 1)
_AT_THE_EDGE, _ABOVE_THE_EDGE = (1.0, 1.0, -1.0, 0.19705985140906973), (1.0, 1.0, -1.0, 0.1970598514090697)


def test_the_signal_edge_examples_sit_at_the_threshold():
    chain = _yb(_EDGE_COUNTS)
    for h, ulps in ((_AT_THE_EDGE, 0), (_ABOVE_THE_EDGE, 1)):
        proj = project_deviation(chain, h)
        scale = math.fsum(n * abs(hp + proj.beta * qa) for n, hp, qa in zip(chain.n_atoms, proj.h_perp, chain.q))
        assert proj.weighted_l1 == 1e-12 * scale + ulps * math.ulp(1e-12 * scale)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=count_grids(), cfg=configs())
@example(grid=(_yb((0, 0, 0, 0)), _SPLIT, np.array([[5, 0, 5, 5], [5, 5, 0, 5], [1, 0, 0, 0]] * 30)), cfg=_PLAIN)
@example(grid=(_yb((0, 0, 0, 0)), _SPLIT, np.array([[3000, 1, 3000, 1], [1, 3000, 0, 3000]] * 40)), cfg=_LOSSY)
@example(grid=(_yb((0, 0, 0, 0)), _SPLIT, np.array([[2**61, 2**61, 0, 1], [2**61, 0, 2**61, 2**61]], dtype=object)),
         cfg=_PLAIN)
# the global cats' test for a signal a few ulps either side of its threshold
@example(grid=(_yb((0, 0, 0, 0)), _AT_THE_EDGE, np.array([_EDGE_COUNTS, (6 * 10**12 + 1, 1, 1, 1)])), cfg=_PLAIN)
@example(grid=(_yb((0, 0, 0, 0)), _ABOVE_THE_EDGE, np.array([_EDGE_COUNTS, (6 * 10**12 - 1, 1, 1, 1)])), cfg=_PLAIN)
def test_every_grid_row_is_the_table_of_its_allocation(grid, cfg):
    """Each row of a grid whose counts repeat, with zeros among them, is
    protocol_table on the chain reallocated to that row, by repr with
    per_isotope, contrast_used and eigsep."""
    chain, h, counts = grid
    grids = list(protocol_grid(chain, h, cfg, counts))
    for i, row in enumerate(counts.tolist()):
        _same([grid_row(result, i) for result in grids], protocol_table(reallocate(chain, row), h, cfg))


@st.composite
def atom_totals(draw):
    """A chain and a total, or a list or a float64 or int64 array of them,
    from k - 1 atoms up to 2^64 (2^63 - 1 in int64), and integral floats up
    to 1e300."""
    chain, _ = draw(chains())
    k = len(chain.isotopes)
    form = draw(st.sampled_from(("int", "list", "float64", "int64")))
    top = 2**63 - 1 if form == "int64" else 2**64
    edges = [t for t in (k - 1, k, k + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**64) if t <= top]
    totals = st.one_of(st.integers(k - 1, 3 * k), st.integers(k - 1, top), st.sampled_from(edges))
    if form == "int":
        return chain, draw(totals)
    if form == "float64":
        integral = st.floats(k - 1, 1e300).map(math.floor).map(float)
        return chain, np.array(draw(st.lists(st.one_of(totals.map(float), integral), min_size=1, max_size=8)))
    values = draw(st.lists(totals, min_size=1, max_size=8))
    return chain, values if form == "list" else np.array(values, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(instance=atom_totals())
@example(instance=(_yb((0, 0, 0, 0)), np.array([4.0, 2.0**62, 2.0**63, 1e19, 1e300])))
@example(instance=(_yb((0, 0, 0, 0)), np.array([4, 2**62 - 1, 2**62, 2**63 - 1], dtype=np.int64)))
@example(instance=(_yb((0, 0, 0, 0)), [4, 2**63 + 1]))  # numpy would make these two floats
@example(instance=(_yb((0, 0, 0, 0)), 2**64 + 3))
@example(instance=(_yb((0, 0, 0, 0)), np.array([7.0, 3.0])))
def test_allocate_atoms_matches_the_scalar_reference(instance):
    """Each row is the reference allocation of its total; the matrix is int64
    below 2^62 and Python ints from there on; a scalar total gives a tuple."""
    chain, total = instance
    k = len(chain.isotopes)
    totals = [int(t) for t in (total.tolist() if isinstance(total, np.ndarray) else
                               total if isinstance(total, list) else [total])]
    if min(totals) < k:
        with pytest.raises(AllocationError) as raised:
            allocate_atoms(chain, total)
        assert str(raised.value) == f"cannot give each of {k} isotopes an atom out of {min(totals)}"
        return
    got = allocate_atoms(chain, total)
    want = [_reference_allocation(chain, t) for t in totals]
    if isinstance(total, int):
        assert type(got) is tuple and list(got) == want[0] and all(type(n) is int for n in got)
        return
    assert got.dtype == (np.int64 if max(totals) < 2**62 else object)
    assert got.tolist() == want and all(type(n) is int for n in got.ravel().tolist())


def test_examples_reach_every_slug():
    tables = [
        _reference_table(_yb((10, 10, 10, 10)), _yb((1, 1, 1, 1)).q, _PLAIN),
        _reference_table(_yb((3000, 3000, 3000, 3000)), _SPLIT, _LOSSY),
        _reference_table(_yb((10, 10, 10, 10)), _SPLIT, _ONE_REP),
    ]
    slugs = {row.error for table in tables for row in table}
    spec = ScanSpec(axis="atom_number", grid=(1.0, 8.0), protocols=("sql",))
    slugs |= {error for *_, error in _reference_scan(_yb((1, 1, 1, 1)), _SPLIT, _PLAIN, spec)}
    assert slugs >= {"singular_fit", "no_signal", "no_contrast", "invalid_config", "allocation"}


@pytest.mark.parametrize("counts", [(2**53 + 1, 2**53, 3, 1), (10**20, 10**20 + 1, 10**19, 7)])
def test_counts_beyond_two_to_the_53(counts):
    # n - 1 of an own cat stays an integer: float(n - 1) differs from float(n) - 1 here
    cfg = replace(_PLAIN, f1=0.999999999, f2=0.9999999999)
    _same(protocol_table(_yb(counts), _SPLIT, cfg), _reference_table(_yb(counts), _SPLIT, cfg))
