"""Analytic sensitivity models for the measurement protocols.

Six strategies are compared on the same chain, deviation pattern, and
hardware parameters, in two shapes over one signal model
omega_A = Omega (q_A + theta h_A):

* per-isotope protocols produce frequency uncertainties delta omega_A that
  are combined into delta theta by a two-parameter weighted fit in which the
  common scale Omega is a marginalized nuisance

  - ``sql``              -- independent probes per isotope
  - ``squeezed``         -- spin-squeezed subarrays: xi times the SQL value
  - ``same_isotope_cat`` -- one GHZ cat per isotope, paying its own contrast

* global cats measure the projected slope directly

  - ``cross_cat_ideal``  -- single cat matched to the useful sign pattern;
                            the Heisenberg-scaling benchmark
  - ``cross_cat_noisy``  -- the same state paying the contrast of one cat
                            over all atoms
  - ``dfs_cat``          -- reversal-pair encoding in which common phase
                            noise cancels, with its own contrast model

All functions are pure; delta theta scales exactly as (R * T_avg)^(-1/2).
:func:`protocol_grid` evaluates a G x k matrix of atom counts at once with
numpy, each per-isotope value once per distinct atom count and each ``**``
and ``math`` call on a Python scalar; :func:`protocol_table` evaluates one
allocation on Python floats, gives the grid's row for it bit for bit, and
alone names a failure: the grid takes each row it flags from it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .chain import (
    DeviationPattern,
    IsotopeChain,
    _pattern_values,
    _row_fsums,
    project_deviation,
    reallocate,
)
from .rules import check_fields

__all__ = ["ProtocolConfig", "SensitivityResult", "PROTOCOLS", "UnidentifiableThetaError", "ZeroSignalError",
           "AllocationError", "ERROR_SLUGS", "squeezing_factor", "cat_contrast", "combine_classical_fit",
           "protocol_grid", "protocol_table"]

DFS_BUDGET_MODES = ("per_channel", "split")


class UnidentifiableThetaError(ValueError):
    """The deviation direction is degenerate with the common scale."""


class ZeroSignalError(ValueError):
    """The weighted orthogonal component of the deviation pattern vanishes."""


class AllocationError(ValueError):
    """The atom budget cannot give every isotope at least one probe."""


# A failed row's slug is that of the first class it is an instance of, so a subclass
# comes before its base.  ArithmeticError is a contrast that underflows: the division by
# it fails, or delta omega / delta theta (or a time scan's rescaled value) is not finite.
ERROR_SLUGS = (
    (UnidentifiableThetaError, "singular_fit"),
    (ZeroSignalError, "no_signal"),
    (AllocationError, "allocation"),
    (ArithmeticError, "no_contrast"),
    (ValueError, "invalid_config"),
)


def _slug(kind: type) -> str:
    """The slug :data:`ERROR_SLUGS` gives a failure of class ``kind``."""
    return next(slug for cls, slug in ERROR_SLUGS if issubclass(kind, cls))


# Allowed ranges: field rules, see apvsim.rules.
_POSITIVE = {"minimum": 0.0, "exclusive_min": True}
_UNIT = {"minimum": 0.0, "exclusive_min": True, "maximum": 1.0, "max_inclusive": True}
_COHERENCE = {**_POSITIVE, "allow_inf": True}
# |G| <= 6000 dB keeps xi = 10^(-G/20) a finite, nonzero float
_SQUEEZING = {"minimum": -6000.0, "maximum": 6000.0, "max_inclusive": True}


@dataclass(frozen=True)
class ProtocolConfig:
    """Experimental knobs shared by all protocols.

    omega        common signal scale Omega (Hz) in omega_A = Omega(q_A + theta h_A)
    tau          Ramsey interrogation time (s)
    c0           state-preparation base contrast
    f1, f2       one- and two-qubit gate fidelities
    p_surv       per-atom survival probability over one cycle
    t2           single-particle coherence time (s); may be math.inf
    t2_local     local dephasing time inside a reversal pair (s)
    t2_diff      residual differential coherence time after common-mode
                 cancellation (s); enters once, independent of atom number
    squeezing_db metrological squeezing gain (dB)
    rep_rate     repetitions per second R; None means 1/tau (zero dead time)
    t_avg        total averaging time (s)
    c_sql        readout contrast of unentangled measurements
    dfs_budget   atom accounting of ``dfs_cat``: "per_channel" puts N_A atoms
                 in each of an isotope's two channels, "split" divides N_A
                 between them
    """

    omega: float = field(default=1.0, metadata=_POSITIVE)
    tau: float = field(default=1.0, metadata=_POSITIVE)
    c0: float = field(default=1.0, metadata=_UNIT)
    f1: float = field(default=0.9999, metadata=_UNIT)
    f2: float = field(default=0.999, metadata=_UNIT)
    p_surv: float = field(default=1.0, metadata=_UNIT)
    t2: float = field(default=math.inf, metadata=_COHERENCE)
    t2_local: float = field(default=math.inf, metadata=_COHERENCE)
    t2_diff: float = field(default=math.inf, metadata=_COHERENCE)
    squeezing_db: float = field(default=4.0, metadata=_SQUEEZING)
    rep_rate: float | None = field(default=None, metadata=_POSITIVE)
    t_avg: float = field(default=3600.0, metadata=_POSITIVE)
    c_sql: float = field(default=1.0, metadata=_UNIT)
    dfs_budget: str = field(default="per_channel", metadata={"choices": DFS_BUDGET_MODES})

    __post_init__ = check_fields

    @property
    def reps(self) -> float:
        """Total repetition count R * T_avg."""
        r = self.rep_rate if self.rep_rate is not None else 1.0 / self.tau
        return r * self.t_avg


@dataclass(frozen=True)
class SensitivityResult:
    """One protocol's uncertainty on theta with its intermediates, at one
    allocation as Python floats and tuples (:func:`protocol_table`), or at G
    of them as arrays with a leading grid axis (:func:`protocol_grid`).

    ``per_isotope`` holds delta omega_A (Hz) in chain order for protocols
    that go through the classical fit (math.inf marks isotopes without
    atoms); ``contrast_used`` and ``eigsep`` (the generator eigenvalue
    separation) belong to global cats.  A failed row carries an ``error``
    slug and NaN delta_theta; on a grid ``error`` holds a slug or None per
    row, and the intermediates keep their values at failed rows.
    """

    protocol: str
    delta_theta: float | np.ndarray
    per_isotope: tuple[float, ...] | np.ndarray | None = None
    contrast_used: float | np.ndarray | None = None
    eigsep: float | np.ndarray | None = None
    error: str | np.ndarray | None = None


def squeezing_factor(gain_db: float) -> float:
    """Projection-noise reduction xi = 10^(-G_dB / 20)."""
    return 10.0 ** (-gain_db / 20.0)


def cat_contrast(cfg: ProtocolConfig, n_atoms, t2: float, t2_once: float = math.inf):
    """Fringe contrast of an n-atom cat.

    C_N = C0 * F1^N * F2^(N-1) * p_surv^N * exp(-N tau / t2) * exp(-tau / t2_once)
    for a cat prepared by a linear entangling chain of N single-qubit and
    N - 1 two-qubit gates.  ``t2`` dephases every atom, and the exponential
    collapse with N is what ultimately penalizes large single cats.
    ``t2_once`` enters once, independent of N: in a reversal pair common-mode
    noise cancels between the channels, so only local dephasing
    (t2 = t2_local) scales with N and the residual differential term
    (t2_once = t2_diff) does not.

    ``n_atoms`` may be an array of atom numbers; the contrasts then come
    back as a float array of its shape, each ``**`` and ``math.exp`` on a
    Python scalar so that they give exactly the scalar result.  Every element
    is computed, so the grid callers pass distinct values.  A grid leaves out
    each factor that is 1.0 at every element (C0, p_surv^N, exp(-tau / t2_once),
    and exp(-N tau / t2) at an infinite t2 where max(N) tau is finite) and
    multiplies the others in order: x * 1.0 is x, so no bit moves.  An integer N
    keeps N - 1 exact at any size.  Fewer than one atom, anywhere on a grid,
    raises ValueError.
    """
    if not (t2 > 0 and t2_once > 0):  # NaN too
        raise ValueError(f"coherence times must be positive, got {t2} and {t2_once}")
    grid = isinstance(n_atoms, np.ndarray) and n_atoms.ndim
    if (fewest := n_atoms.min(initial=1) if grid else n_atoms) < 1:
        raise ValueError(f"need at least one atom, got {fewest}")
    c0, f1, f2, p_surv, tau = cfg.c0, cfg.f1, cfg.f2, cfg.p_surv, cfg.tau
    once = math.exp(-tau / t2_once)
    if not grid:
        return c0 * f1**n_atoms * f2**(n_atoms - 1) * p_surv**n_atoms * math.exp(-n_atoms * tau / t2) * once
    ns = n_atoms.ravel().tolist()
    contrast = np.array([f1**n * f2**(n - 1) for n in ns] if c0 == 1 else [c0 * f1**n * f2**(n - 1) for n in ns])
    if p_surv != 1:
        contrast *= [p_surv**n for n in ns]
    if t2 != math.inf or not max(ns, default=1) * tau < math.inf:  # else every exponent is -0.0
        contrast *= [math.exp(-n * tau / t2) for n in ns]
    if once != 1:
        contrast *= once
    return contrast.reshape(n_atoms.shape)


def _square(dw: float) -> float:
    """dw**2 as Python computes it; math.inf where that overflows."""
    try:
        return dw**2
    except OverflowError:
        return math.inf


def _grid_fit(chain: IsotopeChain, h, dws: np.ndarray, square: np.ndarray, cfg: ProtocolConfig):
    """:func:`combine_classical_fit` at every row of the G x k ``dws``, given
    their :func:`_square` values ``square``, numpy float errors ignored: G
    delta thetas and a mask that holds every row at which the scalar fit
    raises, and may hold more."""
    y = tuple(cfg.omega * ha for ha in _pattern_values(h))
    factors = np.array(((chain.q, chain.q, y), (chain.q, y, y)))
    # w_A q_A q_A, w_A q_A y_A and w_A y_A y_A of every row, summed per row
    terms = (1.0 / square)[:, None, :] * factors[0] * factors[1]
    failed = np.zeros(len(dws), dtype=bool)
    if not (dws.min() > 0 and 0.0 < square.min() and square.max() < math.inf):  # bad or unmeasured isotope
        measured = np.isfinite(dws)
        np.copyto(terms, 0.0, where=~measured[:, None, :])  # even where Omega h_A is inf
        # a measured dw <= 0, or a 1 / dw**2 that raises: dw**2 overflows, or underflows to zero
        failed = ((measured & ((dws <= 0) | (square == 0) | (square == math.inf))).any(axis=1)
                  | (measured.sum(axis=1) < 2))
    f_qq, f_qt, f_tt = _row_fsums(terms, raising=False).T
    det = f_qq * f_tt - f_qt * f_qt
    # a NaN det, from a sum that raises, fails the test for h parallel to q;
    # det above its threshold is positive, so the square root is defined
    failed |= ((0.0 < f_tt) & (f_qq * f_tt < sys.float_info.min)) | ~(det > 1e-12 * f_qq * f_tt)
    return np.sqrt(f_qq / det), failed


def combine_classical_fit(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    per_isotope,
    cfg: ProtocolConfig,
) -> float:
    """Extract delta theta from per-isotope frequency uncertainties.

    Weighted least squares of omega_A = Omega(q_A + theta h_A) around
    theta = 0 with weights 1/delta omega_A^2: the 2x2 information matrix over
    (Omega, theta) is inverted and the sqrt of the (theta, theta) element of
    the inverse returned, i.e. Omega is marginalized, not assumed known.

    Entries of ``per_isotope`` that are None, infinite, or NaN are treated
    as unmeasured.  Raises :class:`UnidentifiableThetaError` when h is
    parallel to q under the given weights, and ArithmeticError when the
    weights are too small for that test to be made in floating point.
    """
    hv = _pattern_values(h)
    if not len(hv) == len(per_isotope) == len(chain.isotopes):
        raise ValueError("h and per_isotope must match the chain length")
    rows = []  # (q_A, Omega h_A, w_A) of each measured isotope
    for qa, ha, dw in zip(chain.q, hv, (math.nan if dw is None else float(dw) for dw in per_isotope)):
        if not math.isfinite(dw):
            continue
        if dw <= 0:
            raise ValueError("frequency uncertainties must be positive")
        if not 0.0 < (square := _square(dw)) < math.inf:  # dw**2 overflows, or underflows to zero
            raise ArithmeticError("a fit weight 1 / delta omega^2 is out of range")
        rows.append((qa, cfg.omega * ha, 1.0 / square))
    if len(rows) < 2:
        raise ValueError("need >= 2 isotopes with finite uncertainties")
    f_qq = math.fsum(w * x * x for x, _, w in rows)
    f_qt = math.fsum(w * x * y for x, y, w in rows)
    f_tt = math.fsum(w * y * y for _, y, w in rows)
    if 0.0 < f_tt and f_qq * f_tt < sys.float_info.min:
        raise ArithmeticError("the fit weights underflow")
    det = f_qq * f_tt - f_qt * f_qt
    if det <= 1e-12 * f_qq * f_tt:  # above it det is positive, so the square root is defined
        raise UnidentifiableThetaError("deviation pattern is parallel to the weak-charge pattern under these weights")
    return math.sqrt(f_qq / det)


@dataclass(frozen=True)
class _PerIsotope:
    """delta omega_A of every isotope with atoms, fed to the classical fit:
    1 / (2 pi C tau sqrt(N_A R T_avg)) at the standard quantum limit, xi
    times that when ``squeezed``, and 1 / (2 pi C_{N_A} tau N_A sqrt(R T_avg))
    for one cat per isotope (``own_cat``), paying only its own contrast."""

    squeezed: bool = False
    own_cat: bool = False

    def evaluate(self, chain, h, levels, where, cfg, reps, xi) -> tuple[np.ndarray, np.ndarray, dict]:
        """The G x k grid whose counts are ``levels[where]`` and a mask of its rows that may fail: each
        value of an isotope depends on its count alone, so it is computed once per level."""
        weights = levels.astype(float)
        present = weights >= 1
        if self.own_cat:  # the contrast of one atom stands in on an isotope without
            contrast = cat_contrast(cfg, np.maximum(levels, 1), cfg.t2)
            den = 2.0 * math.pi * contrast * cfg.tau * weights * math.sqrt(reps)
        else:
            den = 2.0 * math.pi * cfg.c_sql * cfg.tau * np.sqrt(weights * reps)
        dws = 1.0 / den
        if self.squeezed:
            dws *= xi
        dws[~present] = math.inf
        # math.inf on an isotope with atoms: an overflow, or a division by zero that a scalar loop raises
        infinite = present & ((den == 0) | (dws == math.inf))
        square = np.array([_square(dw) for dw in dws.tolist()])
        dws = dws[where]
        delta, failed = _grid_fit(chain, h, dws, square[where], cfg)
        return delta, failed | infinite[where].any(axis=1), {"per_isotope": dws}

    def row(self, chain, h, proj, cfg, reps, xi) -> tuple[float, dict]:
        """:meth:`evaluate` at the chain's allocation, raising at its first failure."""
        dws = []
        for n in chain.n_atoms:
            if n < 1:
                dws.append(math.inf)
                continue
            den = (2.0 * math.pi * cat_contrast(cfg, n, cfg.t2) * cfg.tau * n * math.sqrt(reps) if self.own_cat
                   else 2.0 * math.pi * cfg.c_sql * cfg.tau * math.sqrt(n * reps))
            dws.append(1.0 / den * xi if self.squeezed else 1.0 / den)
            if dws[-1] == math.inf:
                raise ArithmeticError("a per-isotope frequency uncertainty is not finite")
        return combine_classical_fit(chain, h, dws, cfg), {"per_isotope": tuple(dws)}


@dataclass(frozen=True)
class _GlobalCat:
    """One cat over the whole chain, matched to the sign pattern of h_perp.

    delta theta = 1 / (sep C sqrt(R T_avg)) with the eigenvalue separation
    sep = 2 pi tau Omega k sum_A N_A |h_perp_A|, linear in the atom number.
    ``noisy`` False is the ideal contrast C = 1; otherwise C is the
    :func:`cat_contrast` of one cat over k * N atoms.  ``paired`` is the
    reversal-pair encoding: each isotope occupies two channels with opposite
    signal sign, so under the "per_channel" budget k = 2 (the differential
    phase doubles) and the contrast dephases with t2_local per atom and
    t2_diff once.  Otherwise k = 1 and the contrast dephases with t2.
    """

    noisy: bool
    paired: bool = False

    def evaluate(self, weighted_l1, totals, cfg, reps) -> tuple[np.ndarray, dict]:
        k, t2, t2_once = 1.0, cfg.t2, math.inf
        if self.paired:
            k = 2.0 if cfg.dfs_budget == "per_channel" else 1.0
            t2, t2_once = cfg.t2_local, cfg.t2_diff
        sep = 2.0 * math.pi * cfg.tau * cfg.omega * k * weighted_l1
        contrast = (cat_contrast(cfg, k * totals, t2, t2_once) if self.noisy
                    else np.ones(len(totals)) if isinstance(totals, np.ndarray) else 1.0)
        return 1.0 / (sep * contrast * math.sqrt(reps)), {"contrast_used": contrast, "eigsep": sep}

    def row(self, chain, h, proj, cfg, reps, xi) -> tuple[float, dict]:
        """:meth:`evaluate` at the chain's allocation, after the test for a
        signal that :func:`protocol_grid` makes once for all global cats."""
        scale = math.fsum(n * abs(hp + proj.beta * qa) for n, hp, qa in zip(chain.n_atoms, proj.h_perp, chain.q))
        if proj.weighted_l1 <= 1e-12 * scale:
            raise ZeroSignalError("deviation pattern has no weighted component orthogonal to q")
        return self.evaluate(proj.weighted_l1, float(chain.total_atoms), cfg, reps)


_REGISTRY = {
    "sql": _PerIsotope(),
    "squeezed": _PerIsotope(squeezed=True),
    "same_isotope_cat": _PerIsotope(own_cat=True),
    "cross_cat_ideal": _GlobalCat(noisy=False),
    "cross_cat_noisy": _GlobalCat(noisy=True),
    "dfs_cat": _GlobalCat(noisy=True, paired=True),
}

PROTOCOLS = tuple(_REGISTRY)


def _check_known(protocols: tuple[str, ...]):
    """Raise ValueError naming each requested protocol that is not in :data:`PROTOCOLS`."""
    if unknown := [name for name in protocols if name not in _REGISTRY]:
        raise ValueError(f"unknown protocols {unknown}; choose from {PROTOCOLS}")


def protocol_grid(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    counts: np.ndarray,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> Iterator[SensitivityResult]:
    """Evaluate the requested protocols at every row of the G x k atom
    ``counts`` made by :func:`apvsim.scans.allocate_atoms`, one
    :class:`SensitivityResult` of G rows at a time in request order, so that
    a grid holds one protocol's intermediates at once.  Each protocol flags
    the rows that may fail, and each flagged row takes its delta_theta and
    error from :func:`protocol_table` on the chain reallocated to it, so
    that one kernel names failures.  Caller errors raise at the call."""
    _check_known(protocols)
    weights = counts.astype(float)
    proj = project_deviation(chain, h, weights)
    xi, reps = squeezing_factor(cfg.squeezing_db), cfg.reps
    if any(isinstance(_REGISTRY[name], _PerIsotope) for name in protocols):
        levels, where = np.unique(counts, return_inverse=True)
        where = where.reshape(counts.shape)  # numpy versions differ on its shape
    if any(isinstance(_REGISTRY[name], _GlobalCat) for name in protocols):
        # A global cat fails where the reconstructed sum_A N_A |h_A| shows h_perp to be rounding dust
        # left over from an h parallel to q.  The numpy sum of its k terms (>= 0) times 1 + 4k 2^-53 is
        # at least protocol_table's math.fsum, so the mask holds each row failing there (NaN, inf too).
        totals = counts.sum(axis=1).astype(float)
        with np.errstate(all="ignore"):
            scale = (weights * np.abs(proj.h_perp + proj.beta[:, None] * np.array(chain.q))).sum(axis=1)
            no_signal = ~(proj.weighted_l1 > 1e-12 * (scale * (1 + 4 * len(chain.q) * 2.0**-53)))
    at_row = functools.cache(lambda row: reallocate(chain, counts[row].tolist()))  # shared by the protocols

    def result(name: str) -> SensitivityResult:
        model = _REGISTRY[name]
        with np.errstate(all="ignore"):  # the rows that overflow or divide by zero are flagged
            if isinstance(model, _PerIsotope):
                delta, failed, intermediates = model.evaluate(chain, h, levels, where, cfg, reps, xi)
            else:
                (delta, intermediates), failed = model.evaluate(proj.weighted_l1, totals, cfg, reps), no_signal
            failed = failed | ~((0 < delta) & (delta < math.inf)) | (reps < 1)
        error = np.empty(len(delta), dtype=object)  # every row None
        for row in np.flatnonzero(failed).tolist():
            (one,) = protocol_table(at_row(row), h, cfg, (name,))
            delta[row], error[row] = one.delta_theta, one.error
        return SensitivityResult(name, delta, error=error, **intermediates)

    return map(result, protocols)


def protocol_table(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> list[SensitivityResult]:
    """Evaluate the requested protocols on one (chain, pattern, config): row 0
    of :func:`protocol_grid` over the chain's own allocation, computed on
    Python floats.  Each protocol's tests raise in a fixed order, and
    :data:`ERROR_SLUGS` gives the row the slug of the first exception.

    A protocol that cannot be evaluated contributes a row with an error
    slug instead of aborting the table.  Output order follows the request.
    """
    _check_known(protocols)
    proj = project_deviation(chain, h)
    xi, reps = squeezing_factor(cfg.squeezing_db), cfg.reps
    table = []
    for name in protocols:
        try:
            if reps < 1:
                raise ValueError(f"need rep_rate * t_avg >= 1 for a meaningful estimate, got {reps}")
            delta, intermediates = _REGISTRY[name].row(chain, h, proj, cfg, reps, xi)
            if not 0 < delta < math.inf:
                raise ArithmeticError("delta theta is not a finite positive number")
            table.append(SensitivityResult(name, delta, **intermediates))
        except (ValueError, ArithmeticError) as exc:
            table.append(SensitivityResult(name, math.nan, error=_slug(type(exc))))
    return table
