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
:func:`protocol_grid` evaluates a G x k matrix of atom counts at once, and
:func:`protocol_table` is its one-row case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .chain import (
    _SCALAR_ROWS,
    DeviationPattern,
    IsotopeChain,
    _pattern_values,
    _row_fsums,
    project_deviation,
)
from .rules import check_fields

__all__ = [
    "ProtocolConfig",
    "SensitivityResult",
    "PROTOCOLS",
    "GATE_COUNT_MODELS",
    "UnidentifiableThetaError",
    "ZeroSignalError",
    "gate_counts",
    "squeezing_factor",
    "cat_contrast",
    "combine_classical_fit",
    "protocol_grid",
    "protocol_table",
]

# Single-qubit gates per atom of a cat; every model needs N - 1 two-qubit gates.
_N1_PER_ATOM = {"linear": 1, "log_depth": 2}
GATE_COUNT_MODELS = tuple(_N1_PER_ATOM)

DFS_BUDGET_MODES = ("per_channel", "split")


class UnidentifiableThetaError(ValueError):
    """The deviation direction is degenerate with the common scale."""


class ZeroSignalError(ValueError):
    """The weighted orthogonal component of the deviation pattern vanishes."""


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
    gate_count_model  cat-preparation circuit, see :func:`gate_counts`
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
    gate_count_model: str = field(default="linear", metadata={"choices": GATE_COUNT_MODELS})
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
    allocation as Python values (:func:`protocol_table`), or at G of them as
    arrays with a leading grid axis (:func:`protocol_grid`).

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


def gate_counts(n_atoms: float, model: str = "linear") -> tuple[float, float]:
    """Gate counts (n1, n2) needed to prepare an n-atom cat.

    "linear" is a linear entangling chain (n1 = N, n2 = N-1); "log_depth"
    trades depth for extra single-qubit gates (n1 = 2N, n2 = N-1).
    """
    if model not in GATE_COUNT_MODELS:
        raise ValueError(f"unknown gate count model {model!r}; choose from {GATE_COUNT_MODELS}")
    if n_atoms < 1:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    return _N1_PER_ATOM[model] * n_atoms, n_atoms - 1


def squeezing_factor(gain_db: float) -> float:
    """Projection-noise reduction xi = 10^(-G_dB / 20)."""
    return 10.0 ** (-gain_db / 20.0)


def _map_distinct(fn: Callable, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of ``values``, called on Python scalars so that
    ``**`` and ``math`` give exactly the scalar results, as a float array of
    the same shape.  A large array calls ``fn`` once per distinct value."""
    flat = values.ravel()
    if flat.size < _SCALAR_ROWS:
        return np.array([fn(v) for v in flat.tolist()], dtype=float).reshape(values.shape)
    distinct, where = np.unique(flat, return_inverse=True)  # -0.0 joins 0.0
    return np.array([fn(v) for v in distinct.tolist()], dtype=float)[where].reshape(values.shape)


def cat_contrast(cfg: ProtocolConfig, n_atoms, t2: float, t2_once: float = math.inf):
    """Fringe contrast of an n-atom cat.

    C_N = C0 * F1^n1 * F2^n2 * p_surv^N * exp(-N tau / t2) * exp(-tau / t2_once).
    ``t2`` dephases every atom, and the exponential collapse with N is what
    ultimately penalizes large single cats.  ``t2_once`` enters once,
    independent of N: in a reversal pair common-mode noise cancels between
    the channels, so only local dephasing (t2 = t2_local) scales with N and
    the residual differential term (t2_once = t2_diff) does not.

    ``n_atoms`` may be an array of atom numbers; the contrasts then come
    back as a float array of its shape.  An integer N keeps n2 = N - 1 exact
    at any size.
    """
    if t2 <= 0 or t2_once <= 0:
        raise ValueError(f"coherence times must be positive, got {t2} and {t2_once}")
    values = np.asarray(n_atoms)
    gate_counts(values.min() if values.size else 1, cfg.gate_count_model)  # the checks, once per call
    c0, f1, f2, p_surv, tau = cfg.c0, cfg.f1, cfg.f2, cfg.p_surv, cfg.tau
    per_atom, once = _N1_PER_ATOM[cfg.gate_count_model], math.exp(-tau / t2_once)

    def contrast(n):
        return c0 * f1**(per_atom * n) * f2**(n - 1) * p_surv**n * math.exp(-n * tau / t2) * once

    if values.ndim == 0:
        return contrast(n_atoms)
    return _map_distinct(contrast, values)


def _square(dw: float) -> float:
    """dw**2 as Python computes it; math.inf where that overflows."""
    try:
        return dw**2
    except OverflowError:
        return math.inf


def _grid_fit(chain: IsotopeChain, h, dws: np.ndarray, cfg: ProtocolConfig):
    """:func:`combine_classical_fit` at every row of the G x k ``dws``, numpy
    float errors ignored: G delta thetas and the (row mask, exception) stages."""
    square = _map_distinct(_square, dws)
    y = tuple(cfg.omega * ha for ha in _pattern_values(h))
    factors = np.array(((chain.q, chain.q, y), (chain.q, y, y)))
    # w_A q_A q_A, w_A q_A y_A and w_A y_A y_A of every row, summed per row
    terms = (1.0 / square)[:, None, :] * factors[0] * factors[1]
    stages = []
    if not (dws.min() > 0 and 0.0 < square.min() and square.max() < math.inf):  # bad or unmeasured isotope
        measured = np.isfinite(dws)
        np.copyto(terms, 0.0, where=~measured[:, None, :])  # even where Omega h_A is inf
        # a row fails at its first measured isotope with dw <= 0, or with
        # a 1 / dw**2 that raises: dw**2 overflows, or underflows to zero
        nonpositive = measured & (dws <= 0)
        bad = nonpositive | (measured & ((square == 0) | (square == math.inf)))
        stages = [
            (nonpositive[np.arange(len(dws)), bad.argmax(axis=1)],
             ValueError("frequency uncertainties must be positive")),
            (bad.any(axis=1), ArithmeticError("a fit weight 1 / delta omega^2 is out of range")),
            (measured.sum(axis=1) < 2, ValueError("need >= 2 isotopes with finite uncertainties")),
        ]
    f_qq, f_qt, f_tt = _row_fsums(terms, stages).T
    det = f_qq * f_tt - f_qt * f_qt
    stages.append(((0.0 < f_tt) & (f_qq * f_tt < sys.float_info.min),
                   ArithmeticError("the fit weights underflow")))
    # det above the threshold is positive, so the square root is defined
    stages.append((det <= 1e-12 * f_qq * f_tt, UnidentifiableThetaError(
        "deviation pattern is parallel to the weak-charge pattern under these weights")))
    return np.sqrt(f_qq / det), stages


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
    dws = np.array([per_isotope], dtype=float)
    if len(_pattern_values(h)) != len(chain.isotopes) or dws.shape != (1, len(chain.isotopes)):
        raise ValueError("h and per_isotope must match the chain length")
    with np.errstate(all="ignore"):
        delta, stages = _grid_fit(chain, h, dws, cfg)
    for failed, exc in stages:  # the first stage that fails the row
        if failed[0]:
            raise exc
    return delta.item()


@dataclass(frozen=True)
class _PerIsotope:
    """delta omega_A of every isotope with atoms, fed to the classical fit:
    1 / (2 pi C tau sqrt(N_A R T_avg)) at the standard quantum limit, xi
    times that when ``squeezed``, and 1 / (2 pi C_{N_A} tau N_A sqrt(R T_avg))
    for one cat per isotope (``own_cat``), paying only its own contrast."""

    squeezed: bool = False
    own_cat: bool = False

    def evaluate(self, chain, h, counts, weights, cfg, reps, xi, stages) -> tuple[np.ndarray, dict]:
        present = weights >= 1
        if self.own_cat:  # the contrast of one atom stands in on an isotope without
            contrast = cat_contrast(cfg, np.maximum(counts, 1), cfg.t2)
            den = 2.0 * math.pi * contrast * cfg.tau * weights * math.sqrt(reps)
        else:
            den = 2.0 * math.pi * cfg.c_sql * cfg.tau * np.sqrt(weights * reps)
        dws = 1.0 / den
        if self.squeezed:
            dws *= xi
        dws[~present] = math.inf
        # on an isotope with atoms, math.inf is an overflow, or a division
        # by zero that a scalar loop raises
        stages.append(((present & ((den == 0) | (dws == math.inf))).any(axis=1),
                       ArithmeticError("a per-isotope frequency uncertainty is not finite")))
        delta, fit = _grid_fit(chain, h, dws, cfg)
        stages += fit
        return delta, {"per_isotope": dws}


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
        contrast = cat_contrast(cfg, k * totals, t2, t2_once) if self.noisy else np.ones(len(totals))
        return 1.0 / (sep * contrast * math.sqrt(reps)), {"contrast_used": contrast, "eigsep": sep}


_REGISTRY = {
    "sql": _PerIsotope(),
    "squeezed": _PerIsotope(squeezed=True),
    "same_isotope_cat": _PerIsotope(own_cat=True),
    "cross_cat_ideal": _GlobalCat(noisy=False),
    "cross_cat_noisy": _GlobalCat(noisy=True),
    "dfs_cat": _GlobalCat(noisy=True, paired=True),
}

PROTOCOLS = tuple(_REGISTRY)

# First match wins.  ArithmeticError is a contrast that underflows: the
# division by it fails, or delta omega / delta theta is not finite.
_ERROR_SLUGS = (
    (UnidentifiableThetaError, "singular_fit"),
    (ZeroSignalError, "no_signal"),
    (ArithmeticError, "no_contrast"),
    (ValueError, "invalid_config"),
)


def _slugs(stages: list, delta: np.ndarray) -> np.ndarray:
    """Per row, the slug of the first stage whose mask holds it (or None); NaN in ``delta`` there."""
    out = np.empty(len(delta), dtype=object)  # every row None
    held = np.array([failed for failed, _ in stages]).any(axis=1).tolist()
    for (failed, exc), hit in zip(stages[::-1], held[::-1]):  # an earlier stage overwrites a later one
        if hit:
            out[failed] = next(slug for cls, slug in _ERROR_SLUGS if isinstance(exc, cls))
            delta[failed] = math.nan
    return out


def protocol_grid(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    counts: np.ndarray | None = None,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> Iterator[SensitivityResult]:
    """Evaluate the requested protocols at every row of the G x k atom
    ``counts`` made by :func:`apvsim.scans.allocate_atoms` (None: the chain's
    own), one :class:`SensitivityResult` of G rows at a time in request
    order, so that a grid holds one protocol's intermediates at once.  Each
    protocol lists its failures as (row mask, exception) stages in the order
    a one-row evaluation meets them; a failed row gets the slug of its first
    stage, not an abort."""
    unknown = [name for name in protocols if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown protocols {unknown}; choose from {PROTOCOLS}")
    if counts is None:
        # int64 keeps row sums exact up to 2^62 atoms; Python ints beyond
        counts = np.array([chain.n_atoms], dtype=object if chain.total_atoms >= 2**62 else np.int64)
    weights = counts.astype(float)
    proj = project_deviation(chain, h, weights)
    xi = squeezing_factor(cfg.squeezing_db)
    reps = cfg.reps
    invalid = ValueError(f"need rep_rate * t_avg >= 1 for a meaningful estimate, got {reps}")
    signal: list = []
    if any(isinstance(_REGISTRY[name], _GlobalCat) for name in protocols):
        # A global cat fails first where the reconstructed sum_A N_A |h_A|
        # shows h_perp to be rounding dust left over from an h parallel to q.
        totals = counts.sum(axis=1).astype(float)
        with np.errstate(all="ignore"):
            scale = _row_fsums(weights * np.abs(proj.h_perp + proj.beta[:, None] * np.array(chain.q)), signal)
        signal.append((proj.weighted_l1 <= 1e-12 * scale,
                       ZeroSignalError("deviation pattern has no weighted component orthogonal to q")))
    for name in protocols:
        model = _REGISTRY[name]
        with np.errstate(all="ignore"):  # the rows that overflow or divide by zero fail
            stages = [(np.ones(len(counts), dtype=bool), invalid)] if reps < 1 else []
            if isinstance(model, _PerIsotope):
                delta, intermediates = model.evaluate(chain, h, counts, weights, cfg, reps, xi, stages)
            else:
                stages += signal
                delta, intermediates = model.evaluate(proj.weighted_l1, totals, cfg, reps)
            stages.append((~((0 < delta) & (delta < math.inf)),
                           ArithmeticError("delta theta is not a finite positive number")))
            error = _slugs(stages, delta)
        yield SensitivityResult(name, delta, error=error, **intermediates)


def protocol_table(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> list[SensitivityResult]:
    """Evaluate the requested protocols on one (chain, pattern, config): the
    one-row case of :func:`protocol_grid`.

    A protocol that cannot be evaluated contributes a row with an error
    slug instead of aborting the table.  Output order follows the request.
    """
    return [_row(grid, 0) for grid in protocol_grid(chain, h, cfg, None, protocols)]


def _row(grid: SensitivityResult, i: int) -> SensitivityResult:
    """Row ``i`` of a :func:`protocol_grid` result as Python values."""
    if grid.error[i] is not None:
        return SensitivityResult(grid.protocol, math.nan, error=grid.error[i])
    return SensitivityResult(grid.protocol, grid.delta_theta[i].item(), *(
        None if value is None else tuple(value[i].tolist()) if value.ndim > 1 else value[i].item()
        for value in (grid.per_isotope, grid.contrast_used, grid.eigsep)))
