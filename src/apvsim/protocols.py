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
The evaluation runs over a G x k matrix of atom counts at once
(:func:`protocol_grid`); :func:`protocol_table` is its one-row case, and
the grid gives every row the value and error slug of a one-row call.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .chain import (
    DeviationPattern,
    IsotopeChain,
    ProjectedPattern,
    _pattern_values,
    _row_fsums,
    project_deviation,
)

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
    "ProtocolColumn",
    "protocol_grid",
    "protocol_table",
]

GATE_COUNT_MODELS = ("linear", "log_depth")

DFS_BUDGET_MODES = ("per_channel", "split")


class UnidentifiableThetaError(ValueError):
    """The deviation direction is degenerate with the common scale."""


class ZeroSignalError(ValueError):
    """The weighted orthogonal component of the deviation pattern vanishes."""


# Allowed ranges, read by the scenario parser from each field's metadata.
_POSITIVE = {"minimum": 0.0, "exclusive_min": True}
_UNIT = {"minimum": 0.0, "exclusive_min": True, "maximum": 1.0, "max_inclusive": True}
_COHERENCE = {**_POSITIVE, "allow_inf": True}


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
    squeezing_db: float = 4.0
    rep_rate: float | None = field(default=None, metadata=_POSITIVE)
    t_avg: float = field(default=3600.0, metadata=_POSITIVE)
    c_sql: float = field(default=1.0, metadata=_UNIT)
    gate_count_model: str = field(default="linear", metadata={"choices": GATE_COUNT_MODELS})
    dfs_budget: str = field(default="per_channel", metadata={"choices": DFS_BUDGET_MODES})

    @property
    def reps(self) -> float:
        """Total repetition count R * T_avg."""
        r = self.rep_rate if self.rep_rate is not None else 1.0 / self.tau
        return r * self.t_avg


@dataclass(frozen=True)
class SensitivityResult:
    """One protocol's uncertainty on theta with its intermediates.

    ``per_isotope`` holds delta omega_A (Hz) in chain order for protocols
    that go through the classical fit (math.inf marks isotopes without
    atoms); ``contrast_used`` and ``eigsep`` (the generator eigenvalue
    separation) belong to global cats.  A failed row carries an ``error``
    slug and NaN delta_theta.
    """

    protocol: str
    delta_theta: float
    per_isotope: tuple[float, ...] | None = None
    contrast_used: float | None = None
    eigsep: float | None = None
    error: str | None = None


def gate_counts(n_atoms: float, model: str = "linear") -> tuple[float, float]:
    """Gate counts (n1, n2) needed to prepare an n-atom cat.

    "linear" is a linear entangling chain (n1 = N, n2 = N-1); "log_depth"
    trades depth for extra single-qubit gates (n1 = 2N, n2 = N-1).
    """
    if model not in GATE_COUNT_MODELS:
        raise ValueError(f"unknown gate count model {model!r}; choose from {GATE_COUNT_MODELS}")
    if n_atoms < 1:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    if model == "linear":
        return n_atoms, n_atoms - 1
    return 2 * n_atoms, n_atoms - 1


def squeezing_factor(gain_db: float) -> float:
    """Projection-noise reduction xi = 10^(-G_dB / 20)."""
    return 10.0 ** (-gain_db / 20.0)


def _map_distinct(fn: Callable, values: np.ndarray) -> np.ndarray:
    """``fn`` of every element of ``values``, called on Python scalars so that
    ``**`` and ``math`` give exactly the scalar results, as a float array of
    the same shape.  A large array calls ``fn`` once per distinct value."""
    flat = values.ravel()
    if flat.size <= 64:
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
    c0, f1, f2, p_surv, tau, model = cfg.c0, cfg.f1, cfg.f2, cfg.p_surv, cfg.tau, cfg.gate_count_model
    once = math.exp(-tau / t2_once)

    def contrast(n):
        n1, n2 = gate_counts(n, model)
        return c0 * f1**n1 * f2**n2 * p_surv**n * math.exp(-n * tau / t2) * once

    if np.ndim(n_atoms) == 0:
        return contrast(n_atoms)
    return _map_distinct(contrast, np.asarray(n_atoms))


class _Failures:
    """The failures of a grid evaluation, stage by stage in the order a
    one-row evaluation meets them: each row keeps its first."""

    def __init__(self, rows: int):
        self.rows = rows
        self.stages: list[tuple[np.ndarray, object]] = []

    def add(self, failed: np.ndarray | bool, exc):
        """Rows ``failed`` (True: every row) raise ``exc``, an exception or
        an object array of one exception (or None) per row."""
        if failed is True:
            failed = np.ones(self.rows, dtype=bool)
        elif not failed.any():
            return
        self.stages.append((failed, exc))

    def first(self, name=lambda exc: exc, delta: np.ndarray | None = None) -> np.ndarray | None:
        """Per row, ``name`` of its first exception or None; None when no row
        failed.  ``delta`` is set to NaN on the rows that failed."""
        if not self.stages:
            return None
        out = np.full(self.rows, None, dtype=object)
        open_rows = np.ones(self.rows, dtype=bool)
        for failed, exc in self.stages:
            rows = failed & open_rows
            if isinstance(exc, np.ndarray):
                out[rows] = [name(e) for e in exc[rows].tolist()]
            else:
                out[rows] = name(exc)
            open_rows &= ~failed
        if delta is not None:
            delta[~open_rows] = math.nan
        return out


def _fsums(terms: np.ndarray, per: int, failures: _Failures) -> np.ndarray:
    """math.fsum of each row of ``terms``, ``per`` rows to a grid row; a sum
    that raises is NaN, and its grid row fails with the first exception."""
    try:
        return _row_fsums(terms)
    except (ValueError, ArithmeticError):
        pass
    sums = np.empty(len(terms))
    raised = np.full(len(terms) // per, None, dtype=object)
    for i, row in enumerate(terms.tolist()):
        try:
            sums[i] = math.fsum(row)
        except (ValueError, ArithmeticError) as exc:
            sums[i] = math.nan
            if raised[i // per] is None:
                raised[i // per] = exc
    failures.add(np.not_equal(raised, None), raised)
    return sums


def _fit_weight(dw: float) -> float:
    """1 / dw^2; 0.0 for an unmeasured isotope, -1.0 for dw <= 0, and NaN
    where 1 / dw^2 raises."""
    if not math.isfinite(dw):
        return 0.0
    if dw <= 0:
        return -1.0
    try:
        return 1.0 / dw**2
    except ArithmeticError:  # dw**2 overflows, or underflows to zero
        return math.nan


def combine_classical_fit(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    per_isotope,
    cfg: ProtocolConfig,
):
    """Extract delta theta from per-isotope frequency uncertainties.

    Weighted least squares of omega_A = Omega(q_A + theta h_A) around
    theta = 0 with weights 1/delta omega_A^2: the 2x2 information matrix over
    (Omega, theta) is inverted and the sqrt of the (theta, theta) element of
    the inverse returned, i.e. Omega is marginalized, not assumed known.

    Entries of ``per_isotope`` that are None, infinite, or NaN are treated
    as unmeasured.  Raises :class:`UnidentifiableThetaError` when h is
    parallel to q under the given weights, and ArithmeticError when the
    weights are too small for that test to be made in floating point.

    A G x k ``per_isotope`` fits every row: the result is then the G delta
    thetas (NaN where a row fails) and an object array holding, per row,
    the exception a one-row call would raise or None (None for all rows
    when none fails).
    """
    hv = _pattern_values(h)
    k = len(chain.isotopes)
    dws = np.asarray(per_isotope, dtype=float)
    if len(hv) != k or dws.shape[-1] != k:
        raise ValueError("h and per_isotope must match the chain length")
    weights = _map_distinct(_fit_weight, dws.reshape(-1, k))
    failures = _Failures(len(weights))
    if not (weights > 0).all():  # some isotope is unmeasured, or bad
        bad = ~(weights >= 0)
        if bad.any():  # the first bad isotope of a row decides, as in a loop
            rows = bad.any(axis=1)
            first = weights[np.arange(len(weights)), bad.argmax(axis=1)]
            failures.add(rows & (first < 0), ValueError("frequency uncertainties must be positive"))
            failures.add(rows, ArithmeticError("a fit weight 1 / delta omega^2 is out of range"))
        failures.add((weights != 0).sum(axis=1) < 2,
                     ValueError("need >= 2 isotopes with finite uncertainties"))
    y = tuple(cfg.omega * ha for ha in hv)
    factors = np.array(((chain.q, chain.q, y), (chain.q, y, y)))
    with np.errstate(all="ignore"):  # the rows that overflow or divide by zero fail
        # w_A q_A q_A, w_A q_A y_A and w_A y_A y_A of every row, summed per row
        terms = weights[:, None, :] * factors[0] * factors[1]
        if not all(map(math.isfinite, y)):  # 0 * inf must not reach a sum
            terms[np.broadcast_to((weights == 0)[:, None, :], terms.shape)] = 0.0
        f_qq, f_qt, f_tt = _fsums(terms.reshape(-1, k), 3, failures).reshape(-1, 3).T
        del terms
        product = f_qq * f_tt
        failures.add((0.0 < f_tt) & (product < sys.float_info.min),
                     ArithmeticError("the fit weights underflow"))
        det = product - f_qt * f_qt
        # det above the threshold is positive, so the square root is defined
        failures.add(det <= 1e-12 * f_qq * f_tt, UnidentifiableThetaError(
            "deviation pattern is parallel to the weak-charge pattern under these weights"))
        delta = np.sqrt(f_qq / det)
    raised = failures.first(delta=delta)
    if dws.ndim > 1:
        return delta, raised
    if raised is not None:
        raise raised[0]
    return delta.item()


class _Allocations:
    """The G x k atom counts a grid evaluation runs over (None: the chain's
    own), with the float forms the formulas use: N_A, and each row's total."""

    def __init__(self, chain: IsotopeChain, counts: np.ndarray | None):
        self.chain = chain
        if counts is None:
            self.weights = np.array([[float(iso.n_atoms) for iso in chain.isotopes]])
        else:
            self.counts = counts
            self.weights = counts.astype(float)
        self.rows = len(self.weights)
        self._scale = None

    @functools.cached_property
    def counts(self) -> np.ndarray:
        # int64 keeps row sums exact up to 2^62 atoms; Python ints beyond
        wide = self.chain.total_atoms >= 2**62
        return np.array([self.chain.n_atoms], dtype=object if wide else np.int64)

    @functools.cached_property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1).astype(float)

    def input_scale(self, proj: ProjectedPattern) -> tuple[np.ndarray, _Failures]:
        """Reconstructed sum_A N_A |h_A| per row, used to decide whether h_perp
        is just rounding dust left over from an h parallel to q, with the
        rows whose sum fails."""
        if self._scale is None:
            failures = _Failures(self.rows)
            terms = self.weights * np.abs(proj.h_perp + proj.beta[:, None] * np.array(self.chain.q))
            self._scale = _fsums(terms, 1, failures), failures
        return self._scale


def _probe_denominator(cfg: ProtocolConfig, alloc: _Allocations, present: np.ndarray, reps: float):
    """Standard quantum limit: delta omega_A = 1 / (2 pi C tau sqrt(N_A R T_avg))."""
    return 2.0 * math.pi * cfg.c_sql * cfg.tau * np.sqrt(alloc.weights * reps)


def _own_cat_denominator(cfg: ProtocolConfig, alloc: _Allocations, present: np.ndarray, reps: float):
    """One cat per isotope: delta omega_A = 1 / (2 pi C_{N_A} tau N_A sqrt(R T_avg));
    the subarray pays only its own contrast C_{N_A}."""
    contrast = np.ones(alloc.weights.shape)
    contrast[present] = cat_contrast(cfg, alloc.counts[present], cfg.t2)
    return 2.0 * math.pi * contrast * cfg.tau * alloc.weights * math.sqrt(reps)


@dataclass(frozen=True)
class _PerIsotope:
    """delta omega_A = factor / denominator(cfg, N_A, R T_avg) for every
    isotope with atoms, fed to :func:`combine_classical_fit`; factor is xi
    when squeezed."""

    denominator: Callable
    squeezed: bool = False

    def evaluate(self, chain, h, proj, alloc, cfg, reps, xi, failures) -> dict:
        present = alloc.weights >= 1
        den = self.denominator(cfg, alloc, present, reps)
        dws = 1.0 / den
        if self.squeezed:
            dws *= xi
        dws[~present] = math.inf
        # math.inf marks isotopes without atoms; on any other it is an
        # overflow, or a division by zero that a scalar loop raises
        failures.add((present & ((den == 0) | (dws == math.inf))).any(axis=1),
                     ArithmeticError("a per-isotope frequency uncertainty is not finite"))
        delta, raised = combine_classical_fit(chain, h, dws, cfg)
        if raised is not None:
            failures.add(np.not_equal(raised, None), raised)
        return {"delta_theta": delta, "per_isotope": dws}


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

    def evaluate(self, chain, h, proj, alloc, cfg, reps, xi, failures) -> dict:
        scale, scale_failures = alloc.input_scale(proj)
        failures.stages.extend(scale_failures.stages)
        failures.add(proj.weighted_l1 <= 1e-12 * scale,
                     ZeroSignalError("deviation pattern has no weighted component orthogonal to q"))
        k, t2, t2_once = 1.0, cfg.t2, math.inf
        if self.paired:
            if cfg.dfs_budget not in DFS_BUDGET_MODES:
                raise ValueError(f"unknown dfs budget mode {cfg.dfs_budget!r}; choose from {DFS_BUDGET_MODES}")
            k = 2.0 if cfg.dfs_budget == "per_channel" else 1.0
            t2, t2_once = cfg.t2_local, cfg.t2_diff
        sep = 2.0 * math.pi * cfg.tau * cfg.omega * k * proj.weighted_l1
        if self.noisy:
            contrast = cat_contrast(cfg, k * alloc.totals, t2, t2_once)
        else:
            contrast = np.ones(alloc.rows)
        return {"delta_theta": 1.0 / (sep * contrast * math.sqrt(reps)),
                "contrast_used": contrast, "eigsep": sep}


_REGISTRY = {
    "sql": _PerIsotope(_probe_denominator),
    "squeezed": _PerIsotope(_probe_denominator, squeezed=True),
    "same_isotope_cat": _PerIsotope(_own_cat_denominator),
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


def _slug(exc: Exception) -> str:
    return next(slug for cls, slug in _ERROR_SLUGS if isinstance(exc, cls))


@dataclass(frozen=True)
class ProtocolColumn:
    """One protocol evaluated at G allocations.

    ``delta_theta`` holds the G values, NaN where ``error`` holds a slug
    (None elsewhere; ``error`` is None when no row failed).  ``per_isotope``
    (G x k), ``contrast_used`` and ``eigsep`` (G) are the intermediates of
    :class:`SensitivityResult`, for the protocols that have them.
    """

    protocol: str
    delta_theta: np.ndarray
    error: np.ndarray | None
    per_isotope: np.ndarray | None = None
    contrast_used: np.ndarray | None = None
    eigsep: np.ndarray | None = None

    def result(self, row: int) -> SensitivityResult:
        """The :class:`SensitivityResult` of one grid row."""
        if self.error is not None and self.error[row] is not None:
            return SensitivityResult(protocol=self.protocol, delta_theta=math.nan, error=self.error[row])
        return SensitivityResult(
            protocol=self.protocol,
            delta_theta=self.delta_theta[row].item(),
            per_isotope=None if self.per_isotope is None else tuple(self.per_isotope[row].tolist()),
            contrast_used=None if self.contrast_used is None else self.contrast_used[row].item(),
            eigsep=None if self.eigsep is None else self.eigsep[row].item(),
        )


def protocol_grid(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    counts: np.ndarray | None = None,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> Iterator[ProtocolColumn]:
    """Evaluate the requested protocols at every row of the G x k atom
    ``counts``, as :func:`apvsim.scans.allocate_atoms` makes them (None is
    the chain's own allocation).

    A row that cannot be evaluated gets the error slug of the first failure
    a one-row evaluation meets instead of aborting the grid.  The columns
    come one protocol at a time, in the requested order, so that a large
    grid holds the intermediates of one protocol at once.
    """
    unknown = [name for name in protocols if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown protocols {unknown}; choose from {PROTOCOLS}")
    alloc = _Allocations(chain, counts)
    proj = project_deviation(chain, h, alloc.weights)
    return _columns(chain, h, cfg, protocols, alloc, proj)


def _columns(chain, h, cfg, protocols, alloc, proj) -> Iterator[ProtocolColumn]:
    xi = squeezing_factor(cfg.squeezing_db)
    reps = cfg.reps
    for name in protocols:
        failures = _Failures(alloc.rows)
        with np.errstate(all="ignore"):  # the rows that overflow or divide by zero fail
            try:
                if reps < 1:
                    raise ValueError(f"need rep_rate * t_avg >= 1 for a meaningful estimate, got {reps}")
                values = _REGISTRY[name].evaluate(chain, h, proj, alloc, cfg, reps, xi, failures)
            except (ValueError, ArithmeticError) as exc:  # every row not failed yet
                failures.add(True, exc)
                values = {"delta_theta": np.full(alloc.rows, math.nan)}
        delta = values["delta_theta"]
        finite = np.isfinite(delta)
        if not finite.all():
            failures.add(~finite, ArithmeticError("delta theta is not finite"))
        yield ProtocolColumn(protocol=name, error=failures.first(_slug, delta), **values)


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
    return [column.result(0) for column in protocol_grid(chain, h, cfg, None, protocols)]
