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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .chain import DeviationPattern, IsotopeChain, ProjectedPattern, _pattern_values, project_deviation

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


def cat_contrast(cfg: ProtocolConfig, n_atoms: float, t2: float, t2_once: float = math.inf) -> float:
    """Fringe contrast of an n-atom cat.

    C_N = C0 * F1^n1 * F2^n2 * p_surv^N * exp(-N tau / t2) * exp(-tau / t2_once).
    ``t2`` dephases every atom, and the exponential collapse with N is what
    ultimately penalizes large single cats.  ``t2_once`` enters once,
    independent of N: in a reversal pair common-mode noise cancels between
    the channels, so only local dephasing (t2 = t2_local) scales with N and
    the residual differential term (t2_once = t2_diff) does not.
    """
    if t2 <= 0 or t2_once <= 0:
        raise ValueError(f"coherence times must be positive, got {t2} and {t2_once}")
    n1, n2 = gate_counts(n_atoms, cfg.gate_count_model)
    return (
        cfg.c0 * cfg.f1**n1 * cfg.f2**n2 * cfg.p_surv**n_atoms
        * math.exp(-n_atoms * cfg.tau / t2) * math.exp(-cfg.tau / t2_once)
    )


def combine_classical_fit(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    per_isotope: tuple[float, ...] | list[float],
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
    if len(hv) != len(chain.isotopes) or len(per_isotope) != len(chain.isotopes):
        raise ValueError("h and per_isotope must match the chain length")
    rows = []
    for qa, ha, dw in zip(chain.q, hv, per_isotope):
        if dw is None or not math.isfinite(dw):
            continue
        if dw <= 0:
            raise ValueError(f"frequency uncertainties must be positive, got {dw}")
        rows.append((qa, cfg.omega * ha, 1.0 / dw**2))
    if len(rows) < 2:
        raise ValueError(f"need >= 2 isotopes with finite uncertainties, got {len(rows)}")
    f_qq = math.fsum(w * x * x for x, _, w in rows)
    f_qt = math.fsum(w * x * y for x, y, w in rows)
    f_tt = math.fsum(w * y * y for _, y, w in rows)
    if 0.0 < f_tt and f_qq * f_tt < sys.float_info.min:
        raise ArithmeticError("the fit weights underflow")
    det = f_qq * f_tt - f_qt * f_qt
    if det <= 1e-12 * f_qq * f_tt:
        raise UnidentifiableThetaError(
            "deviation pattern is parallel to the weak-charge pattern under these weights"
        )
    return math.sqrt(f_qq / det)


def _probe_dw(cfg: ProtocolConfig, n_atoms: int, reps: float) -> float:
    """Standard quantum limit: 1 / (2 pi C tau sqrt(N_A R T_avg))."""
    return 1.0 / (2.0 * math.pi * cfg.c_sql * cfg.tau * math.sqrt(n_atoms * reps))


def _own_cat_dw(cfg: ProtocolConfig, n_atoms: int, reps: float) -> float:
    """One cat per isotope: 1 / (2 pi C_{N_A} tau N_A sqrt(R T_avg)); the
    subarray pays only its own contrast C_{N_A}."""
    contrast = cat_contrast(cfg, n_atoms, cfg.t2)
    return 1.0 / (2.0 * math.pi * contrast * cfg.tau * n_atoms * math.sqrt(reps))


@dataclass(frozen=True)
class _PerIsotope:
    """delta omega_A = factor * dw(cfg, N_A, R T_avg) for every isotope with
    atoms, fed to :func:`combine_classical_fit`; factor is xi when squeezed."""

    dw: Callable[[ProtocolConfig, int, float], float]
    squeezed: bool = False

    def evaluate(self, name, chain, h, proj, cfg, reps, xi) -> SensitivityResult:
        dw, factor = self.dw, (xi if self.squeezed else 1.0)
        dws = tuple(
            factor * dw(cfg, iso.n_atoms, reps) if iso.n_atoms >= 1 else math.inf
            for iso in chain.isotopes
        )
        # math.inf marks isotopes without atoms; on any other it is an overflow
        if math.inf in dws and any(
            d == math.inf and iso.n_atoms >= 1 for d, iso in zip(dws, chain.isotopes)
        ):
            raise ArithmeticError("a per-isotope frequency uncertainty is not finite")
        delta = combine_classical_fit(chain, h, dws, cfg)
        return SensitivityResult(protocol=name, delta_theta=delta, per_isotope=dws)


def _input_scale(chain: IsotopeChain, proj: ProjectedPattern) -> float:
    # reconstructed sum_A N_A |h_A|, used to decide whether h_perp is just
    # rounding dust left over from an h parallel to q
    return math.fsum(
        iso.n_atoms * abs(hp + proj.beta * qa)
        for iso, hp, qa in zip(chain.isotopes, proj.h_perp, chain.q)
    )


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

    def evaluate(self, name, chain, h, proj, cfg, reps, xi) -> SensitivityResult:
        if proj.weighted_l1 <= 1e-12 * _input_scale(chain, proj):
            raise ZeroSignalError("deviation pattern has no weighted component orthogonal to q")
        k, t2, t2_once = 1.0, cfg.t2, math.inf
        if self.paired:
            if cfg.dfs_budget not in DFS_BUDGET_MODES:
                raise ValueError(f"unknown dfs budget mode {cfg.dfs_budget!r}; choose from {DFS_BUDGET_MODES}")
            k = 2.0 if cfg.dfs_budget == "per_channel" else 1.0
            t2, t2_once = cfg.t2_local, cfg.t2_diff
        sep = 2.0 * math.pi * cfg.tau * cfg.omega * k * proj.weighted_l1
        contrast = cat_contrast(cfg, k * chain.total_atoms, t2, t2_once) if self.noisy else 1.0
        return SensitivityResult(
            protocol=name,
            delta_theta=1.0 / (sep * contrast * math.sqrt(reps)),
            contrast_used=contrast,
            eigsep=sep,
        )


_REGISTRY = {
    "sql": _PerIsotope(_probe_dw),
    "squeezed": _PerIsotope(_probe_dw, squeezed=True),
    "same_isotope_cat": _PerIsotope(_own_cat_dw),
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


def protocol_table(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    protocols: tuple[str, ...] = PROTOCOLS,
) -> list[SensitivityResult]:
    """Evaluate the requested protocols on one (chain, pattern, config).

    A protocol that cannot be evaluated contributes a row with an error
    slug instead of aborting the table.  Output order follows the request.
    """
    unknown = [name for name in protocols if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown protocols {unknown}; choose from {PROTOCOLS}")
    proj = project_deviation(chain, h)
    xi = squeezing_factor(cfg.squeezing_db)
    reps = cfg.reps
    rows: list[SensitivityResult] = []
    for name in protocols:
        try:
            if reps < 1:
                raise ValueError(f"need rep_rate * t_avg >= 1 for a meaningful estimate, got {reps}")
            row = _REGISTRY[name].evaluate(name, chain, h, proj, cfg, reps, xi)
            if not math.isfinite(row.delta_theta):
                raise ArithmeticError(f"delta theta is {row.delta_theta}")
        except (ValueError, ArithmeticError) as exc:
            slug = next(slug for cls, slug in _ERROR_SLUGS if isinstance(exc, cls))
            row = SensitivityResult(protocol=name, delta_theta=math.nan, error=slug)
        rows.append(row)
    return rows
