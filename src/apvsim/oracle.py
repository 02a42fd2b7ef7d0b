"""Exact small-register state-vector oracle.

Brute-force validation of the analytic sensitivity formulas: build the
probe states explicitly over the 2^M computational basis, build the
(diagonal) phase generator, and compute variances, fringes, and Fisher
information by enumeration.

Basis convention: qubit j maps to bit j of the basis index, and bit value 0
means sigma_z eigenvalue +1.  Generators are diagonal, so evolution is a
per-basis-state phase and everything stays exact to floating precision.

States are immutable snapshots; every operation returns a new value.
Every sum runs in an order fixed by the register alone, not by how many
angles one call takes, so results are reproducible bit for bit and a sweep
gives each of its scalar calls' values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import IsotopeChain, ProjectedPattern

__all__ = [
    "QUBIT_CAP",
    "STATE_KINDS",
    "StateVector",
    "DiagonalGenerator",
    "NonCatStateError",
    "NonInformativePointError",
    "build_state",
    "build_generator",
    "build_common_generator",
    "qfi",
    "ramsey_evolve",
    "parity_fringe",
    "cfi_parity",
    "common_noise_check",
]

QUBIT_CAP = 14

# cfi_parity: finite-difference step as a fraction of the fringe period, and
# the distance from 0 or 1 within which the fringe counts as an extremum.
_CFI_REL_STEP = 1e-6
_FRINGE_P_TOL = 1e-12

STATE_KINDS = ("product_x", "ghz_per_isotope", "cross_cat", "dfs_cat")


class NonCatStateError(ValueError):
    """Branch-parity readout needs a state with exactly two branches."""


class NonInformativePointError(ValueError):
    """The fringe probability sits at 0 or 1; the slope carries no information."""


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over the computational basis plus per-qubit labels.

    ``labels[j] = (isotope_index, channel)`` with channel +1/-1 for the two
    reversal channels of a paired register and 0 for an unpaired one.
    """

    amplitudes: np.ndarray
    labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True)
class DiagonalGenerator:
    """Diagonal phase generator: diag[b] = sum_j g_j z_j(b).

    ``per_qubit_coeff`` holds the g_j; z_j(b) is +1 when bit j of b is 0.
    """

    diag: np.ndarray
    per_qubit_coeff: tuple[float, ...]
    labels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.diag.setflags(write=False)


def _register(chain: IsotopeChain, dfs: bool) -> tuple[tuple[int, int], ...]:
    """Per-qubit labels of the chain's register, paired when ``dfs``; it must
    hold from 1 to QUBIT_CAP qubits."""
    channels = (+1, -1) if dfs else (0,)
    m = len(channels) * sum(iso.n_atoms for iso in chain.isotopes)
    if m == 0:
        raise ValueError("register is empty: no isotope carries atoms")
    if m > QUBIT_CAP:
        raise ValueError(f"register needs {m} qubits, exceeding the cap of {QUBIT_CAP}")
    return tuple((i, chan) for i, iso in enumerate(chain.isotopes) for chan in channels for _ in range(iso.n_atoms))


def _generator(labels, coeffs: list[float]) -> DiagonalGenerator:
    # each qubit doubles the vector as its new highest bit, so qubit j is
    # bit j; its bit-0 half (z = +1) comes first
    diag = np.zeros(1)
    for g in coeffs:
        diag = np.concatenate((diag + g, diag - g))
    return DiagonalGenerator(diag=diag, per_qubit_coeff=tuple(coeffs), labels=labels)


def build_generator(
    chain: IsotopeChain,
    proj: ProjectedPattern,
    tau: float,
    omega: float,
    dfs: bool = False,
) -> DiagonalGenerator:
    """Signal generator: g_j = pi tau Omega h_perp_A(j) per qubit.

    On a paired (dfs=True) register the sign of g_j is flipped on the
    minus channel -- the signal is reversal-odd, which is what lets the cat
    add signal phase while common noise cancels.
    """
    labels = _register(chain, dfs)
    return _generator(labels, [math.pi * tau * omega * proj.h_perp[i] * (chan or 1) for i, chan in labels])


def build_common_generator(
    chain: IsotopeChain,
    tau: float,
    omega: float,
    dfs: bool = False,
) -> DiagonalGenerator:
    """Common-noise generator: the same coefficient pi tau Omega on every
    qubit, with no channel sign flip (ordinary Zeeman or scalar shifts do
    not know about the reversal)."""
    labels = _register(chain, dfs)
    return _generator(labels, [math.pi * tau * omega] * len(labels))


def _branch_indices(labels, proj: ProjectedPattern) -> tuple[int, int]:
    """Basis index of the sign-matched branch and of its global flip."""
    b1 = 0
    for j, (iso_idx, chan) in enumerate(labels):
        s = proj.signs[iso_idx] * (chan if chan != 0 else 1)
        if s < 0:
            b1 |= 1 << j
    return b1, b1 ^ ((1 << len(labels)) - 1)


def build_state(
    kind: str,
    chain: IsotopeChain,
    proj: ProjectedPattern | None = None,
    phase: float = 0.0,
) -> StateVector:
    """Construct one of the probe states over the chain's register.

    * "product_x":       every qubit in (|0> + |1>)/sqrt(2)
    * "ghz_per_isotope": an independent all-up/all-down cat per isotope
    * "cross_cat":       one global two-branch cat whose branches follow the
                         sign pattern of ``proj`` (and its global flip)
    * "dfs_cat":         the cross cat on a paired register, with the minus
                         channel holding the opposite sign in each branch

    ``phase`` is the relative phase between cat branches.  ``proj`` is
    required for the sign-matched kinds.
    """
    if kind not in STATE_KINDS:
        raise ValueError(f"unknown state kind {kind!r}; choose from {STATE_KINDS}")
    labels = _register(chain, dfs=(kind == "dfs_cat"))
    m = len(labels)
    dim = 1 << m
    amp = np.zeros(dim, dtype=np.complex128)

    if kind == "product_x":
        amp[:] = 2.0 ** (-m / 2.0)
    elif kind == "ghz_per_isotope":
        blocks: dict[int, int] = {}
        for j, (iso_idx, _) in enumerate(labels):
            blocks[iso_idx] = blocks.get(iso_idx, 0) | (1 << j)
        masks = [blocks[i] for i in sorted(blocks)]
        k = len(masks)
        mag = 2.0 ** (-k / 2.0)
        for combo in range(1 << k):
            idx = 0
            for a, mask in enumerate(masks):
                if (combo >> a) & 1:
                    idx |= mask
            amp[idx] = mag * np.exp(1j * phase * bin(combo).count("1"))
    else:
        if proj is None:
            raise ValueError(f"state kind {kind!r} needs a projected pattern for its signs")
        b1, b2 = _branch_indices(labels, proj)
        amp[b1] = 1.0 / math.sqrt(2.0)
        amp[b2] = np.exp(1j * phase) / math.sqrt(2.0)

    return StateVector(amplitudes=amp, labels=labels)


def _check_pair(state: StateVector, gen: DiagonalGenerator):
    if state.labels != gen.labels:
        raise ValueError("state and generator were built over different registers")


def qfi(state: StateVector, gen: DiagonalGenerator) -> float:
    """Quantum Fisher information of a pure state: 4 Var(G)."""
    _check_pair(state, gen)
    p = np.abs(state.amplitudes) ** 2
    mean = float(np.dot(p, gen.diag))
    mean_sq = float(np.dot(p, gen.diag * gen.diag))
    return 4.0 * (mean_sq - mean * mean)


def ramsey_evolve(state: StateVector, gen: DiagonalGenerator, theta: float) -> StateVector:
    """Phase evolution amp[b] -> amp[b] * exp(-i theta diag[b])."""
    _check_pair(state, gen)
    amp = state.amplitudes * np.exp(-1j * theta * gen.diag)
    return StateVector(amplitudes=amp, labels=state.labels)


def _cat_branches(state: StateVector, gen: DiagonalGenerator) -> tuple[int, int]:
    """Indices of the two populated branches, higher generator eigenvalue first."""
    mags = np.abs(state.amplitudes)
    nz = np.flatnonzero(mags > 1e-9 * mags.max())
    if len(nz) != 2:
        raise NonCatStateError(
            f"branch-parity readout needs exactly 2 populated branches, found {len(nz)}"
        )
    i, j = int(nz[0]), int(nz[1])
    if gen.diag[i] >= gen.diag[j]:
        return i, j
    return j, i


def _fringe(state: StateVector, gen: DiagonalGenerator, hi: int, lo: int, thetas: np.ndarray):
    amp, diag = state.amplitudes, gen.diag
    a = amp[hi] * np.exp(-1j * thetas * diag[hi]) + amp[lo] * np.exp(-1j * thetas * diag[lo])
    # hypot rounds as the scalar abs() does; np.abs on a complex array may not
    return np.hypot(a.real, a.imag) ** 2 / 2.0


def parity_fringe(state: StateVector, gen: DiagonalGenerator, theta: float | np.ndarray) -> float | np.ndarray:
    """Probability of the branch-symmetric outcome after evolving by theta.

    For a two-branch cat this is the interference fringe
    p(theta) = (1 + C cos(theta * dlam + phi)) / 2, with dlam the eigenvalue
    separation of the branches and phi the cat's internal phase.  ``theta``
    is a float or an array of angles; an array gives an array.
    """
    _check_pair(state, gen)
    thetas = np.asarray(theta, dtype=float)
    p = _fringe(state, gen, *_cat_branches(state, gen), thetas)
    return p if thetas.ndim else float(p)


def cfi_parity(state: StateVector, gen: DiagonalGenerator, theta: float | np.ndarray) -> float | np.ndarray:
    """Classical Fisher information of the branch-parity readout at theta.

    (dp/dtheta)^2 / (p (1 - p)) with the slope by central finite difference,
    step 1e-6 times the fringe period.  At a fringe extremum the
    outcome distribution is deterministic and the point carries no slope
    information; that raises :class:`NonInformativePointError`.  ``theta``
    is a float or an array of angles, and any extremum among them raises.
    """
    _check_pair(state, gen)
    thetas = np.asarray(theta, dtype=float)
    hi, lo = _cat_branches(state, gen)
    dlam = float(gen.diag[hi] - gen.diag[lo])
    if dlam <= 0:
        raise ValueError("branches are degenerate; the fringe has no period")
    p = _fringe(state, gen, hi, lo, thetas)
    extreme = p[(p <= _FRINGE_P_TOL) | (p >= 1.0 - _FRINGE_P_TOL)]
    if extreme.size:
        raise NonInformativePointError(f"fringe probability {extreme[0]} is at an extremum")
    step = _CFI_REL_STEP * 2.0 * math.pi / dlam
    up, down = (_fringe(state, gen, hi, lo, thetas + shift) for shift in (step, -step))
    cfi = ((up - down) / (2.0 * step)) ** 2 / (p * (1.0 - p))
    return cfi if thetas.ndim else float(cfi)


def common_noise_check(state: StateVector, gen: DiagonalGenerator, phase: float | np.ndarray) -> float | np.ndarray:
    """|<psi| U(phase) |psi>| for the phase evolution generated by ``gen``.

    Equals 1 for any phase when both branches carry the same eigenvalue,
    which is exactly the decoherence-free condition of the paired register
    under common noise.  ``phase`` is a float or an array of phases; an
    array gives an array.
    """
    _check_pair(state, gen)
    phases = np.asarray(phase, dtype=float)
    p = np.abs(state.amplitudes) ** 2
    overlap = (np.exp(-1j * phases[..., None] * gen.diag) * p).sum(axis=-1)
    out = np.hypot(overlap.real, overlap.imag)
    return out if phases.ndim else float(out)
