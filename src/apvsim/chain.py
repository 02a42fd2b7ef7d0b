"""Isotope chains, weak charges, and the common-scale projection.

The signal model is one frequency per isotope,

    omega_A = Omega * (q_A + theta * h_A),

with q_A the weak-charge pattern normalized to a reference isotope, Omega an
unknown common scale, and theta a deviation from weak-charge scaling.  Any
part of a deviation pattern h_A proportional to q_A is indistinguishable from
a change of Omega, so the measurable direction is the atom-number weighted
component of h orthogonal to q; ``project_deviation`` extracts it.

All types here are immutable after construction and safe to share across
parallel scan workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

__all__ = [
    "Isotope",
    "IsotopeChain",
    "DeviationPattern",
    "ProjectedPattern",
    "weak_charge",
    "build_chain",
    "reallocate",
    "project_deviation",
]


@dataclass(frozen=True)
class Isotope:
    """One isotope of the chain with its probe allocation."""

    A: int
    Z: int
    n_atoms: int = 0

    def __post_init__(self):
        if self.A < 1:
            raise ValueError(f"mass number must be >= 1, got A={self.A}")
        if not 1 <= self.Z <= self.A:
            raise ValueError(f"proton number must satisfy 1 <= Z <= A, got Z={self.Z}, A={self.A}")
        if self.n_atoms < 0:
            raise ValueError(f"atom count must be >= 0, got n_atoms={self.n_atoms}")

    @property
    def n_neutrons(self) -> int:
        return self.A - self.Z


def weak_charge(z: int, n: int, sin2_theta_w: float) -> float:
    """Leading-order nuclear weak charge  -N + Z(1 - 4 sin^2 theta_W).

    Since 1 - 4 sin^2 theta_W is small (~0.07), the result is approximately
    minus the neutron number.
    """
    if z < 1:
        raise ValueError(f"proton number must be >= 1, got {z}")
    if n < 0:
        raise ValueError(f"neutron number must be >= 0, got {n}")
    if not 0.0 < sin2_theta_w < 0.5:
        raise ValueError(f"sin2_theta_w must lie in (0, 0.5), got {sin2_theta_w}")
    return -n + z * (1.0 - 4.0 * sin2_theta_w)


@dataclass(frozen=True)
class IsotopeChain:
    """Ordered isotope set with the normalized weak-charge pattern q.

    ``q[ref_index]`` is exactly 1.  Construct via :func:`build_chain`.
    """

    isotopes: tuple[Isotope, ...]
    ref_index: int
    sin2_theta_w: float
    q: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.isotopes)

    @property
    def n_atoms(self) -> tuple[int, ...]:
        return tuple(iso.n_atoms for iso in self.isotopes)

    @property
    def total_atoms(self) -> int:
        return sum(iso.n_atoms for iso in self.isotopes)


def build_chain(
    isotopes: Sequence[Isotope], ref_index: int, sin2_theta_w: float
) -> IsotopeChain:
    """Assemble a chain and fill q_A = Q_W(A) / Q_W(A_ref).

    Raises if any weak charge vanishes (the normalization is undefined) or
    if fewer than two isotopes are given.
    """
    isotopes = tuple(isotopes)
    if len(isotopes) < 2:
        raise ValueError(f"an isotope chain needs >= 2 isotopes, got {len(isotopes)}")
    if not 0 <= ref_index < len(isotopes):
        raise ValueError(f"ref_index {ref_index} out of range for {len(isotopes)} isotopes")
    charges = [weak_charge(iso.Z, iso.n_neutrons, sin2_theta_w) for iso in isotopes]
    for iso, qw in zip(isotopes, charges):
        if abs(qw) < 1e-12 * (iso.Z + iso.n_neutrons):
            raise ValueError(f"weak charge of A={iso.A} vanishes; pattern normalization undefined")
    q_ref = charges[ref_index]
    q = tuple(qw / q_ref for qw in charges)
    return IsotopeChain(isotopes=isotopes, ref_index=ref_index, sin2_theta_w=sin2_theta_w, q=q)


def reallocate(chain: IsotopeChain, counts: Sequence[int]) -> IsotopeChain:
    """Return a copy of the chain with new per-isotope atom counts.

    q does not depend on the allocation, so it is carried over unchanged.
    """
    if len(counts) != len(chain.isotopes):
        raise ValueError(f"got {len(counts)} counts for {len(chain.isotopes)} isotopes")
    new = tuple(replace(iso, n_atoms=int(n)) for iso, n in zip(chain.isotopes, counts))
    return replace(chain, isotopes=new)


@dataclass(frozen=True)
class DeviationPattern:
    """Assumed isotope-dependent deviation pattern h_A, in chain order."""

    h: tuple[float, ...]

    @classmethod
    def sign_split(cls, chain: IsotopeChain) -> "DeviationPattern":
        """-1 on the lighter half of the chain, +1 on the heavier half.

        With an odd chain length the middle isotope goes to the + side.
        This is an illustrative pattern, not a physics claim.
        """
        k = len(chain.isotopes)
        rank = sorted(range(k), key=lambda i: chain.isotopes[i].A)
        h = [0.0] * k
        for pos, idx in enumerate(rank):
            h[idx] = -1.0 if pos < k // 2 else 1.0
        return cls(h=tuple(h))


@dataclass(frozen=True)
class ProjectedPattern:
    """Atom-number-weighted decomposition h = beta*q + h_perp.

    ``signs`` holds s_A = sign(h_perp_A), zeroed below the tolerance used at
    construction.  ``weighted_l1`` = sum_A N_A |h_perp_A| and
    ``weighted_l2sq`` = sum_A N_A h_perp_A^2 are the norms the sensitivity
    formulas consume.
    """

    beta: float
    h_perp: tuple[float, ...]
    signs: tuple[int, ...]
    weighted_l1: float
    weighted_l2sq: float


def _pattern_values(h: Sequence[float] | DeviationPattern) -> tuple[float, ...]:
    if isinstance(h, DeviationPattern):
        return h.h
    return tuple(float(x) for x in h)


def project_deviation(
    chain: IsotopeChain,
    h: Sequence[float] | DeviationPattern,
    zero_tol: float | None = None,
) -> ProjectedPattern:
    """Remove the common-scale component of h:  h_perp = h - beta*q.

    beta = sum_A N_A h_A q_A / sum_A N_A q_A^2, so that
    sum_A N_A h_perp_A q_A = 0.  Isotopes with no atoms are excluded from
    the sums but still get an h_perp entry.

    ``zero_tol`` is the magnitude below which a component's sign is reported
    as 0; it defaults to 1e-12 * max|h_perp|.
    """
    hv = _pattern_values(h)
    if len(hv) != len(chain.isotopes):
        raise ValueError(f"pattern length {len(hv)} does not match chain length {len(chain.isotopes)}")
    weights = [float(iso.n_atoms) for iso in chain.isotopes]
    if sum(weights) == 0:
        raise ValueError("all isotopes have zero atoms; projection weights undefined")
    q = chain.q
    num = math.fsum(w * ha * qa for w, ha, qa in zip(weights, hv, q))
    den = math.fsum(w * qa * qa for w, qa in zip(weights, q))
    beta = num / den
    h_perp = tuple(ha - beta * qa for ha, qa in zip(hv, q))
    if zero_tol is None:
        zero_tol = 1e-12 * max((abs(x) for x in h_perp), default=0.0)
    signs = tuple(0 if abs(x) <= zero_tol else (1 if x > 0 else -1) for x in h_perp)
    weighted_l1 = math.fsum(w * abs(x) for w, x in zip(weights, h_perp))
    weighted_l2sq = math.fsum(w * x * x for w, x in zip(weights, h_perp))
    return ProjectedPattern(
        beta=beta,
        h_perp=h_perp,
        signs=signs,
        weighted_l1=weighted_l1,
        weighted_l2sq=weighted_l2sq,
    )

