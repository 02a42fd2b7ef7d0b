"""Isotope chains, weak charges, and the common-scale projection.

The signal model is one frequency per isotope,

    omega_A = Omega * (q_A + theta * h_A),

with q_A the weak-charge pattern normalized to a reference isotope, Omega an
unknown common scale, and theta a deviation from weak-charge scaling.  Any
part of a deviation pattern h_A proportional to q_A is indistinguishable from
a change of Omega, so the measurable direction is the atom-number weighted
component of h orthogonal to q; ``project_deviation`` extracts it, for the
chain's own allocation or for a G x k matrix of allocations at once.

All types here are immutable after construction.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import chain as chain_from
from typing import Sequence

import numpy as np

from .rules import check_fields

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

# A component of h_perp whose magnitude is at most this fraction of the
# largest one is treated as zero when its sign is taken.
_SIGN_RTOL = 1e-12


@dataclass(frozen=True)
class Isotope:
    """One isotope of the chain with its probe allocation; the field
    metadata is the rule for each key of an entry (see :mod:`apvsim.rules`)."""

    A: int = field(metadata={"integer": True, "required": True, "minimum": 1})
    Z: int = field(metadata={"integer": True, "required": True, "minimum": 1})
    n_atoms: int = field(default=0, metadata={"integer": True, "required": True, "minimum": 0})

    def __post_init__(self):
        check_fields(self, lambda bad: [] if bad or self.Z <= self.A else
                     [("", f"proton number must satisfy Z <= A, got Z={self.Z}, A={self.A}")])

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

    ``signs`` holds s_A = sign(h_perp_A), zeroed where |h_perp_A| is at most
    1e-12 times max|h_perp|.  ``weighted_l1`` = sum_A N_A |h_perp_A| is the
    norm the cat sensitivities consume.  For a matrix of allocations the
    fields are arrays with a leading grid axis, and ``signs``, which only
    the oracle reads, is None.
    """

    beta: float | np.ndarray
    h_perp: tuple[float, ...] | np.ndarray
    signs: tuple[int, ...] | None
    weighted_l1: float | np.ndarray


def _pattern_values(h: Sequence[float] | DeviationPattern) -> tuple[float, ...]:
    if isinstance(h, DeviationPattern):
        return h.h
    return tuple(float(x) for x in h)


# Rows turned into Python floats at a time by _fsum_loop, which bounds the
# memory a large grid takes on the way.
_FSUM_BLOCK = 1024

# Below this many rows, _row_fsums sums each one with math.fsum: the proof
# costs more than it saves.
_SCALAR_ROWS = 64


def _fsum_loop(terms: np.ndarray, raising: bool) -> np.ndarray:
    """:func:`_row_fsums` with math.fsum on every row."""
    rows = terms.reshape(-1, terms.shape[-1])
    blocks = (map(math.fsum, rows[start:start + _FSUM_BLOCK].tolist())
              for start in range(0, len(rows), _FSUM_BLOCK))
    try:
        return np.fromiter(chain_from.from_iterable(blocks), float, len(rows)).reshape(terms.shape[:-1])
    except (ValueError, ArithmeticError):
        if raising:
            raise
    sums = np.full(terms.shape[:-1], math.nan)
    for row, parts in enumerate(terms.reshape(len(terms), -1, terms.shape[-1]).tolist()):
        with suppress(ValueError, ArithmeticError):
            sums.reshape(len(terms), -1)[row] = [math.fsum(part) for part in parts]
    return sums


def _two_sum(a, b, s, e, w):
    """fl(a + b) into ``s`` and its rounding error, exactly, into ``e`` (Knuth's
    TwoSum), on arrays, with ``w`` as scratch; ``a`` and ``b`` are only read."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=e)  # bb
    np.subtract(a, np.subtract(s, e, out=w), out=w)  # a - (s - bb)
    np.add(w, np.subtract(b, e, out=e), out=e)  # + (b - bb)


def _row_fsums(terms: np.ndarray, raising: bool = True) -> np.ndarray:
    """The correctly rounded sum over the last axis of ``terms`` (what
    math.fsum gives), raising where a Python loop of math.fsum raises; or,
    not ``raising``, NaN sums on each grid row (first axis) with a sum that
    raises.  From _SCALAR_ROWS rows up, numpy sums the rows, and math.fsum
    sums again each grid row with a numpy sum not proven correctly rounded.

    The proof (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955, 2005):
    two TwoSum cascades, on buffers allocated once (``terms`` is only read),
    split the exact sum into s + t + sum(f), and r = fl(s + t) leaves the
    error d.  With c = fl(sum |f|) >= sum |f| / 2, r is the float nearest the
    exact sum if c is 0, or if |d| + 2c is below half the gap from r towards
    zero (the smaller gap at a power of two).  A non-finite term, a zero or
    subnormal r, or sum |x| >= 2^1000 (where math.fsum may raise) gives no
    proof."""
    rows = terms.reshape(-1, terms.shape[-1])
    if len(rows) < _SCALAR_ROWS:
        return _fsum_loop(terms, raising)
    cols = np.ascontiguousarray(rows.T)  # a view where terms are in column order
    s, s_next, t, t_next, e, f, w, c = np.zeros((8, len(rows)))
    r = np.empty(len(rows))
    with np.errstate(all="ignore"):
        s[:] = cols[0]
        for x in cols[1:]:
            _two_sum(s, x, s_next, e, w)
            _two_sum(t, e, t_next, f, w)
            s, s_next, t, t_next = s_next, s, t_next, t
            c += np.abs(f, out=f)
        _two_sum(s, t, r, e, w)
        gap = np.abs(r - np.nextafter(r, 0.0))
        proven = ((np.abs(cols).sum(axis=0) < 2.0**1000) & (np.abs(r) >= 2.0**-1022)
                  & ((c == 0) | (np.abs(e) + 2 * c < 0.5 * gap)))
    sums = r.reshape(terms.shape[:-1])
    if not proven.all():
        unproven = ~proven.reshape(len(terms), -1).all(axis=1)
        sums[unproven] = _fsum_loop(terms[unproven], raising)
    return sums


def project_deviation(
    chain: IsotopeChain, h: Sequence[float] | DeviationPattern, counts: np.ndarray | None = None
) -> ProjectedPattern:
    """Remove the common-scale component of h:  h_perp = h - beta*q.

    beta = sum_A N_A h_A q_A / sum_A N_A q_A^2, so that
    sum_A N_A h_perp_A q_A = 0.  Isotopes with no atoms are excluded from
    the sums but still get an h_perp entry.

    N_A is the chain's allocation, or each row of the G x k array
    ``counts`` (integers or their float values), in which case the fields
    of the result have a leading grid axis and ``signs`` is None.
    """
    hv = _pattern_values(h)
    k = len(chain.isotopes)
    if len(hv) != k:
        raise ValueError(f"pattern length {len(hv)} does not match chain length {k}")
    if counts is None:  # one allocation, on Python floats
        weights = [float(iso.n_atoms) for iso in chain.isotopes]
        num = math.fsum(w * ha * qa for w, ha, qa in zip(weights, hv, chain.q))
        den = math.fsum(w * qa * qa for w, qa in zip(weights, chain.q))
        if not den:
            raise ValueError("all isotopes have zero atoms; projection weights undefined")
        beta = num / den
        h_perp = tuple(ha - beta * qa for ha, qa in zip(hv, chain.q))
        magnitude = tuple(map(abs, h_perp))
        # with a NaN magnitude no sign is zeroed
        cut = _SIGN_RTOL * (math.nan if any(map(math.isnan, magnitude)) else max(magnitude))
        signs = tuple(0 if m <= cut else 1 if x > 0 else -1 for x, m in zip(h_perp, magnitude))
        return ProjectedPattern(beta=beta, h_perp=h_perp, signs=signs,
                                weighted_l1=math.fsum(map(operator.mul, weights, magnitude)))
    weights = counts.astype(float)
    hq = np.array((hv, chain.q))
    q = hq[1]
    # N_A h_A q_A and N_A q_A q_A: the products, in the order, of a Python sum
    terms = weights[:, None, :] * hq
    terms *= q
    num, den = _row_fsums(terms).T
    del terms
    if not den.all():  # q_A is never zero, so only an allocation without atoms
        raise ValueError("all isotopes have zero atoms; projection weights undefined")
    beta = num / den
    h_perp = hq[0] - beta[:, None] * q
    weighted_l1 = _row_fsums(weights * np.abs(h_perp))
    return ProjectedPattern(beta=beta, h_perp=h_perp, signs=None, weighted_l1=weighted_l1)
