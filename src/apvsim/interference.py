"""Interference of a weak parity-violating amplitude with a large reference.

The parity-violating amplitude is far too small to detect as a rate on its
own; it is measured through the cross term with a parity-conserving
amplitude, either as a reversal-odd rate asymmetry or, coherently, as a
light shift read out as a Ramsey phase.  These helpers convert physical
amplitudes into the per-isotope frequencies the estimation model consumes.

All functions are pure; shifts are returned as angular frequencies (energy
over hbar) so no dimensional constants appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .rules import check_fields

__all__ = [
    "AmplitudePair",
    "InterferenceSpec",
    "interference_rate",
    "amplitude_ratio",
    "pv_light_shift",
    "ramsey_phase",
]


@dataclass(frozen=True)
class AmplitudePair:
    """Parity-conserving and parity-violating amplitudes in common units.

    Both are complex; relative phases matter because the observable cross
    term is a real part.  Interpreted as Rabi frequencies (rad/s) when fed
    to :func:`pv_light_shift`.
    """

    a_pc: complex
    a_pnc: complex

    @property
    def magnitude_ratio(self) -> float:
        """Diagnostic |a_pnc| / |a_pc| (not enforced to be small)."""
        return abs(self.a_pnc) / abs(self.a_pc)


def interference_rate(pair: AmplitudePair) -> dict[str, float]:
    """Transition rate |a_pc + a_pnc|^2 and its reversal-odd part.

    The reversal-odd part 2 Re(a_pc* a_pnc) changes sign under field or
    polarization reversals and is the experimental signal channel.  The
    returned rate is exact (the |a_pnc|^2 term is retained).
    """
    a = complex(pair.a_pc)
    b = complex(pair.a_pnc)
    rate = abs(a + b) ** 2
    reversal_odd = 2.0 * (a.conjugate() * b).real
    return {"rate": rate, "reversal_odd": reversal_odd}


def amplitude_ratio(zeta_over_beta: float, e_field: float) -> float:
    """Weak-to-Stark amplitude ratio zeta / (beta E).

    ``zeta_over_beta`` is the field-equivalent of the weak-induced amplitude
    (V/m); ``e_field`` the applied static field (V/m).
    """
    if e_field == 0:
        raise ValueError("amplitude ratio undefined at zero applied field")
    return zeta_over_beta / e_field


def pv_light_shift(pair: AmplitudePair, detuning: float) -> dict[str, float]:
    """Off-resonant light shift of a dressed state and its parity-odd part.

    total = |O_pc + O_pnc|^2 / (4 Delta),  pv = 2 Re(O_pc* O_pnc) / (4 Delta),
    with Rabi amplitudes and detuning in rad/s; outputs in rad/s.
    """
    if detuning == 0:
        raise ValueError("light shift undefined at zero detuning")
    terms = interference_rate(pair)
    return {
        "total_shift": terms["rate"] / (4.0 * detuning),
        "pv_shift": terms["reversal_odd"] / (4.0 * detuning),
    }


def ramsey_phase(pv_shift: float, tau: float) -> float:
    """Phase accumulated by the shifted superposition over time tau (rad)."""
    if tau < 0:
        raise ValueError(f"interrogation time must be >= 0, got {tau}")
    return pv_shift * tau


_GROUPS = (("zeta_over_beta", "e_field"), ("omega_pc", "omega_pnc", "detuning"))


@dataclass(frozen=True)
class InterferenceSpec:
    """The optional ``interference`` block of a scenario: at least one group
    of ``_GROUPS`` is given, the fields of a group together, its diagnostics
    that need no Ramsey time fit in floats, and each field's metadata is the
    rule for its key (see :mod:`apvsim.rules`)."""

    zeta_over_beta: float | None = None
    e_field: float | None = field(default=None, metadata={"nonzero": True})
    omega_pc: float | None = None
    omega_pnc: float | None = None
    detuning: float | None = field(default=None, metadata={"nonzero": True})

    def __post_init__(self):
        check_fields(self, self._group_rule)

    def _group_rule(self, bad) -> list[tuple[str, str]]:
        given = [[name for name in group if getattr(self, name) is not None] for group in _GROUPS]
        if not any(given):
            return [("", "give at least one group of fields")]
        errors = [("", f"{', '.join(group)} must appear together")
                  for group, names in zip(_GROUPS, given) if names and names != list(group)]
        if errors or bad:
            return errors
        # the diagnostics that need no tau: at tau = 0 the Ramsey phase is 0
        try:
            report = self.report(0.0)
            if all(map(math.isfinite, [*report.pop("rate_terms", {}).values(), *report.values()])):
                return []
        except OverflowError:  # |omega_pc + omega_pnc|^2
            pass
        return [("", "its diagnostics are beyond the range of a float")]

    def report(self, tau: float) -> dict:
        """The diagnostics of each group given, as ``summary.json`` records
        them; ``tau`` is the Ramsey time of the protocol."""
        report: dict = {}
        if self.zeta_over_beta is not None:
            report["amplitude_ratio"] = amplitude_ratio(self.zeta_over_beta, self.e_field)
            report["reversal_odd_fraction"] = 2.0 * report["amplitude_ratio"]
        if self.omega_pc is not None:
            pair = AmplitudePair(a_pc=self.omega_pc, a_pnc=self.omega_pnc)
            shifts = pv_light_shift(pair, self.detuning)
            report.update(shifts)
            report["ramsey_phase"] = ramsey_phase(shifts["pv_shift"], tau)
            report["rate_terms"] = interference_rate(pair)
        return report
