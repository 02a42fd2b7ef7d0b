"""Interference of a weak parity-violating amplitude with a large reference.

The parity-violating amplitude is far too small to detect as a rate on its
own; it is measured through the cross term with a parity-conserving
amplitude, either as a reversal-odd rate asymmetry or, coherently, as a
light shift read out as a Ramsey phase.  :class:`InterferenceSpec` reports
these scales in ``summary.json``; nothing in the estimation model consumes
them (its signal scale is the ``omega`` of the protocol block).

Amplitudes are real; shifts are angular frequencies (energy over hbar) so
no dimensional constants appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .rules import check_fields

__all__ = ["InterferenceSpec"]

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
        except OverflowError:  # (omega_pc + omega_pnc)^2
            pass
        return [("", "its diagnostics are beyond the range of a float")]

    def report(self, tau: float) -> dict:
        """The diagnostics of each group given, as ``summary.json`` records
        them; ``tau`` is the Ramsey time of the protocol.

        The weak-to-Stark amplitude ratio zeta / (beta E), with zeta / beta
        and E in V/m, and the reversal-odd fraction of the rate, twice that.
        With Rabi amplitudes O_pc, O_pnc and detuning Delta in rad/s: the
        rate (O_pc + O_pnc)^2 and its reversal-odd part 2 O_pc O_pnc, which
        changes sign under field or polarization reversals; the light shift
        total = rate / (4 Delta) and its parity-odd part pv = 2 O_pc O_pnc /
        (4 Delta); and the Ramsey phase pv * tau.
        """
        report: dict = {}
        if self.zeta_over_beta is not None:
            ratio = self.zeta_over_beta / self.e_field
            report.update(amplitude_ratio=ratio, reversal_odd_fraction=2.0 * ratio)
        if self.omega_pc is not None:
            pc, pnc, four_delta = self.omega_pc, self.omega_pnc, 4.0 * self.detuning
            # + 0.0 turns a product of -0.0 into 0.0, as the real part of conj(pc) pnc does
            rate, odd = (pc + pnc) ** 2, 2.0 * (pc * pnc + 0.0)
            report.update(total_shift=rate / four_delta, pv_shift=odd / four_delta,
                          ramsey_phase=odd / four_delta * tau, rate_terms={"rate": rate, "reversal_odd": odd})
        return report
