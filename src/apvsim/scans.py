"""Scan drivers: uncertainty versus atom number and versus averaging time.

Atom scans re-allocate the probe budget at every grid point and re-evaluate
each protocol from scratch (the projection weights move with the
allocation).  Time scans evaluate once at the first grid time and rescale
statistically by sqrt(T0/T), adding an optional non-averaging systematic
floor in quadrature; the rescaling is exactly equivalent to re-evaluating
with a larger repetition count.

Rows are independent and emitted in deterministic order: grid point major,
protocol order as requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

from .chain import DeviationPattern, IsotopeChain, reallocate
from .protocols import PROTOCOLS, ProtocolConfig, protocol_table

__all__ = [
    "ScanSpec",
    "ScanRow",
    "ScanTable",
    "AllocationError",
    "allocate_atoms",
    "atom_scan",
    "time_scan",
    "crossover_finder",
]

SCAN_AXES = ("atom_number", "time")


class AllocationError(ValueError):
    """The atom budget cannot give every isotope at least one probe."""


@dataclass(frozen=True)
class ScanSpec:
    """One scan request.

    ``grid`` values are atom numbers or averaging times (s) and must be
    positive and strictly increasing.  ``sigma_sys`` and ``n_fixed`` apply
    to time scans only; ``beam_coefficient``/``beam_floor`` add an optional
    1/sqrt(T) comparison curve emitted as protocol "beam".
    """

    axis: str
    grid: tuple[float, ...]
    protocols: tuple[str, ...]
    name: str = "scan"
    sigma_sys: float | None = None
    n_fixed: int | None = None
    beam_coefficient: float | None = None
    beam_floor: float | None = None

    def __post_init__(self):
        if self.axis not in SCAN_AXES:
            raise ValueError(f"unknown scan axis {self.axis!r}; choose from {SCAN_AXES}")
        if not self.grid:
            raise ValueError("scan grid is empty")
        if any(v <= 0 for v in self.grid):
            raise ValueError("scan grid values must be positive")
        if any(b >= a for a, b in zip(self.grid[1:], self.grid)):
            raise ValueError("scan grid must be strictly increasing")
        if self.sigma_sys is not None and self.sigma_sys < 0:
            raise ValueError(f"sigma_sys must be >= 0, got {self.sigma_sys}")
        bad = [p for p in self.protocols if p not in PROTOCOLS]
        if bad:
            raise ValueError(f"unknown protocols {bad}; choose from {PROTOCOLS}")
        if self.axis == "time":
            if self.n_fixed is None or self.n_fixed < 1:
                raise ValueError("time scans need n_fixed >= 1")
            if self.sigma_sys is None:
                raise ValueError("time scans need an explicit sigma_sys (0 is allowed)")


@dataclass(frozen=True)
class ScanRow:
    axis_value: float
    protocol: str
    delta_theta_stat: float
    delta_theta_tot: float
    error: str | None = None


@dataclass(frozen=True)
class ScanTable:
    axis: str
    rows: tuple[ScanRow, ...]


def allocate_atoms(chain: IsotopeChain, total: int) -> tuple[int, ...]:
    """Equal split of ``total`` probes over the chain, remainder to lowest A.

    Every isotope must receive at least one atom.
    """
    k = len(chain.isotopes)
    if total < k:
        raise AllocationError(f"cannot give each of {k} isotopes an atom out of {total}")
    base, rem = divmod(int(total), k)
    counts = [base] * k
    by_mass = sorted(range(k), key=lambda i: (chain.isotopes[i].A, i))
    for r in range(rem):
        counts[by_mass[r]] += 1
    return tuple(counts)


def atom_scan(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    spec: ScanSpec,
) -> ScanTable:
    """delta theta versus total atom number at fixed averaging time."""
    if spec.axis != "atom_number":
        raise ValueError(f"atom_scan needs axis 'atom_number', got {spec.axis!r}")
    rows: list[ScanRow] = []
    for value in spec.grid:
        try:
            counts = allocate_atoms(chain, int(round(value)))
        except AllocationError:
            rows.extend(
                ScanRow(value, p, math.nan, math.nan, "allocation") for p in spec.protocols
            )
            continue
        table = protocol_table(reallocate(chain, counts), h, cfg, spec.protocols)
        for res in table:
            rows.append(
                ScanRow(value, res.protocol, res.delta_theta, res.delta_theta, res.error)
            )
    return ScanTable(axis="atom_number", rows=tuple(rows))


def time_scan(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    spec: ScanSpec,
) -> ScanTable:
    """delta theta versus total averaging time at fixed atom number.

    delta_theta_stat(T) = delta_theta_stat(T0) * sqrt(T0 / T) with T0 the
    first grid time; delta_theta_tot adds sigma_sys in quadrature.
    """
    if spec.axis != "time":
        raise ValueError(f"time_scan needs axis 'time', got {spec.axis!r}")
    chain_n = reallocate(chain, allocate_atoms(chain, spec.n_fixed))
    t0 = spec.grid[0]
    base = protocol_table(chain_n, h, replace(cfg, t_avg=t0), spec.protocols)
    sigma = spec.sigma_sys or 0.0
    rows: list[ScanRow] = []
    for t in spec.grid:
        scale = math.sqrt(t0 / t)
        for res in base:
            if res.error is not None:
                rows.append(ScanRow(t, res.protocol, math.nan, math.nan, res.error))
            else:
                stat = res.delta_theta * scale
                rows.append(ScanRow(t, res.protocol, stat, math.hypot(stat, sigma)))
        if spec.beam_coefficient is not None:
            stat = spec.beam_coefficient / math.sqrt(t)
            rows.append(ScanRow(t, "beam", stat, math.hypot(stat, spec.beam_floor or 0.0)))
    return ScanTable(axis="time", rows=tuple(rows))


def crossover_finder(table: ScanTable) -> list[tuple[tuple[str, str], float]]:
    """Locate rank exchanges between protocol pairs along the scan axis.

    For every adjacent pair of grid points where the sign of
    delta_theta_A - delta_theta_B flips, report the log-scale midpoint of
    the bracketing interval.  Exact ties do not count as crossovers unless
    the sign actually changes across them.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    for row in table.rows:
        if row.error is not None:
            continue
        if row.protocol not in series:
            series[row.protocol] = []
            order.append(row.protocol)
        series[row.protocol].append((row.axis_value, row.delta_theta_stat))
    events: list[tuple[tuple[str, str], float]] = []
    for a, b in combinations(order, 2):
        values_b = dict(series[b])
        prev_sign, prev_x = 0, 0.0
        for x, da in series[a]:
            if x not in values_b:
                continue
            d = da - values_b[x]
            sign = (d > 0) - (d < 0)
            if sign == 0:
                continue
            if prev_sign != 0 and sign != prev_sign:
                events.append(((a, b), math.exp((math.log(prev_x) + math.log(x)) / 2.0)))
            prev_sign, prev_x = sign, x
    return events
