"""Scan drivers: uncertainty versus atom number and versus averaging time.

Atom scans re-allocate the probe budget at every grid point and re-evaluate
each protocol from scratch (the projection weights move with the
allocation), all grid points at once over one matrix of atom counts.  Time
scans evaluate once at the first grid time and rescale statistically by
sqrt(T0/T), adding an optional non-averaging systematic floor in
quadrature; the rescaling is exactly equivalent to re-evaluating with a
larger repetition count.  A time scan keeps that one row and rescales it for
each block of grid rows read.

A scan returns one column per protocol; its rows are read in deterministic
order: grid point major, protocol order as requested.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations, repeat
from typing import Callable, Sequence

import numpy as np

from .chain import DeviationPattern, IsotopeChain, reallocate
from .protocols import PROTOCOLS, AllocationError, ProtocolConfig, _slug, protocol_grid, protocol_table
from .rules import check_fields

__all__ = [
    "BeamSpec",
    "ScanSpec",
    "ScanTable",
    "allocate_atoms",
    "atom_scan",
    "time_scan",
    "crossover_finder",
]

SCAN_AXES = ("atom_number", "time")


@dataclass(frozen=True)
class BeamSpec:
    """A 1/sqrt(T) comparison curve, coefficient / sqrt(T) with ``floor``
    added in quadrature, emitted by time scans as protocol "beam"."""

    coefficient: float = field(metadata={"required": True, "minimum": 0.0, "exclusive_min": True})
    floor: float = field(metadata={"required": True, "minimum": 0.0})

    __post_init__ = check_fields

    def curve(self, times):
        """The statistical part, coefficient / sqrt(T), at the times ``times`` (inf past the float range)."""
        with np.errstate(over="ignore"):
            return self.coefficient / np.sqrt(times)


@dataclass(frozen=True)
class ScanSpec:
    """One scan request.

    ``grid`` values are atom numbers (integers) or averaging times (s) and
    must be positive and strictly increasing.  ``sigma_sys``, ``n_fixed`` and
    the optional ``beam`` apply to time scans only, where the first two are
    required.  The field metadata is the rule for each key of a scan block
    (see :mod:`apvsim.rules`).
    """

    axis: str = field(metadata={"choices": SCAN_AXES, "required": True})
    grid: tuple[float, ...] = field(metadata={"numbers": True, "positive": True,
                                              "increasing": True, "required": True})
    protocols: tuple[str, ...] = field(metadata={"items": PROTOCOLS, "required": True})
    name: str = field(default="scan", metadata={"label": True})
    sigma_sys: float | None = field(default=None, metadata={"time_only": True, "minimum": 0.0})
    n_fixed: int | None = field(default=None, metadata={"time_only": True, "integer": True, "minimum": 1})
    beam: BeamSpec | None = field(default=None, metadata={"time_only": True, "block": BeamSpec})

    def __post_init__(self):
        check_fields(self, self._axis_rule)

    def _axis_rule(self, bad) -> list[tuple[str, str]]:
        if self.axis == "time":
            errors = [(name, "required on time scans")
                      for name in ("sigma_sys", "n_fixed") if getattr(self, name) is None]
            if not bad & {"grid", "beam"} and self.beam and _failed_rows(self.beam.curve, self.beam.floor, self.grid):
                errors.append(("beam", "must give a finite positive stat and tot at every grid time"))
            return errors
        if self.axis != "atom_number":
            return []
        errors = [(name, "only valid for time scans") for name, f in self.__dataclass_fields__.items()
                  if f.metadata.get("time_only") and getattr(self, name) is not None]
        if "grid" not in bad and not all(map(float.is_integer, self.grid)):
            errors.insert(0, ("grid", "atom numbers must be integers"))
        return errors


@dataclass(frozen=True, eq=False)
class ScanTable:
    """A scan as columns: G grid ``values`` by P ``protocols`` ("beam" last
    on a time scan), and the row count of each slug in ``error_rows``.
    ``cells(rows)`` gives a slice of grid rows, ``cells(slice(None))`` all of
    them, as one ``(stats, tots, slugs)`` per protocol: ``stats`` and ``tots``
    read-only float arrays (NaN at a slug), ``tots`` the ``stats`` array
    itself where every tot equals its stat by construction, and ``slugs`` a
    fresh list of one slug or None per row, or None where no row of the
    slice has a slug."""

    axis: str
    values: tuple[float, ...]
    protocols: tuple[str, ...]
    cells: Callable[[slice], list[tuple[np.ndarray, np.ndarray, list | None]]]
    error_rows: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values) * len(self.protocols)


def allocate_atoms(chain: IsotopeChain, total: int | Sequence[int]) -> tuple[int, ...] | np.ndarray:
    """Equal split of ``total`` probes over the chain, remainder to lowest A.

    Every isotope must receive at least one atom.  A sequence or array of G
    totals gives the G x k count matrix: int64, or Python ints (dtype object)
    split by Python ``divmod`` once a total reaches 2^62, so that row sums
    stay exact and no total is cast to int64 where it would wrap.
    """
    k = len(chain.isotopes)
    # object keeps Python ints whole: numpy gives [4, 2**63] as floats
    totals = np.atleast_1d(total if isinstance(total, np.ndarray) else np.array(total, dtype=object))
    if (fewest := totals.min()) < k:
        raise AllocationError(f"cannot give each of {k} isotopes an atom out of {int(fewest)}")
    by_mass = sorted(range(k), key=lambda i: (chain.isotopes[i].A, i))
    rank = np.argsort(by_mass)  # position of each isotope in mass order
    if totals.max() < 2**62:
        base, rem = np.divmod(totals.astype(np.int64), k)
    else:
        base, rem = np.array([divmod(int(t), k) for t in totals.tolist()], dtype=object).T
    counts = base[:, None] + (rank < rem[:, None])
    return tuple(counts[0].tolist()) if np.ndim(total) == 0 else counts


# Grid points evaluated, or written out, at once: enough to amortize the
# numpy calls, few enough that a long scan's intermediates stay small.
GRID_BLOCK = 1024


def atom_scan(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    spec: ScanSpec,
) -> ScanTable:
    """delta theta versus total atom number at fixed averaging time."""
    if spec.axis != "atom_number":
        raise ValueError(f"atom_scan needs axis 'atom_number', got {spec.axis!r}")
    protocols = spec.protocols
    deltas = np.full((len(spec.grid), len(protocols)), math.nan)
    slugs = np.full(deltas.shape, None, dtype=object)
    slugs[:] = _slug(AllocationError)  # one shared str; np.full would make one per cell
    for start in range(0, len(spec.grid), GRID_BLOCK):
        totals = np.array(spec.grid[start:start + GRID_BLOCK])  # integral values, so no rounding
        placed = np.flatnonzero(totals >= len(chain.isotopes))
        if len(placed):
            counts = allocate_atoms(chain, totals[placed])
            for j, result in enumerate(protocol_grid(chain, h, cfg, counts, protocols)):
                deltas[start + placed, j] = result.delta_theta
                slugs[start + placed, j] = result.error
    deltas.flags.writeable = slugs.flags.writeable = False  # frozen, like the rest of the table
    failed = np.not_equal(slugs, None)

    def cells(rows: slice) -> list[tuple[np.ndarray, np.ndarray, list | None]]:  # each tot is its stat: no floor
        return [(stats, stats, slugs[rows, j].tolist() if failed[rows, j].any() else None)
                for j, stats in enumerate(deltas[rows].T)]

    return ScanTable("atom_number", spec.grid, protocols, cells, dict(Counter(slugs[failed].tolist())))


def _failed_rows(curve, floor: float, grid: tuple[float, ...]) -> int:
    """How many grid times T give a stat curve(T), or a tot hypot(stat, floor),
    that is not finite and positive.  The stat falls with T, so the others run
    from the first time whose tot is finite to the first whose stat is not
    positive (at once for a NaN stat)."""
    first = bisect_left(grid, True, key=lambda t: math.hypot(curve(t), floor) < math.inf)
    return len(grid) - max(bisect_left(grid, True, key=lambda t: not curve(t) > 0) - first, 0)


def _short_first_time(cfg_t0: ProtocolConfig) -> str | None:
    """Why a time scan evaluated at ``cfg_t0.t_avg``, its first time, is refused; None if it holds a repetition."""
    return f"rep_rate * the first time must be >= 1, got {cfg_t0.reps}" if cfg_t0.reps < 1 else None


def time_scan(
    chain: IsotopeChain,
    h: DeviationPattern | tuple[float, ...] | list[float],
    cfg: ProtocolConfig,
    spec: ScanSpec,
) -> ScanTable:
    """delta theta versus total averaging time at fixed atom number.

    delta_theta_stat(T) = delta_theta_stat(T0) * sqrt(T0 / T) with T0 the
    first grid time; delta_theta_tot adds sigma_sys in quadrature.  The table
    keeps the row at T0 and rescales it in ``cells``: sqrt(T0 / T) once per
    block of rows, times each column's delta, and ``math.hypot`` per value
    with the floor, whose tots are the stats array itself at floor 0.  A stat
    or tot that is not a finite positive number gets ArithmeticError's slug,
    no_contrast; only a column block holding such a row gets NaN, set through
    a mask, and a slug list.  The arrays are frozen before they are handed
    out.  R T0 < 1 raises ValueError.
    """
    if spec.axis != "time":
        raise ValueError(f"time_scan needs axis 'time', got {spec.axis!r}")
    t0 = spec.grid[0]
    if reason := _short_first_time(cfg_t0 := replace(cfg, t_avg=t0)):
        raise ValueError(reason)
    chain_n = reallocate(chain, allocate_atoms(chain, spec.n_fixed))
    base = protocol_table(chain_n, h, cfg_t0, spec.protocols)
    # per column: its delta at T0 (NaN at a slug, None for the beam), its floor and the slug of a row that fails
    not_finite = _slug(ArithmeticError)
    columns = [(res.delta_theta, spec.sigma_sys, res.error or not_finite) for res in base]
    if spec.beam is not None:
        columns.append((None, spec.beam.floor, not_finite))

    def cells(rows: slice) -> list[tuple[np.ndarray, np.ndarray, list | None]]:
        grid = np.array(spec.grid[rows])
        scale = np.sqrt(t0 / grid)
        out = []
        for delta, floor, slug in columns:
            stats = spec.beam.curve(grid) if delta is None else delta * scale
            # math.hypot per value: np.hypot rounds some pairs differently; at floor 0 the tot is the stat
            tots = np.fromiter(map(math.hypot, stats.tolist(), repeat(floor)), float, len(stats)) if floor else stats
            ok = (stats > 0) & (tots < math.inf)  # NaN fails both
            slugs = None if ok.all() else np.where(ok, None, slug).tolist()
            if slugs is not None:
                stats[~ok] = tots[~ok] = math.nan
            stats.flags.writeable = tots.flags.writeable = False
            out.append((stats, tots, slugs))
        return out

    error_rows = Counter()
    for delta, floor, slug in columns:
        curve = spec.beam.curve if delta is None else lambda grid, delta=delta: delta * np.sqrt(t0 / grid)
        error_rows[slug] += _failed_rows(curve, floor, spec.grid)
    return ScanTable("time", spec.grid, spec.protocols + ("beam",) * (spec.beam is not None), cells,
                     dict(+error_rows))


def crossover_finder(table: ScanTable) -> list[tuple[tuple[str, str], float]]:
    """Locate rank exchanges between protocol pairs along the scan axis.

    For every adjacent pair of grid points where the sign of
    delta_theta_A - delta_theta_B flips, report the log-scale midpoint of
    the bracketing interval.  Exact ties do not count as crossovers unless
    the sign actually changes across them.
    """
    stat = np.stack([stats for stats, _, _ in table.cells(slice(None))], axis=1)
    measured = ~np.isnan(stat)  # a stat is NaN at a slug, and only there
    # the columns in the order the rows first show a value of theirs
    first = {j: int(np.argmax(column)) for j, column in enumerate(measured.T) if column.any()}
    events: list[tuple[tuple[str, str], float]] = []
    for a, b in combinations(sorted(first, key=first.get), 2):
        both = measured[:, a] & measured[:, b]
        d = stat[both, a] - stat[both, b]
        sign = (d > 0).astype(int) - (d < 0)
        x = np.array(table.values)[both][sign != 0].tolist()
        sign = sign[sign != 0]
        for i in np.flatnonzero(sign[1:] != sign[:-1]).tolist():
            events.append(((table.protocols[a], table.protocols[b]),
                           math.exp((math.log(x[i]) + math.log(x[i + 1])) / 2.0)))
    return events
