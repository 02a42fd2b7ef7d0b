"""Command-line front end.

``apvsim run <scenario.json> --out <dir>`` executes every scan block and
oracle check, writing one CSV per scan plus a machine-readable
``summary.json``.  ``apvsim validate <scenario.json> [--budget M]`` runs
only the oracle-versus-analytic check suite.  Both exit with status 0 iff
every oracle check passes, which makes them usable as CI gates.

CSV files use a fixed column order (axis, protocol, delta_theta_stat,
delta_theta_tot), 12 significant digits in plain decimal notation, and
line-feed endings; identical scenario plus library version yields
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from . import __version__
from .checks import CheckResult, run_oracle_checks
from .scans import GRID_BLOCK, ScanTable, atom_scan, time_scan
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_sha256

__all__ = ["RunSummary", "format_sig", "run", "validate", "main"]

SIG_DIGITS = 12  # significant digits of every value written


def format_sig(value: float) -> str:
    """Plain decimal notation with :data:`SIG_DIGITS` significant digits."""
    try:
        decimals = SIG_DIGITS - 1 - math.floor(math.log10(abs(value)))
    except (ValueError, OverflowError):  # zero, nan or +-inf
        return "0" if value == 0.0 else str(value)
    if decimals <= 0:
        return "%.0f" % round(value, decimals)
    return "%.*f" % (decimals, value)


@dataclass(frozen=True)
class RunSummary:
    """Machine-readable record of one run: what was produced and whether
    every oracle check passed."""

    scenario_sha256: str
    library_version: str
    scans: tuple[dict, ...]
    checks: tuple[CheckResult, ...]
    all_checks_passed: bool
    wall_seconds: float

    def to_dict(self) -> dict:
        """The ``summary.json`` content, one key per field (each check too).
        JSON has no NaN or infinity, so a deviation that is not finite is
        written as text ("nan").  The scan records are the summary's own."""
        checks = [{**vars(c), "max_rel_dev": c.max_rel_dev if math.isfinite(c.max_rel_dev) else str(c.max_rel_dev)}
                  for c in self.checks]
        return {**vars(self), "checks": checks}


def _fixed(values: list) -> tuple[str, list] | None:
    """The conversion ``%.<d>f`` and ``[values]`` where every value takes ``format_sig``'s
    ``"%.*f"`` branch at one precision d, ``%.*f`` and ``[decimals, values]`` where at
    several; None unless each value takes that branch."""
    log10, floor, last = math.log10, math.floor, SIG_DIGITS - 1
    try:  # ValueError or OverflowError at zero, a negative value, nan or +-inf
        decimals = [last - floor(log10(v)) for v in values]
    except (ValueError, OverflowError):
        return None
    if min(decimals) <= 0:
        return None
    if decimals.count(decimals[0]) == len(decimals):  # "%.5f" % v is "%.*f" % (5, v)
        return f"%.{decimals[0]}f", [values]
    return "%.*f", [decimals, values]


def _column(protocol: str, stats: list, tots: list, slugs: list | None) -> tuple[str, list]:
    """A block's column as its line piece ``%s,<protocol>,stat,tot`` and the piece's
    fields, one list each.  Values that all take ``format_sig``'s ``"%.*f"`` branch are
    formatted by the piece, once where the tots are the stats list itself, with the
    precision written into the piece where the block's values share one.  Else
    ``format_sig`` runs per field; a slug fills both fields, a tot equal to its stat
    reuses its text."""
    piece = "%s," + protocol.replace("%", "%%")
    fixed_stats = None if slugs else _fixed(stats)
    if fixed_stats is not None and tots is stats:
        fmt, fields = fixed_stats
        texts = list(map(fmt.__mod__, fields[0] if len(fields) == 1 else zip(*fields)))
        return piece + ",%s,%s\n", [texts, texts]
    fixed_tots = None if fixed_stats is None else _fixed(tots)
    if fixed_tots is not None:
        return f"{piece},{fixed_stats[0]},{fixed_tots[0]}\n", fixed_stats[1] + fixed_tots[1]
    slugs = slugs or repeat(None)
    texts = [format_sig(stat) if slug is None else f"error:{slug}" for stat, slug in zip(stats, slugs)]
    return piece + ",%s,%s\n", [texts, [text if slug is not None or tot == stat else format_sig(tot)
                                         for text, stat, tot, slug in zip(texts, stats, tots, slugs)]]


def _write_scan_csv(path: Path, table: ScanTable):
    # No field can need CSV quoting.  A block of grid points is written through one
    # line template per grid point, joined from its columns' pieces, so the text held
    # at once stays one grid point's lines; each axis value is formatted once.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,protocol,delta_theta_stat,delta_theta_tot\n")
        for start in range(0, len(table.values), GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            axis, template, fields = list(map(format_sig, table.values[block])), "", []
            for piece, column in map(_column, table.protocols, *zip(*table.cells(block))):
                template += piece
                fields += [axis, *column]
            fh.writelines(map(template.__mod__, zip(*fields)))


def _run_checks(scenario: Scenario, budget_override: int | None, quiet: bool):
    oracle = scenario.oracle
    budget = oracle and oracle.budget if budget_override is None else budget_override
    if budget is None:
        return ()
    checks = tuple(run_oracle_checks(budget=budget))
    if not quiet:
        for c in checks:
            print(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} "
                  f"(max rel dev {c.max_rel_dev:.3e}, tol {c.tolerance:.1e}, M={c.qubits})")
    return checks


def _summary(scenario: Scenario, scans: list[dict], checks: tuple, t_start: float) -> RunSummary:
    return RunSummary(
        scenario_sha256=scenario_sha256(scenario),
        library_version=__version__,
        scans=tuple(scans),
        checks=checks,
        all_checks_passed=all(c.passed for c in checks),
        wall_seconds=time.perf_counter() - t_start,
    )


def run(scenario: Scenario, out_dir: str | Path, quiet: bool = False) -> RunSummary:
    """Execute all scan blocks and oracle checks; write CSVs and summary.json."""
    t_start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scan_records = []
    for spec in scenario.scans:
        t0 = time.perf_counter()
        scan = atom_scan if spec.axis == "atom_number" else time_scan
        table = scan(scenario.chain, scenario.deviation, scenario.protocol, spec)
        t1 = time.perf_counter()
        path = out_dir / f"{spec.name}.csv"
        _write_scan_csv(path, table)
        t2 = time.perf_counter()
        scan_records.append({
            "name": spec.name,
            "axis": spec.axis,
            "path": str(path),
            "rows": len(table),
            "error_rows": dict(sorted(table.error_rows.items())),
            "scan_seconds": t1 - t0,
            "write_seconds": t2 - t1,
            "wall_seconds": t2 - t0,
        })
        if not quiet:
            print(f"scan {spec.name}: {len(table)} rows -> {path}")
    summary = _summary(scenario, scan_records, _run_checks(scenario, None, quiet), t_start)
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(summary.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n")
    return summary


def validate(scenario: Scenario, budget: int | None = None, quiet: bool = False) -> RunSummary:
    """Run only the oracle-versus-analytic check suite.

    The scenario must carry an oracle block unless an explicit budget is
    given on the command line.
    """
    if scenario.oracle is None and budget is None:
        raise ScenarioError([("oracle", "scenario has no oracle block and no --budget was given")])
    t_start = time.perf_counter()
    return _summary(scenario, [], _run_checks(scenario, budget, quiet), t_start)


@functools.cache  # argparse set-up would cost each in-process main() call about 0.4 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apvsim",
        description="Isotope-chain parity-violation sensitivity scans and oracle validation.",
    )
    parser.add_argument("--version", action="version", version=f"apvsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute scans and checks, write CSVs and summary.json")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")

    p_val = sub.add_parser("validate", help="run only the oracle check suite")
    p_val.add_argument("scenario", help="path to a scenario JSON file")
    p_val.add_argument("--budget", type=int, default=None, help="qubit budget override")

    for p in (p_run, p_val):
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            summary = run(scenario, args.out, quiet=args.quiet)
        else:
            summary = validate(scenario, budget=args.budget, quiet=args.quiet)
    except (ScenarioError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if not args.quiet:
        failed = [c.name for c in summary.checks if not c.passed]
        if failed:
            print(f"FAILED checks: {', '.join(failed)}")
        else:
            print(f"all {len(summary.checks)} checks passed" if summary.checks else "no checks requested")
    return 0 if summary.all_checks_passed else 1
