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
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .checks import CheckResult, run_oracle_checks
from .interference import AmplitudePair, amplitude_ratio, interference_rate, pv_light_shift, ramsey_phase
from .scans import ScanTable, atom_scan, time_scan
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_sha256

__all__ = ["RunSummary", "format_sig", "run", "validate", "main"]


def format_sig(value: float, sig: int = 12) -> str:
    """Plain decimal notation with ``sig`` significant digits."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == 0.0:
        return "0"
    decimals = sig - 1 - math.floor(math.log10(abs(value)))
    if decimals <= 0:
        return f"{round(value, decimals):.0f}"
    return f"{value:.{decimals}f}"


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
    interference: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "scenario_sha256": self.scenario_sha256,
            "library_version": self.library_version,
            "scans": list(self.scans),
            "checks": [c.to_dict() for c in self.checks],
            "all_checks_passed": self.all_checks_passed,
            "wall_seconds": self.wall_seconds,
        }
        if self.interference is not None:
            out["interference"] = self.interference
        return out


def _write_scan_csv(path: Path, table: ScanTable):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis", "protocol", "delta_theta_stat", "delta_theta_tot"])
        for row in table.rows:
            if row.error is not None:
                marker = f"error:{row.error}"
                writer.writerow([format_sig(row.axis_value), row.protocol, marker, marker])
            else:
                writer.writerow([
                    format_sig(row.axis_value),
                    row.protocol,
                    format_sig(row.delta_theta_stat),
                    format_sig(row.delta_theta_tot),
                ])


def _interference_report(scenario: Scenario) -> dict | None:
    spec = scenario.interference
    if spec is None:
        return None
    report: dict = {}
    if spec.zeta_over_beta is not None:
        report["amplitude_ratio"] = amplitude_ratio(spec.zeta_over_beta, spec.e_field)
        report["reversal_odd_fraction"] = 2.0 * report["amplitude_ratio"]
    if spec.omega_pc is not None:
        pair = AmplitudePair(a_pc=spec.omega_pc, a_pnc=spec.omega_pnc)
        shifts = pv_light_shift(pair, spec.detuning)
        report.update(shifts)
        report["ramsey_phase"] = ramsey_phase(shifts["pv_shift"], scenario.protocol.tau)
        report["rate_terms"] = interference_rate(pair)
    return report


def _run_checks(scenario: Scenario, budget_override: int | None):
    budget = budget_override if budget_override is not None else scenario.oracle_budget
    if budget is None:
        return ()
    return tuple(
        run_oracle_checks(
            budget=budget,
            tolerances=dict(scenario.oracle_tolerances),
            only=scenario.oracle_checks,
        )
    )


def run(scenario: Scenario, out_dir: str | Path, quiet: bool = False) -> RunSummary:
    """Execute all scan blocks and oracle checks; write CSVs and summary.json."""
    t_start = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scan_records = []
    for spec in scenario.scans:
        t0 = time.perf_counter()
        if spec.axis == "atom_number":
            table = atom_scan(scenario.chain, scenario.deviation, scenario.protocol, spec)
        else:
            table = time_scan(scenario.chain, scenario.deviation, scenario.protocol, spec)
        path = out_dir / f"{spec.name}.csv"
        _write_scan_csv(path, table)
        record = {
            "name": spec.name,
            "axis": spec.axis,
            "path": str(path),
            "rows": len(table.rows),
            "wall_seconds": time.perf_counter() - t0,
        }
        scan_records.append(record)
        if not quiet:
            print(f"scan {spec.name}: {len(table.rows)} rows -> {path}")
    checks = _run_checks(scenario, None)
    all_passed = all(c.passed for c in checks)
    if not quiet:
        for c in checks:
            print(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} "
                  f"(max rel dev {c.max_rel_dev:.3e}, tol {c.tolerance:.1e}, M={c.qubits})")
    summary = RunSummary(
        scenario_sha256=scenario_sha256(scenario),
        library_version=__version__,
        scans=tuple(scan_records),
        checks=checks,
        all_checks_passed=all_passed,
        wall_seconds=time.perf_counter() - t_start,
        interference=_interference_report(scenario),
    )
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def validate(scenario: Scenario, budget: int | None = None, quiet: bool = False) -> RunSummary:
    """Run only the oracle-versus-analytic check suite.

    The scenario must carry an oracle block unless an explicit budget is
    given on the command line.
    """
    if scenario.oracle_budget is None and budget is None:
        raise ScenarioError([("oracle", "scenario has no oracle block and no --budget was given")])
    t_start = time.perf_counter()
    checks = _run_checks(scenario, budget)
    if not quiet:
        for c in checks:
            print(f"check {c.name}: {'PASS' if c.passed else 'FAIL'} "
                  f"(max rel dev {c.max_rel_dev:.3e}, tol {c.tolerance:.1e}, M={c.qubits})")
    return RunSummary(
        scenario_sha256=scenario_sha256(scenario),
        library_version=__version__,
        scans=(),
        checks=checks,
        all_checks_passed=all(c.passed for c in checks),
        wall_seconds=time.perf_counter() - t_start,
        interference=_interference_report(scenario),
    )


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
