"""Output check run after every op, outside its timed region.

An op passes when ``apvsim run`` returned 0, every CSV has the fixed
header and one row per grid point and protocol (plus the beam rows), every
row is either finite and positive or ``error:<slug>`` with a documented
slug, every CSV's SHA-256 equals the digest recorded in ``digests.json``,
and, for a scenario with an oracle block, ``summary.json`` reports every
check passed and within its tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

HEADER = b"axis,protocol,delta_theta_stat,delta_theta_tot\n"

# "allocation" comes from the atom scan; the others from protocol_table.
DOCUMENTED_SLUGS = frozenset({"allocation", "singular_fit", "no_signal", "invalid_config"})

DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Expected:
    """What one scenario's outputs must look like."""

    scans: tuple[tuple[str, int, frozenset[str]], ...]  # csv name, row count, protocols
    has_oracle: bool
    digests: dict[str, str] | None  # None while the digests are being recorded


@dataclass
class OpCheck:
    rows: int = 0
    slug_rows: int = 0
    csv_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def expected(scenario_path: Path, digests: dict[str, str] | None) -> Expected:
    data = json.loads(scenario_path.read_text(encoding="utf-8"))
    scans = []
    for i, scan in enumerate(data.get("scans", [])):
        protocols = set(scan["protocols"])
        rows = len(scan["grid"]) * len(protocols)
        if "beam" in scan:
            protocols.add("beam")
            rows += len(scan["grid"])
        scans.append((f"{scan.get('name', f'scan{i}')}.csv", rows, frozenset(protocols)))
    return Expected(scans=tuple(scans), has_oracle="oracle" in data, digests=digests)


def _positive(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0


def _row_problem(line: bytes, protocols: frozenset[str]) -> str | None:
    fields = line.rstrip(b"\n").decode("utf-8").split(",")
    if len(fields) != 4:
        return "row does not have 4 fields"
    axis, protocol, stat, tot = fields
    if not _positive(axis):
        return f"axis value {axis!r} is not finite and positive"
    if protocol not in protocols:
        return f"unexpected protocol {protocol!r}"
    if stat.startswith("error:") or tot.startswith("error:"):
        if stat != tot or stat[len("error:"):] not in DOCUMENTED_SLUGS:
            return f"undocumented error marker {stat!r}/{tot!r}"
        return None
    if not (_positive(stat) and _positive(tot)):
        return f"delta theta {stat!r}/{tot!r} is not finite and positive"
    return None


def check_csv(path: Path, expected_rows: int, protocols: frozenset[str], result: OpCheck,
              recorded: str | None = None):
    """Check one CSV.  Its rows are parsed only when its digest is not
    ``recorded``: bytes equal to the recorded ones passed the row check
    when they were recorded."""
    digest = hashlib.sha256()
    rows = slug_rows = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        for line in fh:
            digest.update(line)
            rows += 1
            slug_rows += b",error:" in line
    if header != HEADER:
        result.problems.append(f"{path.name}: unexpected header {header!r}")
    elif digest.hexdigest() != recorded:
        with open(path, "rb") as fh:
            fh.readline()
            for row, line in enumerate(fh, 1):
                problem = _row_problem(line, protocols)
                if problem is not None:
                    result.problems.append(f"{path.name} row {row}: {problem}")
                    break
    if rows != expected_rows and not result.problems:
        result.problems.append(f"{path.name}: {rows} rows, expected {expected_rows}")
    result.rows += rows
    result.slug_rows += slug_rows
    result.csv_bytes += path.stat().st_size
    result.digests[path.name] = digest.hexdigest()


def check_summary(path: Path, result: OpCheck):
    summary = json.loads(path.read_text(encoding="utf-8"))
    if not summary["all_checks_passed"]:
        result.problems.append("summary.json: all_checks_passed is false")
    for check in summary["checks"]:
        if not check["max_rel_dev"] <= check["tolerance"]:
            result.problems.append(
                f"summary.json: check {check['name']} deviates by {check['max_rel_dev']}"
                f" > tolerance {check['tolerance']}")


def check_op(returncode: int, want: Expected, out_dir: Path) -> OpCheck:
    """Check one op's outputs against ``want``."""
    result = OpCheck()
    if returncode != 0:
        result.problems.append(f"apvsim run exited with status {returncode}")
        return result
    for name, rows, protocols in want.scans:
        path = out_dir / name
        if not path.is_file():
            result.problems.append(f"{name} was not written")
            continue
        check_csv(path, rows, protocols, result, (want.digests or {}).get(name))
    if want.has_oracle:
        check_summary(out_dir / "summary.json", result)
    if want.digests is not None and result.digests != want.digests:
        changed = sorted(k for k in set(result.digests) | set(want.digests)
                         if result.digests.get(k) != want.digests.get(k))
        result.problems.append(f"CSV bytes differ from the recorded digest: {changed}")
    return result


def recorded_digests(workload: str, pool_key: str) -> list[dict[str, str]] | None:
    """Recorded CSV digests per scenario of one input set, or None if absent."""
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(pool_key)
