"""Scenario files: a strict, hand-editable JSON tree describing one run.

Top-level sections (unknown keys are rejected everywhere, with the
offending key path reported):

``chain`` (required)
    ``sin2_theta_w``: number in (0, 0.5)
    ``ref_A``: mass number of the reference isotope (must occur exactly once)
    ``isotopes``: list of >= 2 :class:`Isotope` entries ``{"A", "Z", "n_atoms"}``

``deviation`` (required) -- exactly one of
    ``h``: list of finite numbers, one per isotope in chain order, not all zero
    ``preset``: ``"sign_split"`` (-1 on the lighter half, +1 on the heavier);
    either way, its projection must stay within the float range (error at ``h``)

``protocol`` (optional) -- any subset of the :class:`ProtocolConfig`
    fields.  Coherence times accept a number or the string ``"inf"``.  When
    any scan block is present, ``omega`` and ``tau`` must be written
    explicitly; they are never defaulted into a scan.

``scans`` (optional) -- list of :class:`ScanSpec` blocks.  ``name``
    defaults to ``scan<index>`` and is unique ignoring case; atom grids
    are integral; ``sigma_sys``, ``n_fixed`` (at least one atom per
    isotope) and the :class:`BeamSpec` ``beam`` belong to time scans only;
    a time grid must start at one repetition or more (``rep_rate``, or
    1/``tau`` when unset, times the first time).

``oracle`` (optional) -- an :class:`OracleSpec` block: ``budget``, the
    qubit budget; every check that fits in it runs at its pinned tolerance.

Every block that has a dataclass is built by it from its JSON object, and
written from its fields; each field's metadata holds its rule (see
:mod:`apvsim.rules`).  This module checks only the rules that need more
than one block.
Parsing applies every default, so serializing a parsed scenario yields a
fully explicit document; parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .chain import DeviationPattern, Isotope, IsotopeChain, build_chain, project_deviation
from .checks import OracleSpec
from .protocols import ProtocolConfig
from .rules import FieldError, read, write
from .scans import ScanSpec, _short_first_time

__all__ = [
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_dict",
    "scenario_to_dict",
    "canonical_json",
    "scenario_sha256",
    "bundled_scenario_path",
]


class ScenarioError(FieldError):
    """Validation failure(s), each carrying the offending key path."""

    def __str__(self):
        return "invalid scenario:\n" + "\n".join(f"  {path}: {reason}" for path, reason in self.errors)


@dataclass(frozen=True)
class Scenario:
    chain: IsotopeChain
    deviation: DeviationPattern
    protocol: ProtocolConfig
    scans: tuple[ScanSpec, ...]
    oracle: OracleSpec | None = None


def _expect_mapping(node, path, errs):
    if not isinstance(node, dict):
        errs.append((path, f"expected an object, got {type(node).__name__}"))
        return False
    return True


def _reject_unknown(node, allowed, path, errs):
    for key in node:
        if key not in allowed:
            errs.append((f"{path}.{key}", "unknown key"))


def _read(value, where, errs, rule):
    """``value`` read by ``rule`` (see :func:`apvsim.rules.read`), recording at
    key path ``where`` how it breaks the rule."""
    value, reasons = read(value, rule)
    errs.extend((where + below, reason) for below, reason in reasons)
    return value


_SIN2_THETA_W = {"required": True, "minimum": 0.0, "exclusive_min": True, "maximum": 0.5}
_REF_A = {"integer": True, "required": True, "minimum": 1}


def _parse_chain(node, errs) -> IsotopeChain | None:
    if not _expect_mapping(node, "chain", errs):
        return None
    _reject_unknown(node, {"sin2_theta_w", "ref_A", "isotopes"}, "chain", errs)
    s2w = _read(node.get("sin2_theta_w"), "chain.sin2_theta_w", errs, _SIN2_THETA_W)
    ref_a = _read(node.get("ref_A"), "chain.ref_A", errs, _REF_A)
    raw = node.get("isotopes")
    if not isinstance(raw, list) or len(raw) < 2:
        errs.append(("chain.isotopes", "need a list of >= 2 isotopes"))
        return None
    isotopes = [_read(entry, f"chain.isotopes[{i}]", errs, {"block": Isotope}) for i, entry in enumerate(raw)]
    if s2w is None or ref_a is None or any(iso is None for iso in isotopes):
        return None
    masses = [iso.A for iso in isotopes]
    if len(set(masses)) != len(masses):
        errs.append(("chain.isotopes", "duplicate mass numbers"))
        return None
    if masses.count(ref_a) != 1:
        errs.append(("chain.ref_A", f"mass number {ref_a} not found in the isotope list"))
        return None
    try:
        return build_chain(isotopes, ref_index=masses.index(ref_a), sin2_theta_w=s2w)
    except ValueError as exc:
        errs.append(("chain", str(exc)))
        return None


def _parse_deviation(node, chain, errs) -> DeviationPattern | None:
    if not _expect_mapping(node, "deviation", errs):
        return None
    _reject_unknown(node, {"h", "preset"}, "deviation", errs)
    has_h, has_preset = "h" in node, "preset" in node
    if has_h == has_preset:
        errs.append(("deviation", "give exactly one of 'h' or 'preset'"))
        return None
    if has_preset:
        preset = _read(node["preset"], "deviation.preset", errs, {"choices": ("sign_split",)})
        return DeviationPattern.sign_split(chain) if chain and preset else None
    values = _read(node["h"], "deviation.h", errs, {"numbers": True})
    if values is None:
        return None
    if chain and len(values) != len(chain.isotopes):
        errs.append(("deviation.h", f"length {len(values)} does not match chain length {len(chain.isotopes)}"))
        return None
    if all(x == 0.0 for x in values):
        errs.append(("deviation.h", "pattern must have at least one nonzero entry"))
        return None
    return DeviationPattern(h=values)


def _parse_protocol(node, errs, scans_present) -> ProtocolConfig | None:
    node = node if node is not None else {}
    if scans_present and isinstance(node, dict):
        for key in ("omega", "tau"):
            if key not in node:
                errs.append((f"protocol.{key}",
                             "must be explicit when scans are requested (no silent default)"))
    cfg = _read(node, "protocol", errs, {"block": ProtocolConfig})
    if cfg is not None and cfg.reps < 1:
        errs.append(("protocol", f"rep_rate * t_avg must be >= 1, got {cfg.reps}"))
        return None
    return cfg


_SCAN_RULES = {f.name: f.metadata for f in fields(ScanSpec)}


def _parse_scan(node, index, errs, n_isotopes, protocol) -> tuple[str | None, ScanSpec | None]:
    """The block's name (None if invalid) and its ScanSpec (None if invalid)."""
    path = f"scans[{index}]"
    if not _expect_mapping(node, path, errs):
        return None, None
    node = {"name": f"scan{index}", **node}
    spec = _read(node, path, errs, {"block": ScanSpec})
    # the name and the chain's rule on n_fixed hold apart from the block's other keys
    name, bad_name = read(node["name"], _SCAN_RULES["name"])
    n_fixed, bad_n_fixed = read(node.get("n_fixed"), _SCAN_RULES["n_fixed"])
    if node.get("axis") == "time" and not bad_n_fixed and n_fixed < n_isotopes:
        errs.append((f"{path}.n_fixed", f"must be >= {n_isotopes} (one atom per isotope), got {n_fixed}"))
        spec = None
    timed = spec and protocol and spec.axis == "time"
    if timed and (reason := _short_first_time(replace(protocol, t_avg=spec.grid[0]))):
        errs.append((f"{path}.grid", reason))
        spec = None
    return None if bad_name else name, spec


def _check_projection_range(chain, deviation, scans, errs):
    """Record at ``deviation.h`` a pattern whose projection leaves the float
    range at the chain's allocation, as projected, or at a scan's, as bounded
    through the largest total N of its grid or ``n_fixed``: with Q = max |q_A|
    and R = max |h_A / q_A| >= |beta|, each sum of :func:`project_deviation`
    (of N_A h_A q_A, N_A q_A^2 and N_A |h_A - beta q_A|) and each of its terms
    is at most N max(R, 1) Q max(Q, 2)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            if chain.total_atoms:
                project_deviation(chain, deviation)
    except (ArithmeticError, ValueError):  # FloatingPointError, or fsum's inf - inf
        errs.append(("deviation.h", "too large: its projection leaves the float range at the chain's allocation"))
        return
    n = max((spec.grid[-1] if spec.axis == "atom_number" else spec.n_fixed for spec in scans), default=0)
    q = max(map(abs, chain.q))
    r = max(abs(h / qa) for h, qa in zip(deviation.h, chain.q))
    if not n * max(r, 1.0) * q * max(q, 2.0) < sys.float_info.max / 2:
        errs.append(("deviation.h", f"too large: its projection may leave the float range at {n:.6g} atoms"))


def parse_scenario_dict(data: dict) -> Scenario:
    """Validate a scenario tree; raises :class:`ScenarioError` listing every
    problem found (key path plus reason)."""
    if not isinstance(data, dict):
        raise ScenarioError([("$", f"expected a top-level object, got {type(data).__name__}")])
    errs: list[tuple[str, str]] = []
    _reject_unknown(data, [f.name for f in fields(Scenario)], "$", errs)
    missing = [key for key in ("chain", "deviation") if key not in data]
    errs.extend((key, "required section missing") for key in missing)
    if missing:
        raise ScenarioError(errs)

    chain = _parse_chain(data["chain"], errs)
    deviation = _parse_deviation(data["deviation"], chain, errs)
    raw_scans = data.get("scans", [])
    if not isinstance(raw_scans, list):
        errs.append(("scans", "expected a list of scan blocks"))
        raw_scans = []
    protocol = _parse_protocol(data.get("protocol"), errs, scans_present=bool(raw_scans))
    parsed = [_parse_scan(raw, i, errs, len(chain.isotopes) if chain else 1, protocol)
              for i, raw in enumerate(raw_scans)]
    scans = [spec for _, spec in parsed if spec is not None]
    # a scan rejected for another reason still claims its name, and names
    # that differ only by case share a CSV on a case-insensitive file system
    names = [name for name, _ in parsed if name is not None]
    folded = [name.lower() for name in names]
    if len(set(folded)) != len(folded):
        repeated = sorted(n for n in names if folded.count(n.lower()) > 1)
        errs.append(("scans", f"duplicate scan names, ignoring case: {repeated}"))
    oracle = _read(data["oracle"], "oracle", errs, {"block": OracleSpec}) if "oracle" in data else None
    if chain and deviation:
        _check_projection_range(chain, deviation, scans, errs)
    if errs:
        raise ScenarioError(errs)
    return Scenario(chain=chain, deviation=deviation, protocol=protocol, scans=tuple(scans), oracle=oracle)


def parse_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file; its text is freed once parsed as JSON."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, JSONDecodeError, or an integer of too many digits
        raise ScenarioError([("$", f"not valid JSON: {exc}")]) from exc
    return parse_scenario_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Fully explicit, canonical form of a scenario (defaults applied)."""
    out: dict = {
        "chain": {
            "sin2_theta_w": s.chain.sin2_theta_w,
            "ref_A": s.chain.isotopes[s.chain.ref_index].A,
            "isotopes": [write(iso) for iso in s.chain.isotopes],
        },
        "deviation": {"h": list(s.deviation.h)},
        "protocol": write(s.protocol),
    }
    if s.scans:
        out["scans"] = [write(spec) for spec in s.scans]
    if s.oracle is not None:
        out["oracle"] = write(s.oracle)
    return out


_SLICE = 4096
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _holds_long_list(node) -> bool:
    """Whether ``node`` is, or holds, a list of more than ``_SLICE`` items;
    :func:`scenario_to_dict` makes plain dicts and lists only."""
    if type(node) is dict:
        node = node.values()
    elif type(node) is not list:
        return False
    elif len(node) > _SLICE:
        return True
    return not {dict, list}.isdisjoint(map(type, node)) and any(map(_holds_long_list, node))


def _pieces(node):
    """The canonical text of a JSON tree, in pieces that do not grow with a
    scan grid: a subtree holding no list longer than ``_SLICE`` items is one
    piece, and a longer list is encoded ``_SLICE`` items at a time."""
    if not _holds_long_list(node):
        yield _ENCODE(node)
    elif type(node) is dict:
        sep = "{"
        for key in sorted(node):
            yield f"{sep}{_ENCODE(key)}:"
            yield from _pieces(node[key])
            sep = ","
        yield "}"
    else:
        sep = "["
        for start in range(0, len(node), _SLICE):
            part = node[start:start + _SLICE]
            if _holds_long_list(part):  # a long list within a list
                for item in part:
                    yield sep
                    yield from _pieces(item)
                    sep = ","
            else:
                yield sep + _ENCODE(part)[1:-1]
                sep = ","
        yield "]"


def canonical_json(s: Scenario) -> str:
    """Canonical serialization: sorted keys, fixed separators."""
    return "".join(_pieces(scenario_to_dict(s)))


def scenario_sha256(s: Scenario) -> str:
    """SHA-256 of :func:`canonical_json`, fed in its pieces."""
    digest = hashlib.sha256()
    for piece in _pieces(scenario_to_dict(s)):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def bundled_scenario_path(name: str = "yb_even_chain") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(str(resources.files("apvsim").joinpath(f"data/{name}.json")))
