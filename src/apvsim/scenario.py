"""Scenario files: a strict, hand-editable JSON tree describing one run.

Top-level sections (unknown keys are rejected everywhere, with the
offending key path reported):

``chain`` (required)
    ``sin2_theta_w``: number in (0, 0.5)
    ``ref_A``: mass number of the reference isotope (must occur exactly once)
    ``isotopes``: list of ``{"A": int, "Z": int, "n_atoms": int}``

``deviation`` (required) -- exactly one of
    ``h``: list of finite numbers, one per isotope in chain order, not all zero
    ``preset``: ``"sign_split"`` (-1 on the lighter half, +1 on the heavier)

``protocol`` (optional) -- any subset of the :class:`ProtocolConfig`
    fields, each checked against the range in its field metadata.
    Coherence times accept a number or the string ``"inf"``.  When any scan
    block is present, ``omega`` and ``tau`` must be written explicitly;
    they are never defaulted into a scan.

``scans`` (optional) -- list of
    ``{"name"?: str, "axis": "atom_number"|"time", "grid": [numbers...],
       "protocols": [names...],
       "sigma_sys": number (time scans, required; 0 allowed),
       "n_fixed": int >= number of isotopes (time scans, required),
       "beam"?: {"coefficient": number, "floor": number} (time scans)}``

``oracle`` (optional)
    ``budget``: int, 1..14; ``tolerances``?: mapping of known check names
    to overrides; ``checks``?: subset of check names to run.

``interference`` (optional) -- diagnostics of the amplitude chain; either
    or both of the :class:`InterferenceSpec` field groups (``zeta_over_beta``
    with ``e_field``) and (``omega_pc``, ``omega_pnc``, ``detuning``).

Parsing applies every default, so serializing a parsed scenario yields a
fully explicit document; parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .chain import DeviationPattern, Isotope, IsotopeChain, build_chain
from .checks import KNOWN_CHECKS
from .oracle import QUBIT_CAP
from .protocols import PROTOCOLS, ProtocolConfig
from .scans import SCAN_AXES, ScanSpec

__all__ = [
    "Scenario",
    "InterferenceSpec",
    "ScenarioError",
    "parse_scenario",
    "parse_scenario_dict",
    "scenario_to_dict",
    "canonical_json",
    "scenario_sha256",
    "bundled_scenario_path",
]


class ScenarioError(ValueError):
    """Validation failure(s), each carrying the offending key path."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        lines = "\n".join(f"  {path}: {reason}" for path, reason in self.errors)
        super().__init__(f"invalid scenario:\n{lines}")


def _grouped(group: str, **bound):
    return field(default=None, metadata={"group": group, **bound})


@dataclass(frozen=True)
class InterferenceSpec:
    """Optional physical-amplitude diagnostics block.

    The fields of a group appear together or not at all.
    """

    zeta_over_beta: float | None = _grouped("stark")
    e_field: float | None = _grouped("stark", nonzero=True)
    omega_pc: float | None = _grouped("rabi")
    omega_pnc: float | None = _grouped("rabi")
    detuning: float | None = _grouped("rabi", nonzero=True)


@dataclass(frozen=True)
class Scenario:
    chain: IsotopeChain
    deviation: DeviationPattern
    protocol: ProtocolConfig
    scans: tuple[ScanSpec, ...]
    oracle_budget: int | None = None
    oracle_tolerances: tuple[tuple[str, float], ...] = ()
    oracle_checks: tuple[str, ...] | None = None
    interference: InterferenceSpec | None = None


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def add(self, path: str, reason: str):
        self.errors.append((path, reason))

    def raise_if_any(self):
        if self.errors:
            raise ScenarioError(self.errors)


def _expect_mapping(node, path, errs):
    if not isinstance(node, dict):
        errs.add(path, f"expected an object, got {type(node).__name__}")
        return False
    return True


def _reject_unknown(node, allowed, path, errs):
    for key in node:
        if key not in allowed:
            errs.add(f"{path}.{key}", "unknown key")


def _number(value, where, errs, minimum=None, maximum=None, exclusive_min=False,
            max_inclusive=False, allow_inf=False, nonzero=False):
    """``value`` as a float within the bounds, or None after recording why not."""
    if allow_inf and value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.add(where, f"expected a number, got {value!r}")
        return None
    value = float(value)
    if not math.isfinite(value):
        errs.add(where, "must be finite")
        return None
    if minimum is not None and (value <= minimum if exclusive_min else value < minimum):
        cmp = ">" if exclusive_min else ">="
        errs.add(where, f"must be {cmp} {minimum}, got {value}")
        return None
    if maximum is not None and (value > maximum if max_inclusive else value >= maximum):
        cmp = "<=" if max_inclusive else "<"
        errs.add(where, f"must be {cmp} {maximum}, got {value}")
        return None
    if nonzero and value == 0:
        errs.add(where, "must be nonzero")
        return None
    return value


def _get_number(node, key, path, errs, required=False, default=None, **bound):
    if key not in node:
        if required:
            errs.add(f"{path}.{key}", "required key missing")
        return default
    value = _number(node[key], f"{path}.{key}", errs, **bound)
    return default if value is None else value


def _get_numbers(node, key, path, errs, positive=False):
    """A nonempty list of finite numbers; every bad entry is reported by its index."""
    raw = node.get(key)
    if not isinstance(raw, list) or not raw:
        errs.add(f"{path}.{key}", "expected a nonempty list of numbers")
        return None
    # Screen the whole list first: checking entry by entry would double the
    # parse time of a 5e4-point grid.  Only a list that fails is walked.
    if all(type(x) in (int, float) for x in raw):
        values = tuple(map(float, raw))
        if all(map(math.isfinite, values)) and not (positive and min(values) <= 0):
            return values
    bound = {"minimum": 0.0, "exclusive_min": True} if positive else {}
    values = tuple(_number(x, f"{path}.{key}[{i}]", errs, **bound) for i, x in enumerate(raw))
    return None if None in values else values


def _get_int(node, key, path, errs, required=False, default=None, minimum=None, maximum=None):
    if key not in node:
        if required:
            errs.add(f"{path}.{key}", "required key missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            errs.add(f"{path}.{key}", f"expected an integer, got {value!r}")
            return default
    if minimum is not None and value < minimum:
        errs.add(f"{path}.{key}", f"must be >= {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        errs.add(f"{path}.{key}", f"must be <= {maximum}, got {value}")
        return default
    return value


def _get_choice(node, key, path, errs, choices, default=None):
    if key not in node:
        return default
    value = node[key]
    if value not in choices:
        errs.add(f"{path}.{key}", f"must be one of {list(choices)}, got {value!r}")
        return default
    return value


def _parse_chain(node, errs) -> IsotopeChain | None:
    if not _expect_mapping(node, "chain", errs):
        return None
    _reject_unknown(node, {"sin2_theta_w", "ref_A", "isotopes"}, "chain", errs)
    s2w = _get_number(node, "sin2_theta_w", "chain", errs, required=True,
                      minimum=0.0, maximum=0.5, exclusive_min=True)
    ref_a = _get_int(node, "ref_A", "chain", errs, required=True, minimum=1)
    raw = node.get("isotopes")
    if not isinstance(raw, list) or len(raw) < 2:
        errs.add("chain.isotopes", "need a list of >= 2 isotopes")
        return None
    isotopes = []
    for i, entry in enumerate(raw):
        path = f"chain.isotopes[{i}]"
        if not _expect_mapping(entry, path, errs):
            return None
        _reject_unknown(entry, {"A", "Z", "n_atoms"}, path, errs)
        a = _get_int(entry, "A", path, errs, required=True, minimum=1)
        z = _get_int(entry, "Z", path, errs, required=True, minimum=1)
        n = _get_int(entry, "n_atoms", path, errs, required=True, minimum=0)
        if None in (a, z, n):
            return None
        if z > a:
            errs.add(path, f"Z={z} exceeds A={a}")
            return None
        isotopes.append(Isotope(A=a, Z=z, n_atoms=n))
    if s2w is None or ref_a is None:
        return None
    masses = [iso.A for iso in isotopes]
    if len(set(masses)) != len(masses):
        errs.add("chain.isotopes", "duplicate mass numbers")
        return None
    if masses.count(ref_a) != 1:
        errs.add("chain.ref_A", f"mass number {ref_a} not found in the isotope list")
        return None
    try:
        return build_chain(isotopes, ref_index=masses.index(ref_a), sin2_theta_w=s2w)
    except ValueError as exc:
        errs.add("chain", str(exc))
        return None


def _parse_deviation(node, chain, errs) -> DeviationPattern | None:
    if not _expect_mapping(node, "deviation", errs):
        return None
    _reject_unknown(node, {"h", "preset"}, "deviation", errs)
    has_h, has_preset = "h" in node, "preset" in node
    if has_h == has_preset:
        errs.add("deviation", "give exactly one of 'h' or 'preset'")
        return None
    if has_preset:
        if node["preset"] != "sign_split":
            errs.add("deviation.preset", f"unknown preset {node['preset']!r}")
            return None
        return DeviationPattern.sign_split(chain) if chain else None
    values = _get_numbers(node, "h", "deviation", errs)
    if values is None:
        return None
    if chain and len(values) != len(chain.isotopes):
        errs.add("deviation.h", f"length {len(values)} does not match chain length {len(chain.isotopes)}")
        return None
    if all(x == 0.0 for x in values):
        errs.add("deviation.h", "pattern must have at least one nonzero entry")
        return None
    return DeviationPattern(h=values)


def _parse_fields(cls, node, path, errs) -> dict:
    """Keyword arguments for dataclass ``cls`` from ``node``: absent keys take
    the field default, present ones are checked against the field metadata
    (``choices``, or the bounds of :func:`_number`)."""
    _reject_unknown(node, {f.name for f in fields(cls)}, path, errs)
    kw = {}
    for f in fields(cls):
        bound = {k: v for k, v in f.metadata.items() if k != "group"}
        if "choices" in bound:
            kw[f.name] = _get_choice(node, f.name, path, errs, bound["choices"], f.default)
        else:
            kw[f.name] = _get_number(node, f.name, path, errs, default=f.default, **bound)
    return kw


def _fields_to_dict(obj) -> dict:
    """Inverse of :func:`_parse_fields`; fields that are None are left out."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None:
            out[f.name] = "inf" if value == math.inf else value
    return out


def _parse_protocol(node, errs, scans_present) -> ProtocolConfig | None:
    node = node if node is not None else {}
    if not _expect_mapping(node, "protocol", errs):
        return None
    if scans_present:
        for key in ("omega", "tau"):
            if key not in node:
                errs.add(f"protocol.{key}",
                         "must be explicit when scans are requested (no silent default)")
    before = len(errs.errors)
    cfg = ProtocolConfig(**_parse_fields(ProtocolConfig, node, "protocol", errs))
    if len(errs.errors) > before:
        return None
    if cfg.reps < 1:
        errs.add("protocol", f"rep_rate * t_avg must be >= 1, got {cfg.reps}")
        return None
    return cfg


_SCAN_KEYS = {"name", "axis", "grid", "protocols", "sigma_sys", "n_fixed", "beam"}


def _parse_scan(node, index, errs, n_isotopes) -> ScanSpec | None:
    path = f"scans[{index}]"
    if not _expect_mapping(node, path, errs):
        return None
    _reject_unknown(node, _SCAN_KEYS, path, errs)
    axis = _get_choice(node, "axis", path, errs, SCAN_AXES)
    if axis is None:
        if "axis" not in node:
            errs.add(f"{path}.axis", "required key missing")
        return None
    name = node.get("name", f"scan{index}")
    if not isinstance(name, str) or not name or not all(c.isalnum() or c in "_-" for c in name):
        errs.add(f"{path}.name", "must be a nonempty string of [A-Za-z0-9_-]")
        return None
    grid = _get_numbers(node, "grid", path, errs, positive=True)
    if grid is None:
        return None
    if any(b >= a for a, b in zip(grid[1:], grid)):
        errs.add(f"{path}.grid", "values must be strictly increasing")
        return None
    if axis == "atom_number" and any(not float(v).is_integer() for v in grid):
        errs.add(f"{path}.grid", "atom numbers must be integers")
        return None
    raw_protocols = node.get("protocols")
    if not isinstance(raw_protocols, list) or not raw_protocols:
        errs.add(f"{path}.protocols", "expected a nonempty list of protocol names")
        return None
    bad = [p for p in raw_protocols if p not in PROTOCOLS]
    if bad:
        errs.add(f"{path}.protocols", f"unknown protocols {bad}; choose from {list(PROTOCOLS)}")
        return None
    sigma_sys = n_fixed = beam_coeff = beam_floor = None
    if axis == "time":
        sigma_sys = _get_number(node, "sigma_sys", path, errs, required=True, minimum=0.0)
        # every isotope needs at least one atom
        n_fixed = _get_int(node, "n_fixed", path, errs, required=True, minimum=n_isotopes)
        if "beam" in node:
            beam = node["beam"]
            if not _expect_mapping(beam, f"{path}.beam", errs):
                return None
            _reject_unknown(beam, {"coefficient", "floor"}, f"{path}.beam", errs)
            beam_coeff = _get_number(beam, "coefficient", f"{path}.beam", errs, required=True,
                                     minimum=0.0, exclusive_min=True)
            beam_floor = _get_number(beam, "floor", f"{path}.beam", errs, required=True, minimum=0.0)
        if sigma_sys is None or n_fixed is None:
            return None
    else:
        for key in ("sigma_sys", "n_fixed", "beam"):
            if key in node:
                errs.add(f"{path}.{key}", "only valid for time scans")
    try:
        return ScanSpec(
            axis=axis, grid=grid, protocols=tuple(raw_protocols), name=name,
            sigma_sys=sigma_sys, n_fixed=n_fixed,
            beam_coefficient=beam_coeff, beam_floor=beam_floor,
        )
    except ValueError as exc:
        errs.add(path, str(exc))
        return None


def _parse_oracle(node, errs):
    if not _expect_mapping(node, "oracle", errs):
        return None, (), None
    _reject_unknown(node, {"budget", "tolerances", "checks"}, "oracle", errs)
    budget = _get_int(node, "budget", "oracle", errs, required=True, minimum=1, maximum=QUBIT_CAP)
    tolerances = []
    raw = node.get("tolerances", {})
    if not isinstance(raw, dict):
        errs.add("oracle.tolerances", "expected an object of check-name -> tolerance")
    else:
        for key in sorted(raw):
            if key not in KNOWN_CHECKS:
                errs.add(f"oracle.tolerances.{key}", f"unknown check; choose from {list(KNOWN_CHECKS)}")
                continue
            value = raw[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                errs.add(f"oracle.tolerances.{key}", f"expected a number >= 0, got {value!r}")
                continue
            tolerances.append((key, float(value)))
    checks = None
    if "checks" in node:
        raw_checks = node["checks"]
        if not isinstance(raw_checks, list) or not raw_checks:
            errs.add("oracle.checks", "expected a nonempty list of check names")
        else:
            bad = [c for c in raw_checks if c not in KNOWN_CHECKS]
            if bad:
                errs.add("oracle.checks", f"unknown checks {bad}; choose from {list(KNOWN_CHECKS)}")
            else:
                checks = tuple(raw_checks)
    return budget, tuple(tolerances), checks


def _parse_interference(node, errs) -> InterferenceSpec | None:
    if not _expect_mapping(node, "interference", errs):
        return None
    spec = InterferenceSpec(**_parse_fields(InterferenceSpec, node, "interference", errs))
    groups: dict[str, list[str]] = {}
    for f in fields(InterferenceSpec):
        groups.setdefault(f.metadata["group"], []).append(f.name)
    for names in groups.values():
        given = [name for name in names if name in node]
        if given and len(given) != len(names):
            errs.add("interference", f"{', '.join(names)} must appear together")
    if not node:
        errs.add("interference", "block present but empty")
    return spec


_TOP_KEYS = {"chain", "deviation", "protocol", "scans", "oracle", "interference"}


def parse_scenario_dict(data: dict) -> Scenario:
    """Validate a scenario tree; raises :class:`ScenarioError` listing every
    problem found (key path plus reason)."""
    errs = _Collector()
    if not isinstance(data, dict):
        errs.add("$", f"expected a top-level object, got {type(data).__name__}")
        errs.raise_if_any()
    _reject_unknown(data, _TOP_KEYS, "$", errs)
    missing = [key for key in ("chain", "deviation") if key not in data]
    for key in missing:
        errs.add(key, "required section missing")
    if missing:
        errs.raise_if_any()

    chain = _parse_chain(data["chain"], errs)
    deviation = _parse_deviation(data["deviation"], chain, errs)
    raw_scans = data.get("scans", [])
    if not isinstance(raw_scans, list):
        errs.add("scans", "expected a list of scan blocks")
        raw_scans = []
    protocol = _parse_protocol(data.get("protocol"), errs, scans_present=bool(raw_scans))
    scans = []
    for i, raw in enumerate(raw_scans):
        spec = _parse_scan(raw, i, errs, len(chain.isotopes) if chain else 1)
        if spec is not None:
            scans.append(spec)
    names = [s.name for s in scans]
    if len(set(names)) != len(names):
        errs.add("scans", f"duplicate scan names: {sorted(n for n in names if names.count(n) > 1)}")
    budget, tolerances, check_names = (None, (), None)
    if "oracle" in data:
        budget, tolerances, check_names = _parse_oracle(data["oracle"], errs)
    interference = _parse_interference(data["interference"], errs) if "interference" in data else None
    errs.raise_if_any()
    return Scenario(
        chain=chain,
        deviation=deviation,
        protocol=protocol,
        scans=tuple(scans),
        oracle_budget=budget,
        oracle_tolerances=tolerances,
        oracle_checks=check_names,
        interference=interference,
    )


def parse_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([("$", f"not valid JSON: {exc}")]) from exc
    return parse_scenario_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Fully explicit, canonical form of a scenario (defaults applied)."""
    out: dict = {
        "chain": {
            "sin2_theta_w": s.chain.sin2_theta_w,
            "ref_A": s.chain.isotopes[s.chain.ref_index].A,
            "isotopes": [
                {"A": iso.A, "Z": iso.Z, "n_atoms": iso.n_atoms} for iso in s.chain.isotopes
            ],
        },
        "deviation": {"h": list(s.deviation.h)},
        "protocol": _fields_to_dict(s.protocol),
    }
    if s.scans:
        blocks = []
        for spec in s.scans:
            block: dict = {
                "name": spec.name,
                "axis": spec.axis,
                "grid": list(spec.grid),
                "protocols": list(spec.protocols),
            }
            if spec.axis == "time":
                block["sigma_sys"] = spec.sigma_sys
                block["n_fixed"] = spec.n_fixed
                if spec.beam_coefficient is not None:
                    block["beam"] = {"coefficient": spec.beam_coefficient, "floor": spec.beam_floor}
            blocks.append(block)
        out["scans"] = blocks
    if s.oracle_budget is not None:
        oracle: dict = {"budget": s.oracle_budget}
        if s.oracle_tolerances:
            oracle["tolerances"] = {k: v for k, v in s.oracle_tolerances}
        if s.oracle_checks is not None:
            oracle["checks"] = list(s.oracle_checks)
        out["oracle"] = oracle
    if s.interference is not None:
        out["interference"] = _fields_to_dict(s.interference)
    return out


def canonical_json(s: Scenario) -> str:
    """Canonical serialization: sorted keys, fixed separators."""
    return json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))


def scenario_sha256(s: Scenario) -> str:
    return hashlib.sha256(canonical_json(s).encode("utf-8")).hexdigest()


def bundled_scenario_path(name: str = "yb_even_chain") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    return Path(str(resources.files("apvsim").joinpath(f"data/{name}.json")))
