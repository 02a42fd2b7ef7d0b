"""Scenario files: a strict, hand-editable JSON tree describing one run.

Top-level sections (unknown keys are rejected everywhere, with the
offending key path reported):

``chain`` (required)
    ``sin2_theta_w``: number in (0, 0.5)
    ``ref_A``: mass number of the reference isotope (must occur exactly once)
    ``isotopes``: list of >= 2 :class:`Isotope` entries ``{"A", "Z", "n_atoms"}``

``deviation`` (required) -- exactly one of
    ``h``: list of finite numbers, one per isotope in chain order, not all zero
    ``preset``: ``"sign_split"`` (-1 on the lighter half, +1 on the heavier)

``protocol`` (optional) -- any subset of the :class:`ProtocolConfig`
    fields.  Coherence times accept a number or the string ``"inf"``.  When
    any scan block is present, ``omega`` and ``tau`` must be written
    explicitly; they are never defaulted into a scan.

``scans`` (optional) -- list of :class:`ScanSpec` blocks.  ``name``
    defaults to ``scan<index>`` and is unique ignoring case; atom grids
    are integral; ``sigma_sys``, ``n_fixed`` (at least one atom per
    isotope) and the :class:`BeamSpec` ``beam`` belong to time scans only.

``oracle`` (optional) -- an :class:`OracleSpec` block: ``budget``,
    ``tolerances`` (check name -> tolerance) and ``checks``.

``interference`` (optional) -- an :class:`InterferenceSpec` block: either
    or both of its field groups (``zeta_over_beta`` with ``e_field``) and
    (``omega_pc``, ``omega_pnc``, ``detuning``).

Every block that has a dataclass is read and written from that
dataclass's fields; each field's metadata holds its rule (see
:mod:`apvsim.rules`), which the dataclass also applies to itself.
Parsing applies every default, so serializing a parsed scenario yields a
fully explicit document; parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .chain import DeviationPattern, Isotope, IsotopeChain, build_chain
from .checks import OracleSpec
from .interference import InterferenceSpec
from .protocols import ProtocolConfig
from .rules import violations
from .scans import ScanSpec

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


class ScenarioError(ValueError):
    """Validation failure(s), each carrying the offending key path."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        lines = "\n".join(f"  {path}: {reason}" for path, reason in self.errors)
        super().__init__(f"invalid scenario:\n{lines}")


@dataclass(frozen=True)
class Scenario:
    chain: IsotopeChain
    deviation: DeviationPattern
    protocol: ProtocolConfig
    scans: tuple[ScanSpec, ...]
    oracle: OracleSpec | None = None
    interference: InterferenceSpec | None = None


def _expect_mapping(node, path, errs):
    if not isinstance(node, dict):
        errs.append((path, f"expected an object, got {type(node).__name__}"))
        return False
    return True


def _reject_unknown(node, allowed, path, errs):
    for key in node:
        if key not in allowed:
            errs.append((f"{path}.{key}", "unknown key"))


def _number(value, where, errs, rule):
    """A float; ``allow_inf`` admits the string "inf", ``finite`` (default
    True) rejects +-inf, and nan is never valid."""
    if rule.get("allow_inf") and value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.append((where, f"expected a number, got {value!r}"))
        return None
    try:
        value = float(value)
    except OverflowError:
        errs.append((where, "is beyond the range of a float"))
        return None
    if math.isnan(value) or (rule.get("finite", True) and math.isinf(value)):
        errs.append((where, "must be finite" if rule.get("finite", True) else "must not be nan"))
    return value


def _integer(value, where, errs, rule):
    """An int (an integral float is converted) that fits in a float, as every count must."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        errs.append((where, f"expected an integer, got {value!r}"))
        return None
    _number(value, where, errs, {})  # records an integer beyond a float
    return value


def _numbers(raw, where, errs, rule):
    """A list of finite numbers as a tuple of floats, each bad entry named by its index."""
    if not isinstance(raw, list):
        errs.append((where, "expected a list of numbers"))
        return None
    # Screen the whole list first: checking entry by entry would double the
    # parse time of a 5e4-point grid.  Only a list that fails is walked.
    if all(type(x) in (int, float) for x in raw):
        try:
            values = tuple(map(float, raw))
        except OverflowError:  # an integer beyond a float, named by the walk below
            pass
        else:
            if all(map(math.isfinite, values)):
                return values
    return tuple(_number(x, f"{where}[{i}]", errs, {}) for i, x in enumerate(raw))


def _names(value, where, errs, rule):
    if isinstance(value, list):
        return tuple(value)
    errs.append((where, "expected a list of names"))


def _keyed_numbers(raw, where, errs, rule):
    """An object of numbers (read by ``rule``) as (name, value) pairs sorted by name."""
    if _expect_mapping(raw, where, errs):
        return tuple((key, _number(raw[key], f"{where}.{key}", errs, rule)) for key in sorted(raw))


# Each reader takes (value, key path, errors, rule) and converts the JSON value to
# the type the dataclass holds, recording why not.  The first of these keys found
# in a rule picks its reader; a rule with none of them is a number, and one with
# "block" is a nested dataclass.
_READERS = {
    "integer": _integer,
    "choices": lambda value, *_: value,
    "items": _names,
    "numbers": _numbers,
    "keys": _keyed_numbers,
    "label": lambda value, *_: value,
}


def _get(node, key, path, errs, rule, default=None):
    """``node[key]`` read and checked by ``rule``; ``default`` when the key is
    absent (an error too if the rule says ``required``), None when it is invalid."""
    where = f"{path}.{key}"
    if key not in node:
        if rule.get("required"):
            errs.append((where, "required key missing"))
        return default
    if "block" in rule:
        return _parse_block(rule["block"], node[key], where, errs)
    read = next((reader for kind, reader in _READERS.items() if kind in rule), _number)
    before = len(errs)
    value = read(node[key], where, errs, rule)
    if len(errs) == before:
        errs.extend((where + below, reason) for below, reason in violations(key, value, rule))
    return value if len(errs) == before else None


def _parse_fields(cls, node, path, errs, skip=()) -> tuple[dict, bool]:
    """Keyword arguments for dataclass ``cls`` read from the mapping ``node``
    by each field's metadata rule (an absent key takes the field default, an
    invalid one reads as None, ``skip`` is not read), and whether all are valid."""
    _reject_unknown(node, [f.name for f in fields(cls)], path, errs)
    kw, valid = {}, True
    for f in fields(cls):
        if f.name not in skip:
            default = None if f.default is MISSING else f.default
            kw[f.name] = value = _get(node, f.name, path, errs, f.metadata, default)
            valid &= value is not None if f.name in node else not f.metadata.get("required")
    return kw, valid


def _parse_block(cls, node, path, errs):
    """Dataclass ``cls`` read from ``node``, or None after recording why not;
    a ValueError of its constructor is reported at ``path``."""
    if not _expect_mapping(node, path, errs):
        return None
    kw, valid = _parse_fields(cls, node, path, errs)
    if not valid:
        return None
    try:
        return cls(**kw)
    except ValueError as exc:
        errs.append((path, str(exc)))
        return None


def _fields_to_dict(obj) -> dict:
    """Inverse of :func:`_parse_fields`; fields that are None or empty are left out."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None or value == ():
            continue
        if "block" in f.metadata:
            value = _fields_to_dict(value)
        elif "keys" in f.metadata:
            value = dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif value == math.inf:
            value = "inf"
        out[f.name] = value
    return out


_SIN2_THETA_W = {"required": True, "minimum": 0.0, "exclusive_min": True, "maximum": 0.5}
_REF_A = {"integer": True, "required": True, "minimum": 1}


def _parse_chain(node, errs) -> IsotopeChain | None:
    if not _expect_mapping(node, "chain", errs):
        return None
    _reject_unknown(node, {"sin2_theta_w", "ref_A", "isotopes"}, "chain", errs)
    s2w = _get(node, "sin2_theta_w", "chain", errs, _SIN2_THETA_W)
    ref_a = _get(node, "ref_A", "chain", errs, _REF_A)
    raw = node.get("isotopes")
    if not isinstance(raw, list) or len(raw) < 2:
        errs.append(("chain.isotopes", "need a list of >= 2 isotopes"))
        return None
    isotopes = []
    for i, entry in enumerate(raw):
        iso = _parse_block(Isotope, entry, f"chain.isotopes[{i}]", errs)
        if iso is None:
            return None
        isotopes.append(iso)
    if s2w is None or ref_a is None:
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
        preset = _get(node, "preset", "deviation", errs, {"choices": ("sign_split",)})
        return DeviationPattern.sign_split(chain) if chain and preset else None
    values = _get(node, "h", "deviation", errs, {"numbers": True})
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
    cfg = _parse_block(ProtocolConfig, node, "protocol", errs)
    if cfg is not None and cfg.reps < 1:
        errs.append(("protocol", f"rep_rate * t_avg must be >= 1, got {cfg.reps}"))
        return None
    return cfg


_TIME_ONLY = tuple(f.name for f in fields(ScanSpec) if f.metadata.get("time_only"))


def _parse_scan(node, index, errs, n_isotopes) -> tuple[str | None, ScanSpec | None]:
    """The block's name (None if invalid) and its ScanSpec (None if invalid)."""
    path = f"scans[{index}]"
    if not _expect_mapping(node, path, errs):
        return None, None
    axis = node.get("axis")
    kw, valid = _parse_fields(ScanSpec, node, path, errs, skip=() if axis == "time" else _TIME_ONLY)
    if "name" not in node:
        kw["name"] = f"scan{index}"
    before = len(errs)
    if axis == "atom_number":
        if kw["grid"] is not None and any(not v.is_integer() for v in kw["grid"]):
            errs.append((f"{path}.grid", "atom numbers must be integers"))
        for key in _TIME_ONLY:
            if key in node:
                errs.append((f"{path}.{key}", "only valid for time scans"))
    elif kw.get("n_fixed") is not None and kw["n_fixed"] < n_isotopes:
        errs.append((f"{path}.n_fixed",
                     f"must be >= {n_isotopes} (one atom per isotope), got {kw['n_fixed']}"))
    # with every field valid, only the rules above can reject the scan
    return kw["name"], ScanSpec(**kw) if valid and len(errs) == before else None


def _parse_interference(node, errs, tau: float | None) -> InterferenceSpec | None:
    """The block, or None after recording why not; its diagnostics at Ramsey
    time ``tau`` (None: the protocol block is invalid) must fit in floats."""
    if not _expect_mapping(node, "interference", errs):
        return None
    before = len(errs)
    spec = _parse_block(InterferenceSpec, node, "interference", errs)
    groups: dict[str, list[str]] = {}
    for f in fields(InterferenceSpec):
        groups.setdefault(f.metadata["group"], []).append(f.name)
    for names in groups.values():
        given = [name for name in names if name in node]
        if given and len(given) != len(names):
            errs.append(("interference", f"{', '.join(names)} must appear together"))
    if not node:
        errs.append(("interference", "block present but empty"))
    if len(errs) > before or tau is None:
        return None
    try:
        report = spec.report(tau)
        if all(map(math.isfinite, [*report.pop("rate_terms", {}).values(), *report.values()])):
            return spec
    except OverflowError:  # |omega_pc + omega_pnc|^2
        pass
    errs.append(("interference", "its diagnostics are beyond the range of a float"))
    return None


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
    parsed = [_parse_scan(raw, i, errs, len(chain.isotopes) if chain else 1)
              for i, raw in enumerate(raw_scans)]
    scans = [spec for _, spec in parsed if spec is not None]
    # a scan rejected for another reason still claims its name, and names
    # that differ only by case share a CSV on a case-insensitive file system
    names = [name for name, _ in parsed if name is not None]
    folded = [name.lower() for name in names]
    if len(set(folded)) != len(folded):
        repeated = sorted(n for n in names if folded.count(n.lower()) > 1)
        errs.append(("scans", f"duplicate scan names, ignoring case: {repeated}"))
    oracle = _parse_block(OracleSpec, data["oracle"], "oracle", errs) if "oracle" in data else None
    tau = protocol.tau if protocol is not None else None
    interference = _parse_interference(data["interference"], errs, tau) if "interference" in data else None
    if errs:
        raise ScenarioError(errs)
    return Scenario(
        chain=chain,
        deviation=deviation,
        protocol=protocol,
        scans=tuple(scans),
        oracle=oracle,
        interference=interference,
    )


def parse_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ScenarioError([("$", f"not valid JSON: {exc}")]) from exc
    return parse_scenario_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Fully explicit, canonical form of a scenario (defaults applied)."""
    out: dict = {
        "chain": {
            "sin2_theta_w": s.chain.sin2_theta_w,
            "ref_A": s.chain.isotopes[s.chain.ref_index].A,
            "isotopes": [_fields_to_dict(iso) for iso in s.chain.isotopes],
        },
        "deviation": {"h": list(s.deviation.h)},
        "protocol": _fields_to_dict(s.protocol),
    }
    if s.scans:
        out["scans"] = [_fields_to_dict(spec) for spec in s.scans]
    if s.oracle is not None:
        out["oracle"] = _fields_to_dict(s.oracle)
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
