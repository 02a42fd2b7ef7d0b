"""Field rules: the values each field of a scenario dataclass may hold.

A rule is a field's metadata, read by :func:`violations`.  The scenario
parser applies it to each JSON value it has converted, and each dataclass
applies it to itself when built (:func:`check_fields`): both give one reason.
"""

from __future__ import annotations

import operator
import re
from itertools import repeat

__all__ = ["violations", "check_fields"]


def _bound(value, rule) -> str | None:
    """Why the number ``value`` is outside the bounds of ``rule``, or None."""
    minimum = rule.get("minimum")
    if minimum is not None and not (value > minimum if rule.get("exclusive_min") else value >= minimum):
        return f"must be {'>' if rule.get('exclusive_min') else '>='} {minimum}, got {value}"
    maximum = rule.get("maximum")
    if maximum is not None and not (value <= maximum if rule.get("max_inclusive") else value < maximum):
        return f"must be {'<=' if rule.get('max_inclusive') else '<'} {maximum}, got {value}"
    return "must be nonzero" if value == 0 and rule.get("nonzero") else None


def violations(name: str, value, rule) -> list[tuple[str, str]]:
    """How ``value`` of the field ``name`` breaks ``rule``, as (key path below
    the field, reason) pairs; empty when it meets the rule.

    ``minimum`` (``exclusive_min``), ``maximum`` (``max_inclusive``) and ``nonzero``
    bound a number, NaN being outside every bound; ``choices`` lists the values
    allowed; ``items`` the names of a nonempty sequence, none repeated; ``numbers``
    marks a nonempty sequence (``positive``, ``increasing``); ``keys`` names (name,
    number) pairs whose numbers keep the bounds; ``label`` marks a [A-Za-z0-9_-] name.
    """
    if "choices" in rule:
        return [] if value in rule["choices"] else [
            ("", f"must be one of {list(rule['choices'])}, got {value!r}")]
    if "label" in rule:
        ok = isinstance(value, str) and re.fullmatch("[A-Za-z0-9_-]+", value)
        return [] if ok else [("", "must be a nonempty string of [A-Za-z0-9_-]")]
    if "keys" in rule:
        reasons = ((key, _bound(number, rule) if key in rule["keys"] else
                    f"unknown name; choose from {list(rule['keys'])}") for key, number in value)
        return [(f".{key}", reason) for key, reason in reasons if reason]
    if "items" in rule or "numbers" in rule:
        if not value:
            return [("", "must not be empty")]
        if "items" in rule:
            unknown = [v for v in value if v not in rule["items"]]
            if unknown:
                return [("", f"unknown {name} {unknown}; choose from {list(rule['items'])}")]
            repeated = sorted({v for v in value if value.count(v) > 1})
            return [("", f"names may not repeat: {repeated}")] if repeated else []
        # numbers: whole-sequence tests first, as a scan grid can hold 5e4 values
        if rule.get("positive") and not all(map(operator.gt, value, repeat(0.0))):
            return [(f"[{i}]", f"must be > 0.0, got {v}") for i, v in enumerate(value) if not v > 0]
        if rule.get("increasing") and not all(map(operator.lt, value, value[1:])):
            return [("", "values must be strictly increasing")]
        return []
    reason = _bound(value, rule)
    return [("", reason)] if reason else []


def check_fields(obj) -> None:
    """Raise ValueError, naming the field and the reason, at the first field of
    the dataclass ``obj`` that breaks its rule; a field that is None is unset."""
    # the class's field table: dataclasses.fields() builds a tuple per call
    for name, f in obj.__dataclass_fields__.items():
        value = getattr(obj, name)
        if value is not None:
            for below, reason in violations(name, value, f.metadata):
                raise ValueError(f"{name}{below}: {reason}")
