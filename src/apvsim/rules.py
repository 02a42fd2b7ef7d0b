"""Field rules: the values each field of a scenario dataclass may hold.

A rule is a field's metadata, read by :func:`read`, the one reader of
every field kind.  It takes a JSON value or the value a constructor was
given and returns it converted, with the reasons it breaks the rule.  Each
dataclass reads its own fields when built (:func:`check_fields`), so the
scenario parser, which builds each block from its JSON object, and a
direct constructor call accept the same values and give the same reasons;
:func:`write` gives a block's JSON object back.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import suppress
from itertools import repeat

__all__ = ["FieldError", "read", "write", "check_fields"]


class FieldError(ValueError):
    """Fields that break their rules, as (key path, reason) pairs in
    ``errors``; its message is one line "path: reason" per pair, the reason
    alone for the whole block (path "")."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = list(errors)
        super().__init__("\n".join(f"{path}: {reason}" if path else reason for path, reason in self.errors))


def _bound(value, rule) -> str | None:
    """Why the number ``value`` is outside the bounds of ``rule``, or None."""
    minimum = rule.get("minimum")
    if minimum is not None and not (value > minimum if rule.get("exclusive_min") else value >= minimum):
        return f"must be {'>' if rule.get('exclusive_min') else '>='} {minimum}, got {value}"
    maximum = rule.get("maximum")
    if maximum is not None and not (value <= maximum if rule.get("max_inclusive") else value < maximum):
        return f"must be {'<=' if rule.get('max_inclusive') else '<'} {maximum}, got {value}"


def _number(value, rule) -> tuple[float | None, str | None]:
    """A float and why it breaks ``rule``; ``allow_inf`` admits +-inf and the
    string "inf", and NaN is never valid."""
    if rule.get("allow_inf") and value == "inf":
        value = math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None, f"expected a number, got {value!r}"
    try:
        value = float(value)
    except OverflowError:
        return None, "is beyond the range of a float"
    if math.isnan(value) or (math.isinf(value) and not rule.get("allow_inf")):
        return None, "must not be nan" if rule.get("allow_inf") else "must be finite"
    return value, _bound(value, rule)


def _integer(value, rule) -> tuple[int | None, str | None]:
    """An int (an integral float is converted) that fits in a float, as every
    count must, and why it breaks ``rule``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        return None, f"expected an integer, got {value!r}"
    # only an int of 1024 bits or more can be beyond the range of a float
    return value, (value.bit_length() > 1023 and _number(value, {})[1]) or _bound(value, rule)


def _numbers(value, rule) -> tuple[tuple | None, list[tuple[str, str]]]:
    """A nonempty list of finite numbers as a tuple of floats, each bad entry
    named by its index."""
    if not isinstance(value, (list, tuple)):
        return None, [("", "expected a list of numbers")]
    # Whole-sequence tests first, as a scan grid can hold 5e4 values: checking
    # entry by entry would double its read time.  Only a list that fails is walked.
    numbers = None
    if {int, float}.issuperset(map(type, value)):  # one C-level pass; bool and numpy floats are walked
        with suppress(OverflowError):  # an integer beyond a float, named by the walk below
            numbers = tuple(map(float, value))
    if numbers is None or not all(map(math.isfinite, numbers)):
        entries = [_number(x, {}) for x in value]
        errors = [(f"[{i}]", reason) for i, (_, reason) in enumerate(entries) if reason]
        if errors:
            return None, errors
        numbers = tuple(number for number, _ in entries)  # e.g. numpy floats
    if not numbers:
        return None, [("", "must not be empty")]
    if rule.get("positive") and not all(map(operator.gt, numbers, repeat(0.0))):
        return None, [(f"[{i}]", f"must be > 0.0, got {v}") for i, v in enumerate(numbers) if not v > 0]
    if rule.get("increasing") and not all(map(operator.lt, numbers, numbers[1:])):
        return None, [("", "values must be strictly increasing")]
    return numbers, []


def _names(value, rule, name) -> tuple[tuple | None, list[tuple[str, str]]]:
    """A nonempty list of the names ``rule`` allows, none repeated, as a tuple."""
    if not isinstance(value, (list, tuple)):
        return None, [("", "expected a list of names")]
    if not value:
        return None, [("", "must not be empty")]
    unknown = [v for v in value if v not in rule["items"]]
    if unknown:
        return None, [("", f"unknown {name} {unknown}; choose from {list(rule['items'])}")]
    repeated = sorted({v for v in value if value.count(v) > 1})
    return (None, [("", f"names may not repeat: {repeated}")]) if repeated else (tuple(value), [])


def _block(value, cls) -> tuple[object | None, list[tuple[str, str]]]:
    """The dataclass ``cls`` built from the object ``value``: an unknown key
    is an error, a missing required one reads as None, and each error of the
    constructor's :class:`FieldError` is reported at its key path."""
    if isinstance(value, cls):
        return value, []
    if not isinstance(value, dict):
        return None, [("", f"expected an object, got {type(value).__name__}")]
    names = cls.__dataclass_fields__
    errors = [(f".{key}", "unknown key") for key in value if key not in names]
    kw = {name: value.get(name) for name, f in names.items() if name in value or f.metadata.get("required")}
    try:
        block = cls(**kw)
    except FieldError as exc:
        return None, errors + [(f".{path}" if path else "", reason) for path, reason in exc.errors]
    return block, errors


def read(value, rule, name: str = "value") -> tuple[object, list[tuple[str, str]]]:
    """``value`` of the field ``name`` converted by ``rule`` (None when it cannot
    be; a block with unknown keys is still built), and how it breaks the rule as
    (key path below the field, reason) pairs.

    A rule is a mapping.  Its kind is the first of these keys it holds:
    ``block``, a nested dataclass; ``choices``, the values allowed; ``label``,
    a [A-Za-z0-9_-] name; ``items``, the names a nonempty list may hold, none
    repeated; ``numbers``, a nonempty list of finite numbers (``positive``,
    ``increasing``); ``integer``; and with none of them, a number.
    ``minimum`` (``exclusive_min``) and ``maximum`` (``max_inclusive``) bound
    each number, ``allow_inf`` admits an infinite one, and a ``required``
    value is not None.
    """
    if value is None and rule.get("required"):
        return None, [("", "required key missing")]
    if "block" in rule:
        return _block(value, rule["block"])
    if "choices" in rule:
        if value in rule["choices"]:
            return value, []
        return None, [("", f"must be one of {list(rule['choices'])}, got {value!r}")]
    if "label" in rule:
        if isinstance(value, str) and re.fullmatch("[A-Za-z0-9_-]+", value):
            return value, []
        return None, [("", "must be a nonempty string of [A-Za-z0-9_-]")]
    if "items" in rule:
        return _names(value, rule, name)
    if "numbers" in rule:
        return _numbers(value, rule)
    value, reason = (_integer if "integer" in rule else _number)(value, rule)
    return (None, [("", reason)]) if reason else (value, [])


def write(block) -> dict:
    """The JSON object that :func:`read` builds the dataclass ``block`` from;
    fields that are None or empty are left out, and +inf is written "inf"."""
    out = {}
    for name, f in block.__dataclass_fields__.items():
        value = getattr(block, name)
        if value is None or value == ():
            continue
        if "block" in f.metadata:
            value = write(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif value == math.inf:
            value = "inf"
        out[name] = value
    return out


def check_fields(obj, block_rules=lambda bad: ()) -> None:
    """Read each field of the dataclass ``obj`` by its rule, keeping the value
    converted; a field that is None is unset unless its default is not None.

    ``block_rules(bad)``, given the names of the fields that broke their rules
    (left as given), returns (field or "", reason) pairs of the rules between
    fields; a pair at a bad field is dropped.  Raise ValueError with one line
    "field: reason" per problem, the reason alone for the whole block.
    """
    errors, bad = [], set()
    # the class's field table: dataclasses.fields() builds a tuple per call
    for name, f in obj.__dataclass_fields__.items():
        given = getattr(obj, name)
        if given is None and f.default is None:
            continue
        value, reasons = read(given, f.metadata, name)
        if reasons:
            bad.add(name)
            errors += [(name + below, reason) for below, reason in reasons]
        elif value is not given:
            object.__setattr__(obj, name, value)
    errors += [(name, reason) for name, reason in block_rules(bad) if name not in bad]
    if errors:
        raise FieldError(errors)
