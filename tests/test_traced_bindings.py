"""The benchmark reads apvsim by name.  Its tracer wraps module attributes,
and each one it names must exist, or a traced run dies with an
AttributeError; its output check keeps its own copy of the error slugs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from apvsim.protocols import ERROR_SLUGS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The module ``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


_TRACING = _load("tracing")


@pytest.mark.parametrize("module,attr,span", _TRACING.TIMED + _TRACING.SIZED + _TRACING.COUNTED)
def test_every_traced_binding_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


_OUTPUTS = _load("outputs")


def test_the_benchmarks_slugs_are_slugs_of_the_table():
    assert _OUTPUTS.DOCUMENTED_SLUGS <= {slug for _, slug in ERROR_SLUGS}


@pytest.mark.xfail(strict=True, reason="perfbench/outputs.py DOCUMENTED_SLUGS lacks no_contrast "
                   "(the CHANGES.md FOUND on perfbench/outputs.py DOCUMENTED_SLUGS)")
def test_the_benchmarks_slugs_are_the_table():
    assert _OUTPUTS.DOCUMENTED_SLUGS == {slug for _, slug in ERROR_SLUGS}
