"""The benchmark's tracer wraps module attributes of apvsim by name; each one
it names must exist, or a traced run dies with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()


@pytest.mark.parametrize("module,attr,span", _TRACING.TIMED + _TRACING.SIZED + _TRACING.COUNTED)
def test_every_traced_binding_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span
