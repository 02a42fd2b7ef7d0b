"""The benchmark runs ``apvsim run`` on the bundled scenario and on generated
scenarios; a tighter parser that rejected one of them would only show up as
failed benchmark ops.  Each input must parse, and hash as the one-shot
serialization of its canonical form does."""

import importlib.util
from pathlib import Path

import pytest

from apvsim import bundled_scenario_path, parse_scenario, parse_scenario_dict
from conftest import assert_canonical_form

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _workloads()


def test_bundled_scenario_parses():
    s = parse_scenario(bundled_scenario_path())
    assert s.scans
    assert_canonical_form(s)


@pytest.mark.parametrize("generate", [_WORKLOADS.atom_sweep_scenarios, _WORKLOADS.time_sweep_scenarios])
def test_every_pool_input_parses(generate):
    # the seeds of the pool whose outputs the benchmark checks byte for byte,
    # and whose grids of 10^4 and 5 x 10^4 points are hashed in slices
    for seed in range(_WORKLOADS.SEED_POOL):
        for data in generate(seed):
            s = parse_scenario_dict(data)
            assert s.scans, seed
            assert_canonical_form(s)
