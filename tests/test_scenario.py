import json
import math
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apvsim import (
    PROTOCOLS,
    BeamSpec,
    Isotope,
    OracleSpec,
    ProtocolConfig,
    ScanSpec,
    ScenarioError,
    bundled_scenario_path,
    parse_scenario,
    parse_scenario_dict,
    run,
    scenario_sha256,
    scenario_to_dict,
)
from apvsim import scenario as scenario_module
from apvsim.chain import project_deviation
from apvsim.protocols import ERROR_SLUGS
from apvsim.scans import SCAN_AXES, allocate_atoms
from conftest import assert_canonical_form, canonical_text, random_chain

MINIMAL = {
    "chain": {
        "sin2_theta_w": 0.2325,
        "ref_A": 174,
        "isotopes": [
            {"A": 170, "Z": 70, "n_atoms": 10},
            {"A": 174, "Z": 70, "n_atoms": 10},
        ],
    },
    "deviation": {"h": [1.0, -1.0]},
}


def scenario_with(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


def error_paths(exc_info):
    return [path for path, _ in exc_info.value.errors]


class TestParsing:
    def test_minimal_applies_protocol_defaults(self):
        s = parse_scenario_dict(MINIMAL)
        assert s.protocol.tau == 1.0
        assert s.protocol.f1 == 0.9999
        assert s.protocol.f2 == 0.999
        assert math.isinf(s.protocol.t2)
        assert s.scans == ()
        assert s.oracle is None

    def test_out_of_range_weak_mixing_names_the_key(self):
        data = scenario_with()
        data["chain"]["sin2_theta_w"] = 0.7
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "chain.sin2_theta_w" in error_paths(exc)

    def test_bundled_scenario_is_the_even_yb_chain(self):
        s = parse_scenario(bundled_scenario_path("yb_even_chain"))
        assert tuple(iso.A for iso in s.chain.isotopes) == (170, 172, 174, 176)
        assert all(iso.Z == 70 for iso in s.chain.isotopes)
        assert s.chain.isotopes[s.chain.ref_index].A == 174
        assert s.deviation.h == (-1.0, -1.0, 1.0, 1.0)
        assert {spec.axis for spec in s.scans} == {"atom_number", "time"}
        assert s.oracle.budget == 10

    def test_unknown_keys_are_rejected_everywhere(self):
        data = scenario_with(extra={"x": 1})
        data["chain"]["bogus"] = 1
        data["deviation"]["junk"] = 2
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        paths = error_paths(exc)
        assert "$.extra" in paths
        assert "chain.bogus" in paths
        assert "deviation.junk" in paths

    def test_missing_sections(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict({"chain": MINIMAL["chain"]})
        assert "deviation" in error_paths(exc)

    def test_deviation_validation(self):
        for bad in ({"h": [1.0]}, {"h": [0.0, 0.0]}, {"h": [1, -1], "preset": "sign_split"}, {}):
            data = scenario_with(deviation=bad)
            with pytest.raises(ScenarioError):
                parse_scenario_dict(data)

    def test_preset_resolves_against_the_chain(self):
        data = scenario_with(deviation={"preset": "sign_split"})
        s = parse_scenario_dict(data)
        assert s.deviation.h == (-1.0, 1.0)

    def test_ref_a_must_exist(self):
        data = scenario_with()
        data["chain"]["ref_A"] = 172
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "chain.ref_A" in error_paths(exc)

    def test_duplicate_mass_numbers_rejected(self):
        data = scenario_with()
        data["chain"]["isotopes"].append({"A": 170, "Z": 70, "n_atoms": 1})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "chain.isotopes" in error_paths(exc)

    def test_non_finite_list_entries_are_named(self):
        data = scenario_with(deviation={"h": [float("nan"), 1.0]})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert error_paths(exc) == ["deviation.h[0]"]
        scan = dict(ATOM_SCAN, axis="time", grid=[1.0, 10.0, float("inf")], sigma_sys=0.0, n_fixed=8)
        data = scenario_with(scans=[scan], protocol={"omega": 1.0, "tau": 1.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert error_paths(exc) == ["scans[0].grid[2]"]

    def test_removed_keys_are_unknown(self):
        data = scenario_with(scans=[dict(ATOM_SCAN, allocation="equal_split")],
                             protocol={"omega": 1.0, "tau": 1.0})
        data["chain"]["isotopes"][0]["epsilon"] = 0.01
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert error_paths(exc) == ["chain.isotopes[0].epsilon", "scans[0].allocation"]

    def test_multiple_errors_reported_together(self):
        data = scenario_with()
        data["chain"]["sin2_theta_w"] = -1.0
        data["deviation"] = {"h": [0.0, 0.0]}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert len(exc.value.errors) >= 2


ATOM_SCAN = {
    "name": "atoms",
    "axis": "atom_number",
    "grid": [8, 16],
    "protocols": ["sql"],
}


class TestScanRules:
    def test_scans_demand_explicit_omega_and_tau(self):
        data = scenario_with(scans=[dict(ATOM_SCAN)], protocol={"tau": 1.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "protocol.omega" in error_paths(exc)
        data["protocol"] = {"omega": 1.0}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "protocol.tau" in error_paths(exc)
        data["protocol"] = {"omega": 1.0, "tau": 1.0}
        parse_scenario_dict(data)

    def test_time_scan_demands_floor_and_atom_count(self):
        scan = {"axis": "time", "grid": [1.0, 10.0], "protocols": ["sql"]}
        data = scenario_with(scans=[scan], protocol={"omega": 1.0, "tau": 1.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        paths = error_paths(exc)
        assert "scans[0].sigma_sys" in paths
        assert "scans[0].n_fixed" in paths
        scan.update(sigma_sys=0.0, n_fixed=8)
        parse_scenario_dict(data)

    def test_atom_grid_must_be_integral_and_increasing(self):
        scan = dict(ATOM_SCAN, grid=[8.5, 16])
        data = scenario_with(scans=[scan], protocol={"omega": 1.0, "tau": 1.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "scans[0].grid" in error_paths(exc)
        scan["grid"] = [16, 8]
        with pytest.raises(ScenarioError):
            parse_scenario_dict(data)

    def test_time_scan_needs_an_atom_per_isotope(self):
        scan = {"axis": "time", "grid": [1.0], "protocols": ["sql"], "sigma_sys": 0.0, "n_fixed": 1}
        data = scenario_with(scans=[scan], protocol={"omega": 1.0, "tau": 1.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert error_paths(exc) == ["scans[0].n_fixed"]
        scan["n_fixed"] = 2
        parse_scenario_dict(data)

    def test_time_only_keys_rejected_on_atom_scans(self):
        scan = dict(ATOM_SCAN, sigma_sys=0.01)
        data = scenario_with(scans=[scan], protocol={"omega": 1.0, "tau": 1.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "scans[0].sigma_sys" in error_paths(exc)

    def test_duplicate_scan_names_rejected(self):
        data = scenario_with(
            scans=[dict(ATOM_SCAN), dict(ATOM_SCAN)], protocol={"omega": 1.0, "tau": 1.0}
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "scans" in error_paths(exc)


class TestOracleBlock:
    def test_budget_limits(self):
        for bad in (0, 20):
            data = scenario_with(oracle={"budget": bad})
            with pytest.raises(ScenarioError) as exc:
                parse_scenario_dict(data)
            assert "oracle.budget" in error_paths(exc)


class TestRemovedInterferenceBlock:
    def test_bundled_with_an_interference_object_is_rejected_at_its_key(self):
        data = json.loads(bundled_scenario_path().read_text())
        parse_scenario_dict(data)
        data["interference"] = {"zeta_over_beta": -2.4, "e_field": 1e5}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert exc.value.errors == [("$.interference", "unknown key")]


def test_bundled_with_a_gate_count_model_is_rejected_at_its_key():
    data = json.loads(bundled_scenario_path().read_text())
    data["protocol"]["gate_count_model"] = "linear"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_dict(data)
    assert exc.value.errors == [("protocol.gate_count_model", "unknown key")]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h_exp=st.integers(0, 307), chain_exp=st.integers(0, 306),
       grid_exp=st.floats(0.0, 308.0))
# a product that overflows at the chain's allocation: numpy raises there, Python floats do not
@example(seed=0, h_exp=2, chain_exp=306, grid_exp=0.0)
def test_an_accepted_pattern_projects_within_the_float_range(seed, h_exp, chain_exp, grid_exp):
    """The pattern is rejected at deviation.h, or its projection is finite,
    with no float overflow, at the chain's allocation and at both ends of an
    atom grid (the counts of every total in between lie between theirs)."""
    chain, h = random_chain(np.random.default_rng(seed))
    k = len(chain.isotopes)
    grid = [k, max(k + 1, round(10.0**grid_exp))]
    data = {
        "chain": {"sin2_theta_w": chain.sin2_theta_w, "ref_A": chain.isotopes[chain.ref_index].A,
                  "isotopes": [{"A": iso.A, "Z": iso.Z, "n_atoms": iso.n_atoms * 10**chain_exp}
                               for iso in chain.isotopes]},
        "deviation": {"h": [x * 10.0**h_exp for x in h]},
        "protocol": {"omega": 1.0, "tau": 1.0},
        "scans": [{"axis": "atom_number", "grid": grid, "protocols": ["sql"]}],
    }
    try:
        s = parse_scenario_dict(data)
    except ScenarioError as exc:
        assert [path for path, _ in exc.errors] == ["deviation.h"]
        return
    with np.errstate(over="raise", invalid="raise"):
        projections = [project_deviation(s.chain, s.deviation, allocate_atoms(s.chain, grid))]
        if s.chain.total_atoms:
            projections.append(project_deviation(s.chain, s.deviation))
    for proj in projections:
        for value in (proj.beta, proj.h_perp, proj.weighted_l1):
            assert np.isfinite(value).all()


class TestRoundTrip:
    def test_minimal_round_trips(self):
        s = parse_scenario_dict(MINIMAL)
        assert parse_scenario_dict(scenario_to_dict(s)) == s

    def test_bundled_round_trips(self):
        s = parse_scenario(bundled_scenario_path())
        again = parse_scenario_dict(scenario_to_dict(s))
        assert again == s
        assert canonical_text(again) == canonical_text(s)
        assert scenario_sha256(again) == scenario_sha256(s)

    def test_serialization_is_fully_explicit(self):
        d = scenario_to_dict(parse_scenario_dict(MINIMAL))
        assert d["protocol"]["omega"] == 1.0
        assert d["protocol"]["t2"] == "inf"

    def test_not_json_reports_cleanly(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario(bad)


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=7) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(tree=_JSON_TREES, size=st.integers(1, 3))
def test_pieces_join_to_the_one_shot_text(tree, size):
    # slices of 1-3 items reach every branch, long lists within long lists too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_SLICE", size)
        text = "".join(scenario_module._pieces(tree))
    assert text == json.dumps(tree, sort_keys=True, separators=(",", ":"))


class TestBoundedMemory:
    """A 5e4-point time scan, as the time_sweep benchmark runs it: its hash
    holds a slice of its text at a time, and its parse frees the file text."""

    @pytest.fixture
    def long_time_scan(self, tmp_path):
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"][1]["grid"] = np.geomspace(1.0, 1.512e6, 50_000).tolist()
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        return path

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_hash_is_taken_in_slices(self, long_time_scan):
        # the one-shot text and the encoder's list of value texts take 5.4 MB
        assert self.traced_peak(scenario_sha256, parse_scenario(long_time_scan)) < 1.5e6

    def test_parse_drops_the_file_text(self, long_time_scan):
        # the 0.97 MB text held through the checks would take the peak to 3.4 MB
        assert self.traced_peak(parse_scenario, long_time_scan) < 3.0e6


_POSITIVE = st.floats(1e-3, 1e3)
_UNIT = st.floats(1e-6, 1.0)
_COHERENCE = st.one_of(st.just("inf"), _POSITIVE)
# t_avg >= 1e4 keeps rep_rate * t_avg and t_avg / tau above one repetition
PROTOCOL_VALUES = {
    "omega": _POSITIVE, "tau": _POSITIVE, "c0": _UNIT, "f1": _UNIT, "f2": _UNIT,
    "p_surv": _UNIT, "t2": _COHERENCE, "t2_local": _COHERENCE, "t2_diff": _COHERENCE,
    "squeezing_db": st.floats(-30.0, 30.0), "rep_rate": _POSITIVE,
    "t_avg": st.floats(1e4, 1e7), "c_sql": _UNIT,
    "dfs_budget": st.sampled_from(("per_channel", "split")),
}


def test_protocol_values_cover_every_config_field():
    assert set(PROTOCOL_VALUES) == {f.name for f in fields(ProtocolConfig)}


@settings(max_examples=200, deadline=None)
@given(block=st.fixed_dictionaries({}, optional=PROTOCOL_VALUES))
def test_protocol_block_round_trips(block):
    s = parse_scenario_dict(scenario_with(protocol=block))
    out = scenario_to_dict(s)["protocol"]
    expected_keys = {f.name for f in fields(ProtocolConfig)} - ({"rep_rate"} - set(block))
    assert set(out) == expected_keys
    assert {k: out[k] for k in block} == block
    assert parse_scenario_dict(scenario_with(protocol=out)) == s


# Every section filled in, so that one edit can break any rule of the parser.
FULL = {
    "chain": MINIMAL["chain"],
    "deviation": {"h": [1.0, -1.0]},
    "protocol": {"omega": 1.0, "tau": 1.0},
    "scans": [
        dict(ATOM_SCAN),
        {"name": "times", "axis": "time", "grid": [1.0, 10.0], "protocols": ["sql"],
         "sigma_sys": 0.0, "n_fixed": 8, "beam": {"coefficient": 0.02, "floor": 0.001}},
    ],
    "oracle": {"budget": 4},
}

_DELETE = object()
_NAN, _INF = float("nan"), float("inf")

# (id, key path of the one edit, new value or _DELETE, the exact error paths)
ERROR_CORPUS = [
    ("valid", None, None, []),
    ("top-not-object", (), [], ["$"]),
    ("top-unknown-key", ("extra",), 1, ["$.extra"]),
    ("chain-missing", ("chain",), _DELETE, ["chain"]),
    ("deviation-missing", ("deviation",), _DELETE, ["deviation"]),
    ("chain-not-object", ("chain",), [], ["chain"]),
    ("chain-unknown-key", ("chain", "bogus"), 1, ["chain.bogus"]),
    ("s2w-missing", ("chain", "sin2_theta_w"), _DELETE, ["chain.sin2_theta_w"]),
    ("s2w-above-range", ("chain", "sin2_theta_w"), 0.7, ["chain.sin2_theta_w"]),
    ("s2w-zero", ("chain", "sin2_theta_w"), 0.0, ["chain.sin2_theta_w"]),
    ("s2w-not-number", ("chain", "sin2_theta_w"), "x", ["chain.sin2_theta_w"]),
    ("s2w-nan", ("chain", "sin2_theta_w"), _NAN, ["chain.sin2_theta_w"]),
    ("ref-a-missing", ("chain", "ref_A"), _DELETE, ["chain.ref_A"]),
    ("ref-a-fraction", ("chain", "ref_A"), 174.5, ["chain.ref_A"]),
    ("ref-a-zero", ("chain", "ref_A"), 0, ["chain.ref_A"]),
    ("ref-a-not-found", ("chain", "ref_A"), 172, ["chain.ref_A"]),
    ("isotopes-not-list", ("chain", "isotopes"), "x", ["chain.isotopes"]),
    ("isotopes-too-few", ("chain", "isotopes"), [{"A": 174, "Z": 70, "n_atoms": 1}],
     ["chain.isotopes"]),
    ("isotope-not-object", ("chain", "isotopes", 1), 174, ["chain.isotopes[1]"]),
    ("isotope-unknown-key", ("chain", "isotopes", 0, "epsilon"), 0.01,
     ["chain.isotopes[0].epsilon"]),
    ("isotope-a-missing", ("chain", "isotopes", 0, "A"), _DELETE, ["chain.isotopes[0].A"]),
    ("isotope-a-not-integer", ("chain", "isotopes", 0, "A"), "x", ["chain.isotopes[0].A"]),
    ("isotope-a-integral-float", ("chain", "isotopes", 0, "A"), 170.0, []),
    ("isotope-a-zero", ("chain", "isotopes", 0, "A"), 0, ["chain.isotopes[0].A"]),
    ("isotope-z-missing", ("chain", "isotopes", 1, "Z"), _DELETE, ["chain.isotopes[1].Z"]),
    ("isotope-z-zero", ("chain", "isotopes", 1, "Z"), 0, ["chain.isotopes[1].Z"]),
    ("isotope-z-fraction", ("chain", "isotopes", 1, "Z"), 1.5, ["chain.isotopes[1].Z"]),
    ("isotope-z-above-a", ("chain", "isotopes", 0, "Z"), 171, ["chain.isotopes[0]"]),
    ("isotope-n-missing", ("chain", "isotopes", 0, "n_atoms"), _DELETE,
     ["chain.isotopes[0].n_atoms"]),
    ("isotope-n-negative", ("chain", "isotopes", 0, "n_atoms"), -1,
     ["chain.isotopes[0].n_atoms"]),
    ("isotope-n-bool", ("chain", "isotopes", 0, "n_atoms"), True,
     ["chain.isotopes[0].n_atoms"]),
    ("isotopes-duplicate-mass", ("chain", "isotopes", 1, "A"), 170, ["chain.isotopes"]),
    ("weak-charge-vanishes", ("chain", "isotopes", 0), {"A": 107, "Z": 100, "n_atoms": 10},
     ["chain"]),
    ("deviation-not-object", ("deviation",), [1.0, -1.0], ["deviation"]),
    ("deviation-unknown-key", ("deviation", "junk"), 2, ["deviation.junk"]),
    ("deviation-h-and-preset", ("deviation", "preset"), "sign_split", ["deviation"]),
    ("deviation-neither", ("deviation",), {}, ["deviation"]),
    ("deviation-unknown-preset", ("deviation",), {"preset": "flat"}, ["deviation.preset"]),
    ("h-not-list", ("deviation", "h"), 1.0, ["deviation.h"]),
    ("h-empty", ("deviation", "h"), [], ["deviation.h"]),
    ("h-nan-entry", ("deviation", "h"), [_NAN, 1.0], ["deviation.h[0]"]),
    ("h-text-entry", ("deviation", "h"), [1.0, "x"], ["deviation.h[1]"]),
    ("h-wrong-length", ("deviation", "h"), [1.0, -1.0, 0.5], ["deviation.h"]),
    ("h-all-zero", ("deviation", "h"), [0.0, 0.0], ["deviation.h"]),
    # sum_A N_A |h_perp_A| of the chain's 20 atoms is beyond a float
    ("h-projection-beyond-float", ("deviation", "h"), [1e307, -1e307], ["deviation.h"]),
    ("protocol-not-object", ("protocol",), [], ["protocol"]),
    ("protocol-unknown-key", ("protocol", "bogus"), 1, ["protocol.bogus"]),
    ("protocol-omega-implicit", ("protocol", "omega"), _DELETE, ["protocol.omega"]),
    ("protocol-tau-implicit", ("protocol", "tau"), _DELETE, ["protocol.tau"]),
    ("protocol-omega-zero", ("protocol", "omega"), 0.0, ["protocol.omega"]),
    ("protocol-c0-above-one", ("protocol", "c0"), 1.5, ["protocol.c0"]),
    ("protocol-t2-text", ("protocol", "t2"), "never", ["protocol.t2"]),
    ("protocol-t2-negative", ("protocol", "t2"), -1.0, ["protocol.t2"]),
    ("protocol-squeezing-text", ("protocol", "squeezing_db"), "x", ["protocol.squeezing_db"]),
    # 10^(-G/20) over- or underflows beyond 6000 dB
    ("protocol-squeezing-below-range", ("protocol", "squeezing_db"), -7000,
     ["protocol.squeezing_db"]),
    ("protocol-squeezing-above-range", ("protocol", "squeezing_db"), 7000,
     ["protocol.squeezing_db"]),
    ("protocol-rep-rate-zero", ("protocol", "rep_rate"), 0.0, ["protocol.rep_rate"]),
    # the cat contrast has one gate count model, a linear entangling chain
    ("protocol-gate-model", ("protocol", "gate_count_model"), "linear",
     ["protocol.gate_count_model"]),
    ("protocol-dfs-budget", ("protocol", "dfs_budget"), "shared", ["protocol.dfs_budget"]),
    ("protocol-under-one-rep", ("protocol", "t_avg"), 0.5, ["protocol"]),
    ("scans-not-list", ("scans",), {}, ["scans"]),
    ("scan-not-object", ("scans", 0), "atoms", ["scans[0]"]),
    ("scan-unknown-key", ("scans", 0, "allocation"), "equal_split", ["scans[0].allocation"]),
    ("scan-axis-missing", ("scans", 0, "axis"), _DELETE, ["scans[0].axis"]),
    ("scan-axis-unknown", ("scans", 0, "axis"), "energy", ["scans[0].axis"]),
    ("scan-name-space", ("scans", 0, "name"), "a b", ["scans[0].name"]),
    ("scan-name-empty", ("scans", 0, "name"), "", ["scans[0].name"]),
    ("scan-name-number", ("scans", 0, "name"), 5, ["scans[0].name"]),
    ("scan-grid-missing", ("scans", 0, "grid"), _DELETE, ["scans[0].grid"]),
    ("scan-grid-not-list", ("scans", 0, "grid"), "x", ["scans[0].grid"]),
    ("scan-grid-empty", ("scans", 0, "grid"), [], ["scans[0].grid"]),
    ("scan-grid-zero-entry", ("scans", 0, "grid"), [0, 8], ["scans[0].grid[0]"]),
    ("scan-grid-inf-entry", ("scans", 1, "grid"), [1.0, _INF], ["scans[1].grid[1]"]),
    ("scan-grid-text-entry", ("scans", 0, "grid"), ["8", 16], ["scans[0].grid[0]"]),
    ("scan-grid-decreasing", ("scans", 0, "grid"), [16, 8], ["scans[0].grid"]),
    ("scan-grid-repeated", ("scans", 1, "grid"), [1.0, 1.0], ["scans[1].grid"]),
    ("scan-atom-grid-fraction", ("scans", 0, "grid"), [8.5, 16], ["scans[0].grid"]),
    ("scan-protocols-missing", ("scans", 0, "protocols"), _DELETE, ["scans[0].protocols"]),
    ("scan-protocols-empty", ("scans", 0, "protocols"), [], ["scans[0].protocols"]),
    ("scan-protocols-unknown", ("scans", 0, "protocols"), ["sql", "warp"],
     ["scans[0].protocols"]),
    ("scan-protocols-repeated", ("scans", 0, "protocols"), ["sql", "sql"], ["scans[0].protocols"]),
    ("scan-sigma-missing", ("scans", 1, "sigma_sys"), _DELETE, ["scans[1].sigma_sys"]),
    ("scan-sigma-negative", ("scans", 1, "sigma_sys"), -1.0, ["scans[1].sigma_sys"]),
    ("scan-n-fixed-missing", ("scans", 1, "n_fixed"), _DELETE, ["scans[1].n_fixed"]),
    ("scan-n-fixed-below-isotopes", ("scans", 1, "n_fixed"), 1, ["scans[1].n_fixed"]),
    ("scan-n-fixed-zero", ("scans", 1, "n_fixed"), 0, ["scans[1].n_fixed"]),
    ("scan-n-fixed-fraction", ("scans", 1, "n_fixed"), 8.5, ["scans[1].n_fixed"]),
    # a time scan evaluates at its first time: 0.5 s at one repetition per second
    ("scan-time-under-one-rep", ("scans", 1, "grid"), [0.5, 10.0], ["scans[1].grid"]),
    ("beam-not-object", ("scans", 1, "beam"), 0.02, ["scans[1].beam"]),
    ("beam-unknown-key", ("scans", 1, "beam", "width"), 1.0, ["scans[1].beam.width"]),
    ("beam-coefficient-missing", ("scans", 1, "beam", "coefficient"), _DELETE,
     ["scans[1].beam.coefficient"]),
    ("beam-coefficient-zero", ("scans", 1, "beam", "coefficient"), 0.0,
     ["scans[1].beam.coefficient"]),
    ("beam-floor-missing", ("scans", 1, "beam", "floor"), _DELETE, ["scans[1].beam.floor"]),
    ("beam-floor-negative", ("scans", 1, "beam", "floor"), -1e-3, ["scans[1].beam.floor"]),
    ("atom-scan-sigma", ("scans", 0, "sigma_sys"), 0.01, ["scans[0].sigma_sys"]),
    ("atom-scan-n-fixed", ("scans", 0, "n_fixed"), 8, ["scans[0].n_fixed"]),
    ("atom-scan-beam", ("scans", 0, "beam"), {"coefficient": 1.0, "floor": 0.0},
     ["scans[0].beam"]),
    ("scan-names-duplicate", ("scans", 1, "name"), "atoms", ["scans"]),
    # the two CSV files would be one on a case-insensitive file system
    ("scan-names-differ-by-case", ("scans", 1, "name"), "Atoms", ["scans"]),
    ("oracle-not-object", ("oracle",), 4, ["oracle"]),
    ("oracle-unknown-key", ("oracle", "seed"), 1, ["oracle.seed"]),
    ("oracle-budget-missing", ("oracle", "budget"), _DELETE, ["oracle.budget"]),
    ("oracle-budget-zero", ("oracle", "budget"), 0, ["oracle.budget"]),
    ("oracle-budget-above-cap", ("oracle", "budget"), 15, ["oracle.budget"]),
    ("oracle-budget-fraction", ("oracle", "budget"), 4.5, ["oracle.budget"]),
    ("oracle-budget-bool", ("oracle", "budget"), True, ["oracle.budget"]),
    # the block is its budget: every check that fits runs at its pinned tolerance
    ("oracle-tolerances-unknown-key", ("oracle", "tolerances"), {"cross_cat_qfi": "inf"},
     ["oracle.tolerances"]),
    ("oracle-checks-unknown-key", ("oracle", "checks"), ["cross_cat_qfi"], ["oracle.checks"]),
    # JSON integers beyond a float's range (~1.8e308), wherever a number is read
    ("s2w-beyond-float", ("chain", "sin2_theta_w"), 10**400, ["chain.sin2_theta_w"]),
    ("protocol-omega-beyond-float", ("protocol", "omega"), 10**400, ["protocol.omega"]),
    ("h-beyond-float", ("deviation", "h"), [1.0, -(10**400)], ["deviation.h[1]"]),
    ("scan-grid-beyond-float", ("scans", 0, "grid"), [8, 16, 10**400], ["scans[0].grid[2]"]),
    ("isotope-a-beyond-float", ("chain", "isotopes", 0, "A"), 10**400, ["chain.isotopes[0].A"]),
    ("isotope-n-beyond-float", ("chain", "isotopes", 1, "n_atoms"), 10**400,
     ["chain.isotopes[1].n_atoms"]),
    ("scan-n-fixed-beyond-float", ("scans", 1, "n_fixed"), 10**400, ["scans[1].n_fixed"]),
    ("isotope-n-largest-float", ("chain", "isotopes", 1, "n_atoms"), 10**308, []),
    ("protocol-t2-infinity", ("protocol", "t2"), _INF, []),
    ("scan-name-non-ascii", ("scans", 0, "name"), "\u00e9\u0663\u00df", ["scans[0].name"]),
    # a key that holds ": " is reported whole, at its own path
    ("beam-key-with-colon", ("scans", 1, "beam", "a: b"), 1.0, ["scans[1].beam.a: b"]),
]


def _mutated(keys, value):
    if keys is None:
        return json.loads(json.dumps(FULL))
    if not keys:
        return value
    data = json.loads(json.dumps(FULL))
    node = data
    for key in keys[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return data


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("keys,value,expected", [case[1:] for case in ERROR_CORPUS],
                         ids=[case[0] for case in ERROR_CORPUS])
def test_error_path_corpus(keys, value, expected):
    data = _mutated(keys, value)
    if not expected:
        # and its canonical form is strict JSON that reads back to itself: an
        # integral float of an integer key is written as the integer, inf as "inf"
        text = canonical_text(parse_scenario_dict(data))
        json.loads(text, parse_constant=_reject_constant)
        assert canonical_text(parse_scenario_dict(json.loads(text))) == text
        return
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_dict(data)
    assert error_paths(exc) == expected


# (dataclass, valid keyword arguments, field, a value that breaks that
# field's rule and no other, the key path of the field in FULL)
_ATOMS = {"axis": "atom_number", "grid": (8.0, 16.0), "protocols": ("sql",), "name": "atoms"}
_TIMES = {"axis": "time", "grid": (1.0, 10.0), "protocols": ("sql",), "name": "times",
          "sigma_sys": 0.0, "n_fixed": 8}
_ISOTOPE = {"A": 170, "Z": 70, "n_atoms": 10}
_BEAM = {"coefficient": 0.02, "floor": 0.001}
_ORACLE = {"budget": 4}
FIELD_RULE_CASES = [
    (Isotope, _ISOTOPE, "A", 0, ("chain", "isotopes", 0, "A")),
    (Isotope, _ISOTOPE, "Z", 0, ("chain", "isotopes", 0, "Z")),
    (Isotope, _ISOTOPE, "n_atoms", -1, ("chain", "isotopes", 0, "n_atoms")),
    (ProtocolConfig, {}, "omega", 0.0, ("protocol", "omega")),
    (ProtocolConfig, {}, "c0", 1.5, ("protocol", "c0")),
    (ProtocolConfig, {}, "t2", -1.0, ("protocol", "t2")),
    (ProtocolConfig, {}, "squeezing_db", -7000.0, ("protocol", "squeezing_db")),
    (ProtocolConfig, {}, "rep_rate", 0.0, ("protocol", "rep_rate")),
    # in the slot of the deleted gate_count_model case, so that the ids below
    # keep their indices: a gate fidelity is positive
    (ProtocolConfig, {}, "f2", 0.0, ("protocol", "f2")),
    (ProtocolConfig, {}, "dfs_budget", "shared", ("protocol", "dfs_budget")),
    (ScanSpec, _ATOMS, "axis", "energy", ("scans", 0, "axis")),
    (ScanSpec, _ATOMS, "name", "a b", ("scans", 0, "name")),
    (ScanSpec, _ATOMS, "grid", (), ("scans", 0, "grid")),
    (ScanSpec, _ATOMS, "grid", (0.0, 8.0), ("scans", 0, "grid")),
    (ScanSpec, _ATOMS, "grid", (16.0, 8.0), ("scans", 0, "grid")),
    (ScanSpec, _ATOMS, "protocols", (), ("scans", 0, "protocols")),
    (ScanSpec, _ATOMS, "protocols", ("sql", "warp"), ("scans", 0, "protocols")),
    (ScanSpec, _ATOMS, "protocols", ("sql", "sql"), ("scans", 0, "protocols")),
    (ScanSpec, _TIMES, "sigma_sys", -1.0, ("scans", 1, "sigma_sys")),
    (BeamSpec, _BEAM, "coefficient", 0.0, ("scans", 1, "beam", "coefficient")),
    (BeamSpec, _BEAM, "floor", -1e-3, ("scans", 1, "beam", "floor")),
    (OracleSpec, _ORACLE, "budget", 0, ("oracle", "budget")),
    (OracleSpec, _ORACLE, "budget", 15, ("oracle", "budget")),
    (OracleSpec, _ORACLE, "budget", 4.5, ("oracle", "budget")),
    (OracleSpec, _ORACLE, "budget", True, ("oracle", "budget")),
    (OracleSpec, _ORACLE, "budget", "4", ("oracle", "budget")),
    (OracleSpec, _ORACLE, "budget", 10**400, ("oracle", "budget")),
    (ScanSpec, _TIMES, "n_fixed", 0, ("scans", 1, "n_fixed")),
    # conversion checks and block rules that only the parser applied before
    (Isotope, _ISOTOPE, "n_atoms", 10**400, ("chain", "isotopes", 0, "n_atoms")),
    (Isotope, _ISOTOPE, "A", 170.5, ("chain", "isotopes", 0, "A")),
    (ScanSpec, _TIMES, "grid", (1.0, _INF), ("scans", 1, "grid")),
    (ScanSpec, _ATOMS, "grid", (8.5, 16.0), ("scans", 0, "grid")),
    (ScanSpec, _ATOMS, "sigma_sys", 0.3, ("scans", 0, "sigma_sys")),
    # appended so that the ids above keep their indices: the Ramsey time is positive
    (ProtocolConfig, {}, "tau", -1.0, ("protocol", "tau")),
]


def _as_json(value):
    return list(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("cls,valid,name,value,keys", FIELD_RULE_CASES,
                         ids=[f"{case[0].__name__}-{case[2]}-{i}" for i, case in enumerate(FIELD_RULE_CASES)])
def test_constructor_rejects_what_the_parser_rejects(cls, valid, name, value, keys):
    cls(**valid)
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario_dict(_mutated(keys, _as_json(value)))
    [(path, reason)] = parsed.value.errors
    with pytest.raises(ValueError) as built:
        cls(**{**valid, name: value})
    # the field, and any entry or key below it, then the parser's reason
    assert str(built.value) == f"{path[path.rindex('.' + name) + 1:]}: {reason}"


def test_constructor_converts_as_the_parser_does():
    block = {"name": "times", "axis": "time", "grid": [1, 10], "protocols": ["sql"],
             "sigma_sys": 0, "n_fixed": 8.0, "beam": {"coefficient": 1, "floor": 0}}
    built = ScanSpec(**block)
    assert built == parse_scenario_dict(_mutated(("scans", 1), block)).scans[1]
    assert type(built.n_fixed) is int and type(built.grid) is tuple


# A generator of valid scenario dicts over every section.  Each section is
# drawn from a dict of field strategies, so that the coverage test below can
# compare their keys with the fields of the dataclass behind the section.
_FIDELITY = st.one_of(st.floats(1e-6, 1e-3), st.floats(0.999, 1.0), _UNIT)
SCENARIO_PROTOCOL_VALUES = {
    **PROTOCOL_VALUES, "c0": _FIDELITY, "f1": _FIDELITY, "f2": _FIDELITY,
    "p_surv": _FIDELITY, "c_sql": _FIDELITY,
}
_ATOM_COUNT = st.integers(0, 10**12)
BEAM_VALUES = {"coefficient": st.floats(1e-6, 1e3), "floor": st.floats(0.0, 1.0)}
ORACLE_REQUIRED = {"budget": st.integers(1, 6)}


def isotope_values(z, a):
    return {"A": st.just(a), "Z": st.just(z), "n_atoms": _ATOM_COUNT}


def scan_values(axis, n_isotopes, index, rate=1e3):
    """(required, optional) field strategies of block ``index`` of ``scans``;
    a time grid starts at one repetition or more at ``rate`` repetitions per second."""
    if axis == "atom_number":
        points = st.integers(1, 10**12)
    else:
        points = st.floats(max(1e-3, 1.0 / rate), 1e7).filter(lambda t: rate * t >= 1.0)
    required = {
        "axis": st.just(axis),
        "grid": st.lists(points, min_size=1, max_size=5, unique=True).map(sorted),
        "protocols": st.lists(st.sampled_from(PROTOCOLS), min_size=1, max_size=6, unique=True),
    }
    optional = {"name": st.sampled_from((f"s{index}", f"scan-{index}_{axis}"))}
    if axis == "time":
        required["sigma_sys"] = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        required["n_fixed"] = st.integers(n_isotopes, 10**12)
        optional["beam"] = st.fixed_dictionaries(BEAM_VALUES)
    return required, optional


@st.composite
def valid_scenarios(draw):
    k = draw(st.integers(2, 8))
    z = draw(st.integers(1, 100))
    # N >= Z keeps every weak charge -N + Z(1 - 4 sin^2) away from zero
    masses = [z + n for n in draw(st.lists(st.integers(z, z + 80), min_size=k, max_size=k,
                                           unique=True))]
    isotopes = [draw(st.fixed_dictionaries(isotope_values(z, a))) for a in masses]
    if draw(st.booleans()):
        deviation = {"preset": "sign_split"}
    else:
        h = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
        if not any(h):
            h[0] = 1.0
        deviation = {"h": h}
    data = {
        "chain": {"sin2_theta_w": draw(st.floats(1e-3, 0.499)),
                  "ref_A": draw(st.sampled_from(masses)), "isotopes": isotopes},
        "deviation": deviation,
        "protocol": draw(st.fixed_dictionaries(
            {key: v for key, v in SCENARIO_PROTOCOL_VALUES.items() if key in ("omega", "tau")},
            optional={key: v for key, v in SCENARIO_PROTOCOL_VALUES.items()
                      if key not in ("omega", "tau")})),
    }
    scans = []
    rate = data["protocol"].get("rep_rate", 1.0 / data["protocol"]["tau"])
    for i, axis in enumerate(draw(st.lists(st.sampled_from(SCAN_AXES), max_size=3))):
        required, optional = scan_values(axis, k, i, rate)
        scans.append(draw(st.fixed_dictionaries(required, optional=optional)))
    if scans:
        data["scans"] = scans
    if draw(st.booleans()):
        data["oracle"] = draw(st.fixed_dictionaries(ORACLE_REQUIRED))
    return data


def test_generator_covers_every_field():
    def names(cls):
        return {f.name for f in fields(cls)}

    assert set(isotope_values(70, 170)) == names(Isotope)
    required, optional = scan_values("time", 2, 0)
    assert set(required) | set(optional) == names(ScanSpec)
    assert set(BEAM_VALUES) == names(BeamSpec)
    assert set(ORACLE_REQUIRED) == names(OracleSpec)
    assert set(SCENARIO_PROTOCOL_VALUES) == names(ProtocolConfig)


# the slugs of tests/test_cli.py::test_readme_slug_table_lists_every_slug_once
DOCUMENTED_SLUGS = {slug for _, slug in ERROR_SLUGS}


@settings(max_examples=120, deadline=None)
@given(data=valid_scenarios())
def test_generated_scenarios_round_trip_and_run(data):
    s = parse_scenario_dict(data)
    again = parse_scenario_dict(scenario_to_dict(s))
    assert again == s
    assert canonical_text(again) == canonical_text(s)
    assert_canonical_form(s)
    with tempfile.TemporaryDirectory() as out:
        summary = run(s, out, quiet=True)
        for record in summary.scans:
            lines = Path(record["path"]).read_text(encoding="utf-8").splitlines()
            assert len(lines) == record["rows"] + 1
            for line in lines[1:]:
                axis, protocol, stat, tot = line.split(",")
                if stat.startswith("error:"):
                    assert tot == stat and stat[len("error:"):] in DOCUMENTED_SLUGS, line
                else:
                    for text in (stat, tot):
                        assert math.isfinite(float(text)) and float(text) > 0, line


@settings(max_examples=60, deadline=None)
@given(data=valid_scenarios().filter(lambda d: "scans" in d), points=st.sampled_from((4096, 4097, 8193)))
def test_long_grids_round_trip_and_hash_as_one_text(data, points):
    # one full slice, one point past it, and two slices and a point
    for scan in data["scans"]:
        first = scan["grid"][0]
        scan["grid"] = ([first + i for i in range(points)] if scan["axis"] == "atom_number"
                        else np.geomspace(first, 1e3 * first, points).tolist())
    s = parse_scenario_dict(data)
    assert parse_scenario_dict(scenario_to_dict(s)) == s
    assert all(len(spec.grid) == points for spec in s.scans)
    assert_canonical_form(s)
