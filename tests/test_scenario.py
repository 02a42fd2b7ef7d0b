import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvsim import (
    GATE_COUNT_MODELS,
    ProtocolConfig,
    ScenarioError,
    bundled_scenario_path,
    canonical_json,
    parse_scenario,
    parse_scenario_dict,
    scenario_sha256,
    scenario_to_dict,
)

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
        assert s.oracle_budget is None

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
        assert s.oracle_budget == 10

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

    def test_unknown_tolerance_name(self):
        data = scenario_with(oracle={"budget": 4, "tolerances": {"nope": 1e-9}})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "oracle.tolerances.nope" in error_paths(exc)

    def test_tolerance_overrides_survive(self):
        data = scenario_with(oracle={"budget": 4, "tolerances": {"cross_cat_qfi": 1e-8}})
        s = parse_scenario_dict(data)
        assert s.oracle_tolerances == (("cross_cat_qfi", 1e-8),)

    def test_check_subset_selection(self):
        data = scenario_with(oracle={"budget": 4, "checks": ["cross_cat_qfi"]})
        s = parse_scenario_dict(data)
        assert s.oracle_checks == ("cross_cat_qfi",)
        assert parse_scenario_dict(scenario_to_dict(s)) == s
        data["oracle"]["checks"] = ["nope"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "oracle.checks" in error_paths(exc)


class TestInterferenceBlock:
    def test_groups_must_be_complete(self):
        data = scenario_with(interference={"zeta_over_beta": -2.4})
        with pytest.raises(ScenarioError):
            parse_scenario_dict(data)
        data = scenario_with(interference={"zeta_over_beta": -2.4, "e_field": 1e5})
        s = parse_scenario_dict(data)
        assert s.interference.e_field == 1e5
        assert scenario_to_dict(s)["interference"] == data["interference"]
        assert parse_scenario_dict(scenario_to_dict(s)) == s

    def test_zero_denominators_rejected(self):
        data = scenario_with(interference={"zeta_over_beta": -2.4, "e_field": 0.0})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(data)
        assert "interference.e_field" in error_paths(exc)


class TestRoundTrip:
    def test_minimal_round_trips(self):
        s = parse_scenario_dict(MINIMAL)
        assert parse_scenario_dict(scenario_to_dict(s)) == s

    def test_bundled_round_trips(self):
        s = parse_scenario(bundled_scenario_path())
        again = parse_scenario_dict(scenario_to_dict(s))
        assert again == s
        assert canonical_json(again) == canonical_json(s)
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


_POSITIVE = st.floats(1e-3, 1e3)
_UNIT = st.floats(1e-6, 1.0)
_COHERENCE = st.one_of(st.just("inf"), _POSITIVE)
# t_avg >= 1e4 keeps rep_rate * t_avg and t_avg / tau above one repetition
PROTOCOL_VALUES = {
    "omega": _POSITIVE, "tau": _POSITIVE, "c0": _UNIT, "f1": _UNIT, "f2": _UNIT,
    "p_surv": _UNIT, "t2": _COHERENCE, "t2_local": _COHERENCE, "t2_diff": _COHERENCE,
    "squeezing_db": st.floats(-30.0, 30.0), "rep_rate": _POSITIVE,
    "t_avg": st.floats(1e4, 1e7), "c_sql": _UNIT,
    "gate_count_model": st.sampled_from(GATE_COUNT_MODELS),
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
