import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apvsim
from apvsim import PROTOCOLS, bundled_scenario_path, parse_scenario, run, validate
from apvsim.cli import format_sig, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFormat:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (1.0, "1.00000000000"),
            (1000.0, "1000.00000000"),
            (0.15915494309189535, "0.159154943092"),
            (1.5e-9, "0.00000000150000000000"),
            (1512000.0, "1512000.00000"),
            (float("nan"), "nan"),
            (float("inf"), "inf"),
        ],
    )
    def test_twelve_significant_digits(self, value, expected):
        assert format_sig(value) == expected

    def test_large_values_round_to_integer_digits(self):
        assert format_sig(1.23456789012345e15) == "1234567890120000"


class TestRun:
    def test_bundled_scenario_writes_everything(self, tmp_path):
        scenario = parse_scenario(bundled_scenario_path())
        summary = run(scenario, tmp_path, quiet=True)
        assert (tmp_path / "atoms.csv").exists()
        assert (tmp_path / "averaging_time.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert summary.all_checks_passed
        assert len(summary.checks) == 12
        assert {s["name"] for s in summary.scans} == {"atoms", "averaging_time"}
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored["all_checks_passed"] is True
        assert stored["library_version"] == summary.library_version
        assert stored["scenario_sha256"] == summary.scenario_sha256
        # interference diagnostics from the bundled block
        assert stored["interference"]["amplitude_ratio"] == pytest.approx(-2.4e-5)

    def test_sql_column_halves_between_1000_and_4000(self, tmp_path):
        scenario = parse_scenario(bundled_scenario_path())
        run(scenario, tmp_path, quiet=True)
        rows = read_csv(tmp_path / "atoms.csv")
        sql = {
            float(r["axis"]): float(r["delta_theta_stat"])
            for r in rows
            if r["protocol"] == "sql"
        }
        assert sql[1000.0] == pytest.approx(2 * sql[4000.0], rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        scenario = parse_scenario(bundled_scenario_path())
        run(scenario, tmp_path / "a", quiet=True)
        run(scenario, tmp_path / "b", quiet=True)
        for name in ("atoms.csv", "averaging_time.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_line_feed_endings_and_header(self, tmp_path):
        scenario = parse_scenario(bundled_scenario_path())
        run(scenario, tmp_path, quiet=True)
        raw = (tmp_path / "atoms.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"axis,protocol,delta_theta_stat,delta_theta_tot\n")

    def test_checks_only_scenario_produces_no_csv(self, tmp_path):
        data = {
            "chain": {
                "sin2_theta_w": 0.2325,
                "ref_A": 174,
                "isotopes": [
                    {"A": 170, "Z": 70, "n_atoms": 4},
                    {"A": 174, "Z": 70, "n_atoms": 4},
                ],
            },
            "deviation": {"h": [1.0, -1.0]},
            "oracle": {"budget": 4, "checks": ["cross_cat_qfi"]},
        }
        path = tmp_path / "checks_only.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        summary = run(parse_scenario(path), out, quiet=True)
        assert summary.scans == ()
        assert [c.name for c in summary.checks] == ["cross_cat_qfi"]
        assert list(out.glob("*.csv")) == []

    def test_allocation_failure_rows_carry_markers(self, tmp_path):
        data = {
            "chain": {
                "sin2_theta_w": 0.2325,
                "ref_A": 174,
                "isotopes": [
                    {"A": 170, "Z": 70, "n_atoms": 4},
                    {"A": 174, "Z": 70, "n_atoms": 4},
                ],
            },
            "deviation": {"h": [1.0, -1.0]},
            "protocol": {"omega": 1.0, "tau": 1.0},
            "scans": [
                {"axis": "atom_number", "grid": [1, 8], "protocols": ["sql"]}
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        run(parse_scenario(path), tmp_path / "out", quiet=True)
        rows = read_csv(tmp_path / "out" / "scan0.csv")
        assert rows[0]["delta_theta_stat"] == "error:allocation"
        assert rows[1]["delta_theta_stat"] not in ("", "error:allocation")


    def test_huge_atom_numbers_give_no_contrast_rows(self, tmp_path):
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"][0].update(grid=[4, 1000000, 10000000], protocols=list(PROTOCOLS))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        run(parse_scenario(path), tmp_path / "out", quiet=True)
        underflowed = set()
        for r in read_csv(tmp_path / "out" / "atoms.csv"):
            for value in (r["delta_theta_stat"], r["delta_theta_tot"]):
                if value.startswith("error:"):
                    assert value == "error:no_contrast"
                    underflowed.add(r["protocol"])
                else:
                    assert math.isfinite(float(value)) and float(value) > 0
        assert underflowed == {"same_isotope_cat", "cross_cat_noisy", "dfs_cat"}


class TestValidate:
    def test_bundled_scenario_passes(self):
        summary = validate(parse_scenario(bundled_scenario_path()), quiet=True)
        assert summary.all_checks_passed
        assert all(c.max_rel_dev <= c.tolerance for c in summary.checks)

    def test_budget_one_runs_the_single_qubit_subset(self):
        summary = validate(parse_scenario(bundled_scenario_path()), budget=1, quiet=True)
        assert summary.all_checks_passed
        names = {c.name for c in summary.checks}
        assert "single_qubit_ramsey" in names
        assert "dfs_common_noise" not in names

    def test_budget_above_cap_is_an_error(self):
        with pytest.raises(ValueError, match="cap"):
            validate(parse_scenario(bundled_scenario_path()), budget=20, quiet=True)

    def test_missing_oracle_block_and_budget(self, tmp_path):
        data = {
            "chain": {
                "sin2_theta_w": 0.2325,
                "ref_A": 174,
                "isotopes": [
                    {"A": 170, "Z": 70, "n_atoms": 4},
                    {"A": 174, "Z": 70, "n_atoms": 4},
                ],
            },
            "deviation": {"h": [1.0, -1.0]},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        from apvsim import ScenarioError

        with pytest.raises(ScenarioError):
            validate(parse_scenario(path), quiet=True)


class TestMain:
    def test_run_exit_codes_and_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(bundled_scenario_path()), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "summary.json").exists()

    def test_validate_exit_zero(self, capsys):
        code = main(["validate", str(bundled_scenario_path()), "--budget", "4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        main(["run", str(bundled_scenario_path()), "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_tampered_tolerance_fails_with_named_check(self, tmp_path):
        data = json.loads(bundled_scenario_path().read_text())
        data["oracle"]["tolerances"] = {"cfi_saturation": 0.0}
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        stored = json.loads((out / "summary.json").read_text())
        failing = [c["name"] for c in stored["checks"] if not c["passed"]]
        assert failing == ["cfi_saturation"]

    def test_parse_error_names_key_and_exits_2(self, tmp_path, capsys):
        data = json.loads(bundled_scenario_path().read_text())
        data["chain"]["sin2_theta_w"] = 0.7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "chain.sin2_theta_w" in capsys.readouterr().err

    def test_budget_above_cap_exits_2(self, capsys):
        code = main(["validate", str(bundled_scenario_path()), "--budget", "20", "--quiet"])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(apvsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "apvsim", "validate", str(bundled_scenario_path()),
         "--budget", "1", "--quiet"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
