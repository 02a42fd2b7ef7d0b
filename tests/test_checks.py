import json
import math

import numpy as np
import pytest

import apvsim.checks
from apvsim import bundled_scenario_path
from apvsim.chain import reallocate
from apvsim.checks import (
    _IDEAL_CFG,
    _PAIRED,
    _PLAIN,
    _PROTOCOLS,
    _SR,
    KNOWN_CHECKS,
    _chain,
    _Suite,
    run_oracle_checks,
)
from apvsim.cli import main
from apvsim.oracle import build_common_generator, build_state, qfi
from apvsim.protocols import ProtocolConfig, combine_classical_fit, protocol_grid, protocol_table
from apvsim.rules import FieldError
from conftest import grid_row

# The register size M of each check in KNOWN_CHECKS order at each budget;
# None: the check does not run at that budget.
_ = None
SHAPE = {
    1: (1, 1, 1, _, _, _, _, _, _, _, _, _),
    2: (1, 2, 2, 2, 2, 2, 2, _, 2, 2, _, _),
    3: (1, 2, 2, 2, 2, 2, 2, _, 2, 2, _, _),
    4: (1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    5: (1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    6: (1, 6, 6, 6, 6, 6, 6, 4, 6, 6, 4, 4),
    7: (1, 6, 6, 6, 6, 6, 6, 4, 6, 6, 4, 4),
    8: (1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    9: (1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    10: (1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10),
    11: (1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10),
    12: (1, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12),
    13: (1, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12),
    14: (1, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14),
}

# Every check that reads apvsim.checks.qfi
READS_QFI = ("eigenstate_qfi_zero", "product_qfi_independence", "cross_cat_qfi",
             "sql_oracle_equiv", "same_isotope_cat_oracle_equiv", "cross_cat_oracle_equiv",
             "dfs_oracle_equiv", "cfi_saturation", "cfi_bound")


@pytest.mark.parametrize("budget", sorted(SHAPE))
def test_suite_shape_at_each_budget(budget):
    results = run_oracle_checks(budget)
    expected = [(name, m) for name, m in zip(KNOWN_CHECKS, SHAPE[budget]) if m is not None]
    assert [(r.name, r.qubits) for r in results] == expected
    for r in results:
        assert r.passed and r.max_rel_dev <= r.tolerance, r


def test_chains_are_built_once_and_reruns_agree():
    # the chains are immutable, so every run shares one of each
    for args in [row[:3] for row in _PLAIN + _PAIRED] + [(_SR, (3, 0), 1)]:
        assert _chain(*args) is _chain(*args)
    for budget in sorted(SHAPE):
        assert repr(run_oracle_checks(budget)) == repr(run_oracle_checks(budget))


def _subregister_dw(chain, index):
    """The frequency sensitivity of isotope ``index`` from its own cat, on the
    chain with every other isotope emptied."""
    sub = reallocate(chain, [n if i == index else 0 for i, n in enumerate(chain.n_atoms)])
    gen = build_common_generator(sub, _IDEAL_CFG.tau, 1.0)
    return 1.0 / math.sqrt(qfi(build_state("ghz_per_isotope", sub), gen) * _IDEAL_CFG.reps)


def test_isotope_cat_depends_on_the_atom_number_alone():
    # the suite builds one cat per atom number in place of one per (instance, isotope)
    suite = _Suite(14)
    pairs = [(n, _subregister_dw(inst.chain, index)) for inst in suite.plain
             for index, n in enumerate(inst.chain.n_atoms) if n]
    assert {n for n, _ in pairs} == set(suite.isotope_dw) == {1, 2, 3, 4, 5}
    assert [dw.hex() for _, dw in pairs] == [suite.isotope_dw[n].hex() for n, _ in pairs]


def test_instances_of_one_pattern_share_a_table_with_their_own_rows():
    suite = _Suite(14)
    patterns = {id(inst.pattern): inst.pattern for inst in suite.plain + suite.paired}
    # the plain and paired registers of _SR (1, 1) and _YB (1, 1, 1, 1)
    union = ("sql", "same_isotope_cat", "cross_cat_ideal", "dfs_cat")
    shared = [p for p in patterns.values() if p.protocols == union]
    assert [p.chain.n_atoms for p in shared] == [(1, 1), (1, 1, 1, 1)]
    assert len(patterns) == len(suite.plain) + len(suite.paired) - 2
    for inst in suite.plain + suite.paired:
        own = protocol_table(inst.chain, inst.h, _IDEAL_CFG, _PROTOCOLS[inst.paired])
        assert [repr(row) for row in own] == [repr(inst.rows[row.protocol]) for row in own]


@pytest.mark.parametrize("budget", sorted(SHAPE))
def test_pattern_rows_are_the_rows_of_a_grid_over_their_counts(budget):
    """Each pattern's one-row table is its row of one protocol_grid over the
    counts of every pattern that differs from it in counts alone."""
    families = {}
    for inst in _Suite(budget)._fitting:
        chain = inst.chain
        key = (tuple((iso.A, iso.Z) for iso in chain.isotopes), chain.ref_index, inst.h)
        families.setdefault(key, {})[id(inst.pattern)] = inst.pattern
    for family in (list(members.values()) for members in families.values()):
        protocols = tuple(dict.fromkeys(name for p in family for name in p.protocols))
        counts = np.array([p.chain.n_atoms for p in family])
        grids = list(protocol_grid(family[0].chain, family[0].h, _IDEAL_CFG, counts, protocols))
        for i, p in enumerate(family):
            assert list(p.rows) == list(p.protocols)
            assert [repr(p.rows[grid.protocol]) for grid in grids if grid.protocol in p.protocols] == [
                repr(grid_row(grid, i)) for grid in grids if grid.protocol in p.protocols]


@pytest.mark.parametrize("budget", [None, "10"])
def test_budget_that_is_not_a_number_is_a_field_error(budget):
    # not a TypeError from the comparison with the register cap
    with pytest.raises(FieldError, match="^budget: "):
        run_oracle_checks(budget)


@pytest.mark.parametrize("only", [("nope",), ("cfi_bound", "cfi_bound")])
def test_unknown_or_repeated_check_name_is_a_field_error(only):
    with pytest.raises(FieldError, match="^only: "):
        run_oracle_checks(10, only=only)


@pytest.fixture
def nan_qfi(monkeypatch):
    monkeypatch.setattr(apvsim.checks, "qfi", lambda state, gen: math.nan)


def test_nan_deviation_fails_its_check(nan_qfi, monkeypatch):
    # the same-isotope cat check too: its classical fit would take a NaN
    # sensitivity for an unmeasured isotope, or abort the suite
    results = {r.name: r for r in run_oracle_checks(10)}
    assert set(results) == set(KNOWN_CHECKS)
    for name, r in results.items():
        if name in READS_QFI:
            assert not r.passed and math.isnan(r.max_rel_dev), r
        else:
            assert r.passed, r
    # a NaN fails even a check that is never meant to fail
    rows = [(name, math.inf if name == "cross_cat_qfi" else tol, *rest)
            for name, tol, *rest in apvsim.checks._CHECKS]
    monkeypatch.setattr(apvsim.checks, "_CHECKS", tuple(rows))
    [r] = run_oracle_checks(10, only=("cross_cat_qfi",))
    assert r.tolerance == math.inf and not r.passed


def test_nan_sensitivity_is_rejected_by_the_fit(nan_qfi, yb_chain, yb_pattern):
    # the fit reads a NaN sensitivity as an unmeasured isotope; with none measured it raises
    with pytest.raises(ValueError):
        combine_classical_fit(yb_chain, yb_pattern, (math.nan,) * len(yb_chain.isotopes), ProtocolConfig())
    # so the same-isotope cat check fails with a NaN deviation instead of aborting the suite
    [r] = run_oracle_checks(10, only=("same_isotope_cat_oracle_equiv",))
    assert not r.passed and math.isnan(r.max_rel_dev), r


def test_nan_deviation_writes_strict_summary(nan_qfi, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(bundled_scenario_path()), "--out", str(out), "--quiet"]) == 1  # every check

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    stored = json.loads((out / "summary.json").read_text(), parse_constant=no_constant)
    deviations = {c["name"]: c["max_rel_dev"] for c in stored["checks"]}
    assert {name for name, dev in deviations.items() if dev == "nan"} == set(READS_QFI)
    assert not stored["all_checks_passed"]
