import json
import math
from dataclasses import replace

import numpy as np
import pytest

from apvsim import (
    PROTOCOLS,
    AllocationError,
    BeamSpec,
    ScanSpec,
    ScanTable,
    ScenarioError,
    allocate_atoms,
    atom_scan,
    bundled_scenario_path,
    crossover_finder,
    parse_scenario,
    parse_scenario_dict,
    protocol_table,
    reallocate,
    time_scan,
)
from apvsim.rules import FieldError
from conftest import column_cells, make_yb_chain

H_SPLIT = (-1.0, -1.0, 1.0, 1.0)


def column(table, protocol, values="stat"):
    """One protocol's ``stat`` or ``tot`` column, a read-only float array."""
    stats, tots, _ = table.cells(slice(None))[table.protocols.index(protocol)]
    return tots if values == "tot" else stats


def arrays(table, rows=slice(None)):
    """The cells of ``rows`` as G x P ``stat`` and ``tot`` arrays and ``errors``, one slug or None per cell."""
    columns = table.cells(rows)
    stat, tot = (np.stack([column[i] for column in columns], axis=1) for i in (0, 1))
    errors = np.array([slugs or [None] * len(stats) for stats, _, slugs in columns], dtype=object).T
    return stat, tot, errors


def atom_spec(grid, protocols=("sql", "cross_cat_ideal")):
    return ScanSpec(axis="atom_number", grid=tuple(float(x) for x in grid), protocols=protocols)


class TestAllocation:
    def test_equal_split(self, yb_chain):
        assert allocate_atoms(yb_chain, 1000) == (250, 250, 250, 250)

    def test_remainder_goes_to_lightest(self, yb_chain):
        assert allocate_atoms(yb_chain, 1002) == (251, 251, 250, 250)

    def test_conservation(self, yb_chain):
        for total in range(4, 200):
            assert sum(allocate_atoms(yb_chain, total)) == total

    def test_below_one_each_rejected(self, yb_chain):
        with pytest.raises(AllocationError):
            allocate_atoms(yb_chain, 3)

    def test_remainder_follows_mass_not_listing_order(self):
        from apvsim import Isotope, build_chain

        chain = build_chain(
            [Isotope(A=176, Z=70, n_atoms=0), Isotope(A=170, Z=70, n_atoms=0),
             Isotope(A=174, Z=70, n_atoms=0), Isotope(A=172, Z=70, n_atoms=0)],
            ref_index=2, sin2_theta_w=0.2325,
        )
        # two spare atoms go to A=170 and A=172 regardless of listing order
        assert allocate_atoms(chain, 6) == (1, 2, 1, 2)


class TestAtomScan:
    def test_sql_inverse_root_ratio(self, yb_chain, benchmark_cfg):
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([100, 400]))
        lo, hi = column(table, "sql")
        assert lo == pytest.approx(2 * hi, rel=1e-12)

    def test_cat_inverse_linear_ratio(self, yb_chain, benchmark_cfg):
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([100, 200]))
        lo, hi = column(table, "cross_cat_ideal")
        assert lo == pytest.approx(2 * hi, rel=1e-12)

    def test_stat_equals_tot_without_floor(self, yb_chain, benchmark_cfg):
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([64, 128]))
        stat, tot, _ = arrays(table)
        assert np.array_equal(tot, stat)

    def test_noisy_global_cat_turns_over_while_subarray_cats_degrade_slower(
        self, yb_chain, benchmark_cfg
    ):
        grid = [2**k for k in range(6, 14)]
        spec = atom_spec(grid, protocols=("cross_cat_noisy", "same_isotope_cat"))
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, spec)
        noisy = column(table, "cross_cat_noisy")
        same = column(table, "same_isotope_cat")
        assert noisy[-1] > min(noisy)  # contrast collapse wins at large N
        n_star_noisy = grid[int(np.argmin(noisy))]
        n_star_same = grid[int(np.argmin(same))]
        assert n_star_same > n_star_noisy

    def test_too_small_budget_marks_rows(self, yb_chain, benchmark_cfg):
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([2, 8]))
        assert table.values == (2.0, 8.0)
        stat, _, errors = arrays(table)
        assert errors[0].tolist() == ["allocation"] * 2 and np.isnan(stat[0]).all()
        assert errors[1].tolist() == [None] * 2

    def test_row_order_is_grid_major_then_protocol(self, yb_chain, benchmark_cfg):
        spec = atom_spec([8, 16], protocols=("cross_cat_ideal", "sql"))
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, spec)
        assert table.values == (8.0, 16.0) and table.protocols == ("cross_cat_ideal", "sql")
        for j, name in enumerate(table.protocols):
            alone = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([8, 16], protocols=(name,)))
            assert column(table, name).tobytes() == column(alone, name).tobytes()  # bit for bit


def time_spec(grid, sigma=0.0, n_fixed=1000, protocols=("sql", "cross_cat_noisy"), **kw):
    return ScanSpec(
        axis="time", grid=tuple(float(x) for x in grid), protocols=protocols,
        sigma_sys=sigma, n_fixed=n_fixed, **kw,
    )


class TestTimeScan:
    def test_without_floor_tot_equals_stat(self, yb_chain, benchmark_cfg):
        table = time_scan(yb_chain, H_SPLIT, benchmark_cfg, time_spec([1, 10, 100]))
        stat, tot, _ = arrays(table)
        np.testing.assert_allclose(tot, stat, rtol=1e-15)

    def test_hundredfold_time_gives_tenfold_gain(self, yb_chain, benchmark_cfg):
        table = time_scan(yb_chain, H_SPLIT, benchmark_cfg, time_spec([1, 100]))
        first, last = column(table, "sql")
        assert first == pytest.approx(10 * last, rel=1e-12)

    def test_every_protocol_saturates_at_the_floor(self, yb_chain, benchmark_cfg):
        sigma = 5e-3
        grid = [1, 10, 100, 1000, 1e4, 1e5, 1e6, 1.512e6]
        protocols = ("sql", "squeezed", "same_isotope_cat", "cross_cat_ideal",
                     "cross_cat_noisy", "dfs_cat")
        table = time_scan(yb_chain, H_SPLIT, benchmark_cfg,
                          time_spec(grid, sigma=sigma, protocols=protocols))
        for name in protocols:
            deep = [tot for stat, tot in zip(column(table, name), column(table, name, "tot"))
                    if stat < sigma / 10]
            assert deep, name
            for tot in deep:
                assert abs(tot - sigma) <= 0.01 * sigma

    def test_rescaling_equals_fresh_evaluation(self, yb_chain, benchmark_cfg):
        grid = [3.0, 48.0, 777.0]
        table = time_scan(yb_chain, H_SPLIT, benchmark_cfg, time_spec(grid))
        chain_n = reallocate(yb_chain, allocate_atoms(yb_chain, 1000))
        for t in grid:
            fresh = protocol_table(chain_n, H_SPLIT, replace(benchmark_cfg, t_avg=t),
                                   ("sql", "cross_cat_noisy"))
            fresh_by_name = {r.protocol: r.delta_theta for r in fresh}
            i = table.values.index(t)
            for name in table.protocols:
                assert column(table, name)[i] == pytest.approx(fresh_by_name[name], rel=1e-12)

    def test_quadrature_monotone_and_bounded_below(self, yb_chain, benchmark_cfg):
        sigma = 2e-3
        table = time_scan(yb_chain, H_SPLIT, benchmark_cfg,
                          time_spec([1, 10, 100, 1e4, 1e6], sigma=sigma))
        for name in ("sql", "cross_cat_noisy"):
            stats, tots = column(table, name), column(table, name, "tot")
            assert all(b <= a * (1 + 1e-12) for a, b in zip(tots, tots[1:]))
            for stat, tot in zip(stats, tots):
                assert tot >= sigma
                assert tot - sigma <= stat**2 / (2 * sigma)

    def test_beam_comparison_curve(self, yb_chain, benchmark_cfg):
        spec = time_spec([1, 100], sigma=0.0, beam=BeamSpec(coefficient=0.02, floor=1e-3))
        table = time_scan(yb_chain, H_SPLIT, benchmark_cfg, spec)
        stat, tot = column(table, "beam"), column(table, "beam", "tot")
        assert stat[0] == pytest.approx(0.02)
        assert stat[1] == pytest.approx(0.002)
        assert tot[1] == pytest.approx(math.hypot(0.002, 1e-3), rel=1e-13)

    def test_first_time_below_one_repetition_raises_the_parser_error(self):
        # called directly, not through the parser: an error, not 54 rows of invalid_config
        bundled = parse_scenario(bundled_scenario_path())
        cfg = replace(bundled.protocol, rep_rate=0.5)
        with pytest.raises(ValueError, match=r"^rep_rate \* the first time must be >= 1, got 0\.5$") as direct:
            time_scan(bundled.chain, bundled.deviation, cfg, bundled.scans[1])
        # the parser states the same rule with the same text, at the scan's grid
        data = json.loads(bundled_scenario_path().read_text())
        data["protocol"]["rep_rate"] = 0.5
        with pytest.raises(ScenarioError) as parsed:
            parse_scenario_dict(data)
        assert parsed.value.errors == [("scans[1].grid", str(direct.value))]
        # one repetition at the first time is enough
        assert len(time_scan(bundled.chain, bundled.deviation, replace(cfg, rep_rate=1.0), bundled.scans[1])) == 54

    def test_scan_spec_validation(self):
        with pytest.raises(ValueError, match="sigma_sys"):
            ScanSpec(axis="time", grid=(1.0, 2.0), protocols=("sql",), n_fixed=10)
        with pytest.raises(ValueError, match="n_fixed"):
            ScanSpec(axis="time", grid=(1.0, 2.0), protocols=("sql",), sigma_sys=0.0)
        with pytest.raises(ValueError, match="increasing"):
            ScanSpec(axis="atom_number", grid=(4.0, 4.0), protocols=("sql",))
        with pytest.raises(ValueError, match="unknown protocols"):
            ScanSpec(axis="atom_number", grid=(4.0,), protocols=("blah",))

    @pytest.mark.parametrize("grid,coefficient,floor", [
        ((1.0, 4.0), 5e-324, 0.0),  # the stat underflows to 0 at the last time
        ((1e-300, 1.0), 1e300, 0.0),  # the stat overflows at the first time
        ((1.0, 4.0), 1.7e308, 1.7e308),  # only the tot overflows, at the first time
    ])
    def test_beam_that_leaves_the_float_range_is_rejected(self, grid, coefficient, floor):
        beam = BeamSpec(coefficient=coefficient, floor=floor)
        with pytest.raises(FieldError) as exc:
            time_spec(grid, beam=beam)
        assert [path for path, _ in exc.value.errors] == ["beam"]
        # a beam that stays in range on the same grid is accepted
        time_spec(grid, beam=BeamSpec(coefficient=1e-3, floor=floor / 2))


class TestCrossoverFinder:
    def test_identical_series_yield_nothing(self, yb_chain, benchmark_cfg):
        cfg = replace(benchmark_cfg, squeezing_db=0.0)  # squeezed == sql exactly
        table = atom_scan(yb_chain, H_SPLIT, cfg, atom_spec([8, 16, 32], ("sql", "squeezed")))
        assert crossover_finder(table) == []

    def test_ideal_cat_never_crosses_sql(self, yb_chain, benchmark_cfg):
        grid = [2**k for k in range(2, 12)]
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec(grid))
        assert crossover_finder(table) == []

    def test_noisy_cat_rank_exchange_is_bracketed(self, yb_chain, benchmark_cfg):
        grid = [2**k for k in range(2, 14)]
        spec = atom_spec(grid, protocols=("same_isotope_cat", "cross_cat_noisy"))
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, spec)
        events = crossover_finder(table)
        assert len(events) == 1
        (pair, value), = events
        assert pair == ("same_isotope_cat", "cross_cat_noisy")
        # the analytic contrast ratio puts the exchange near 840 atoms
        assert 512 < value < 1024

    def test_error_rows_are_ignored(self, yb_chain, benchmark_cfg):
        table = atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([2, 8, 16]))
        assert crossover_finder(table) == []

    def test_a_pair_is_named_first_by_the_column_measured_first(self):
        # "b" has a value from the first row and "a" from the second; they cross between 3 and 4
        stat = np.array([[math.nan, 1.0], [1.0, 2.0], [2.0, 3.0], [4.0, 3.5]])
        errors = np.array([["allocation", None], [None, None], [None, None], [None, None]], dtype=object)
        table = ScanTable("atom_number", (1.0, 2.0, 3.0, 4.0), ("a", "b"), column_cells(stat, stat, errors))
        (pair, value), = crossover_finder(table)
        assert pair == ("b", "a") and value == pytest.approx(math.sqrt(12.0), rel=1e-15)

    def test_protocol_requested_twice_is_rejected(self):
        # so no table holds two columns of one protocol for the finder to count twice
        with pytest.raises(ValueError, match="may not repeat"):
            atom_spec([2, 8], protocols=("same_isotope_cat", "same_isotope_cat", "cross_cat_noisy"))


def _hexes(columns, rows=slice(None)):
    """``rows`` of each column of ``columns`` as float hexes and slugs, a slug list of None where there is none."""
    return [([float.hex(v) for v in stats[rows]], [float.hex(v) for v in tots[rows]],
             (slugs or [None] * len(stats))[rows]) for stats, tots, slugs in columns]


@pytest.mark.parametrize("make", [
    # allocation and no_contrast rows
    lambda chain, cfg: atom_scan(chain, H_SPLIT, cfg, atom_spec([1, 3, 4, 100, 10**6, 10**7], PROTOCOLS)),
    # no_contrast rows at the last time beside a finite beam
    lambda chain, cfg: time_scan(chain, H_SPLIT, replace(cfg, rep_rate=1e300), time_spec(
        [1e-300, 1e-10, 1e10, 1e300, 1.7e308], sigma=5e-3, protocols=PROTOCOLS,
        beam=BeamSpec(coefficient=1e-160, floor=1e-3))),
], ids=["atom", "time"])
def test_cells_of_a_slice_are_those_rows_of_the_full_arrays(yb_chain, benchmark_cfg, make):
    table = make(yb_chain, benchmark_cfg)
    slices = [slice(0, 1), slice(1, 4), slice(2, 2), slice(4, None), slice(None)]
    parts = [table.cells(rows) for rows in slices]
    whole = table.cells(slice(None))
    assert {"no_contrast"} <= set(table.error_rows)
    for rows, cells in zip(slices, parts):
        assert _hexes(cells) == _hexes(whole, rows)
        # a slug list only where the slice has a slug
        assert [slugs is None for _, _, slugs in cells] == [not any(slugs) for _, _, slugs in _hexes(whole, rows)]


def test_scan_tables_are_read_only(yb_chain, benchmark_cfg):
    # stats and tots are read-only arrays, so a write to one raises, and each slug list is
    # fresh: the next read is as it was
    for table in (atom_scan(yb_chain, H_SPLIT, benchmark_cfg, atom_spec([2, 8])),
                  time_scan(yb_chain, H_SPLIT, benchmark_cfg, time_spec([1, 10], sigma=1e-3))):
        for rows in (slice(None), slice(1, 2)):
            before = _hexes(table.cells(rows))
            for stats, tots, slugs in table.cells(rows):
                for values in (stats, tots):
                    with pytest.raises(ValueError, match="read-only"):
                        values[:] = -1.0
                if slugs is not None:
                    slugs[:] = ["junk"] * len(slugs)
            assert _hexes(table.cells(rows)) == before
