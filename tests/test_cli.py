import csv
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apvsim
from apvsim import KNOWN_CHECKS, PROTOCOLS, bundled_scenario_path, parse_scenario, run, validate
from apvsim.checks import CheckResult
from apvsim.cli import _MIN_ROWS, _build_parser, _decimals, _field, _write_scan_csv, format_sig, main
from apvsim.protocols import ERROR_SLUGS
from apvsim.scans import GRID_BLOCK, BeamSpec, ScanSpec, ScanTable, atom_scan, time_scan
from conftest import column_cells, list_cells, make_yb_chain, scan_cells


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reference_format_sig(value: float, sig: int = 12) -> str:
    """Reference with explicit nan/inf/zero branches; ``format_sig`` must
    match it byte for byte."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == 0.0:
        return "0"
    decimals = sig - 1 - math.floor(math.log10(abs(value)))
    if decimals <= 0:
        return f"{round(value, decimals):.0f}"
    return f"{value:.{decimals}f}"


def _reference_write_scan_csv(path, table):
    """The csv.writer definition ``_write_scan_csv`` must match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis", "protocol", "delta_theta_stat", "delta_theta_tot"])
        for value, protocol, stat, tot, error in scan_cells(table):
            if error is not None:
                marker = f"error:{error}"
                writer.writerow([_reference_format_sig(value), protocol, marker, marker])
            else:
                writer.writerow([
                    _reference_format_sig(value),
                    protocol,
                    _reference_format_sig(stat),
                    _reference_format_sig(tot),
                ])


def _powers_of_ten_and_neighbours():
    for k in range(-320, 309):
        p = float(f"1e{k}")
        yield from (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))


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
            (float("-inf"), "-inf"),
            (-0.0, "0"),
            (9.99999999999951, "10.00000000000"),
        ],
    )
    def test_twelve_significant_digits(self, value, expected):
        assert format_sig(value) == expected

    def test_large_values_round_to_integer_digits(self):
        assert format_sig(1.23456789012345e15) == "1234567890120000"

    @settings(max_examples=2000, deadline=None)
    @given(st.floats())
    @example(float("nan"))
    @example(float("inf"))
    @example(float("-inf"))
    @example(-0.0)
    @example(5e-324)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    def test_matches_reference_on_every_float(self, value):
        assert format_sig(value) == _reference_format_sig(value)

    def test_matches_reference_at_powers_of_ten(self):
        for value in _powers_of_ten_and_neighbours():
            for signed in (value, -value):
                assert format_sig(signed) == _reference_format_sig(signed), signed


def _ulps_around(value, count):
    """``value`` and the ``count`` floats on each side of it."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def _decimal_ties():
    """Floats v whose v 10^d is an exact half-integer at format_sig's precision d:
    v = k / 2^(d+1) for the first odd k of v's decade and, where the decade holds
    it, the next one, so that v 10^d rounds once down and once up to the even N."""
    ties = []
    for d in range(1, 18):  # no float of precision d > 17 is such a tie
        low, high = Fraction(2 ** (d + 1) * 10**11, 10**d), Fraction(2 ** (d + 1) * 10**12, 10**d)
        first = math.ceil(low) | 1
        ties += [k / 2 ** (d + 1) for k in (first, first + 2) if k < high]
    return ties


def _near_ties():
    """The floats nearest (N + 1/2) / 10^d for a few 12-digit N at each d in 1...22:
    most of their rounded products p are the half-integer, and only e decides N."""
    return [float(Fraction(2 * n + 1, 2 * 10**d)) for d in range(1, 23)
            for n in (123456789012, 987654321098, 500000000000, 100000000001, 314159265358, 271828182845)]


def _precision(value):
    """The decimals d of format_sig's "%.{d}f" for a positive value."""
    return 11 - math.floor(math.log10(value))


_LOG_UNIFORM = st.floats(-12.0, 12.0).map(lambda exponent: 10.0 ** exponent)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LOG_UNIFORM, min_size=1, max_size=8))
@example(_decimal_ties())
@example(_near_ties())
@example([float(f"9.9999999999951e{k}") for k in range(-12, 11)] + [9.99999999999951, 0.999999999999951])  # carries
@example([1e11, 5e11, math.nextafter(1e12, 0.0), 1e-12, 5e-12, math.nextafter(1e-11, 0.0)])  # d = 0 and d = 23
# each decade edge from 1e-11 to 1e11: below 1e-11, d = 23; from 1e11 on, d = 0
@example([value for k in range(-11, 12) for value in _ulps_around(float(f"1e{k}"), 64)])
def test_decimal_kernel_writes_the_text_of_format_sig(values):
    # a list is one column of a block, so its precisions mix; ok where d is in 1...22
    # and v 10^d, rounded half to even, has 12 digits, and only there
    ok, decimals, digits = _decimals(np.array(values))
    for value, good, text in zip(values, ok.tolist(), _field(ok, decimals, digits, [], [])):
        d = _precision(value)
        assert good == (1 <= d <= 22 and 10**11 <= round(Fraction(value) * 10**d) < 10**12), value
        if good:
            assert text.tobytes().replace(b"\0", b"").decode() == format_sig(value), value


def test_the_tie_examples_sit_on_halves():
    def halves(value):  # v 10^d exactly, and rounded to a float, modulo 1
        scale = 10 ** _precision(value)
        return Fraction(value) * scale % 1, value * float(scale) % 1

    assert all(exact == 0.5 for exact, _ in map(halves, _decimal_ties()))
    # near ties: only the rounded product p is a half-integer
    assert sum(exact != 0.5 and rounded == 0.5 for exact, rounded in map(halves, _near_ties())) >= 100


class TestWriteScanCsv:
    # Columns sql, cross_cat_ideal, squeezed, dfs_cat, beam at a repeated
    # axis value: NaN stat with a finite tot, 0.0 / -0.0, values that round
    # up a decade, inf, and both slugs.
    NAN, INF = math.nan, math.inf
    STAT = np.array([[2.5e-3, 1.25e-4, 1.9e-3, NAN, 7.0e-2],
                     [NAN, 0.0, 1e-13, NAN, INF],
                     [9.99999999999951, 1.0e-4, 3.3e-3, 1.2e-4, 7.0e-2]])
    TOT = np.array([[2.5e-3, 3.0e-4, 2.6e-3, NAN, 7.000001e-2],
                    [4.0e-3, -0.0, 2e-13, NAN, INF],
                    [1e300, 1.0e-4, 3.3e-3, 2.2e-4, 7.0e-2]])
    ERRORS = np.array([[None, None, None, "no_contrast", None],
                       [None, None, None, "allocation", None],
                       [None, None, None, None, None]], dtype=object)
    TABLE = ScanTable(
        axis="time",
        values=(1.0, 2.0, 1.0),
        protocols=("sql", "cross_cat_ideal", "squeezed", "dfs_cat", "beam"),
        cells=column_cells(STAT, TOT, ERRORS),
    )

    def test_bytes_match_csv_writer_reference(self, tmp_path):
        _write_scan_csv(tmp_path / "new.csv", self.TABLE)
        _reference_write_scan_csv(tmp_path / "ref.csv", self.TABLE)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_long_time_scan_is_written_in_bounded_memory(self, tmp_path, benchmark_cfg):
        # 5e4 grid times, 6 protocols and beam: 350,000 rows, whose text or
        # row tuples held at once would take several times the bound
        spec = ScanSpec(axis="time", grid=tuple(np.geomspace(1.0, 1.512e6, 50_000).tolist()),
                        protocols=PROTOCOLS, sigma_sys=1e-3, n_fixed=1000,
                        beam=BeamSpec(coefficient=0.02, floor=1e-4))
        chain = make_yb_chain()
        tracemalloc.start()
        try:
            table = time_scan(chain, (-1.0, -1.0, 1.0, 1.0), benchmark_cfg, spec)
            _write_scan_csv(tmp_path / "long.csv", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert len(table) == 350_000

    def test_time_scan_holds_no_cells_until_one_is_read(self, benchmark_cfg):
        # 5e5 grid times: today's G x P float tables alone would take 28 MB
        spec = ScanSpec(axis="time", grid=tuple(np.geomspace(1.0, 1.512e6, 500_000).tolist()),
                        protocols=PROTOCOLS, sigma_sys=1e-3, n_fixed=1000,
                        beam=BeamSpec(coefficient=0.02, floor=1e-4))
        chain = make_yb_chain()
        tracemalloc.start()
        try:
            table = time_scan(chain, (-1.0, -1.0, 1.0, 1.0), benchmark_cfg, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert len(table) == 3_500_000 and table.error_rows == {}

    @pytest.mark.parametrize("points", [1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("case", ["beam", "short_rep", "h_parallel_q", "underflow"])
    def test_time_scan_bytes_match_the_full_columns(self, tmp_path, benchmark_cfg, points, case):
        # block edges at 1024 grid points; slug columns, and no_contrast rows at the last times
        chain, h, cfg, first, last = make_yb_chain(), (-1.0, -1.0, 1.0, 1.0), benchmark_cfg, 1.0, 1.512e6
        beam = BeamSpec(coefficient=0.02, floor=1e-4)
        if case == "short_rep":  # R T0 < 1: refused before any row, as the parser refuses it
            first = 0.5
        elif case == "h_parallel_q":  # singular_fit and no_signal columns beside a finite beam
            h = chain.q
        elif case == "underflow":  # T0 / T underflows to 0 over the last times
            cfg, first, last, beam = replace(cfg, rep_rate=1e300), 1e-300, 1.7e308, None
        spec = ScanSpec(axis="time", grid=tuple(np.geomspace(first, last, points).tolist()),
                        protocols=PROTOCOLS, sigma_sys=1e-3, n_fixed=1000, beam=beam)
        if case == "short_rep":
            with pytest.raises(ValueError, match=r"^rep_rate \* the first time must be >= 1, got 0\.5$"):
                time_scan(chain, h, cfg, spec)
            return
        table = time_scan(chain, h, cfg, spec)
        _write_scan_csv(tmp_path / "new.csv", table)
        _reference_write_scan_csv(tmp_path / "ref.csv", table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if points > 1:
            assert bool(table.error_rows) == (case != "beam")

    @staticmethod
    def format_sig_calls(tmp_path, monkeypatch, data):
        """The ``format_sig`` calls of a run of ``data``, checked against the rule: one per
        axis value; in a block below ``_MIN_ROWS`` grid points, one per stat without a slug
        and one per tot of those that differs from its stat; in a kernel block, one per
        value without a slug outside the kernel's domain.  Each call gets a Python float."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        scenario = parse_scenario(path)
        calls = []

        def counting(value):
            assert type(value) is float, repr(value)  # round() on an np.float64 is numpy's
            calls.append(value)
            return format_sig(value)

        monkeypatch.setattr("apvsim.cli.format_sig", counting)
        run(scenario, tmp_path / "out", quiet=True)
        expected = 0
        for spec in scenario.scans:
            scan = atom_scan if spec.axis == "atom_number" else time_scan
            table = scan(scenario.chain, scenario.deviation, scenario.protocol, spec)
            expected += len(table.values)
            for start in range(0, len(table.values), GRID_BLOCK):
                for stats, tots, slugs in table.cells(slice(start, start + GRID_BLOCK)):
                    pairs = [(stat, tot) for stat, tot, slug in zip(stats.tolist(), tots.tolist(),
                                                                    slugs or itertools.repeat(None)) if slug is None]
                    if len(stats) < _MIN_ROWS:
                        expected += sum(1 + (tot != stat) for stat, tot in pairs)
                    else:  # the tots are a column of their own unless they are the stats array
                        expected += sum((not _kernel_value(stat)) + (tots is not stats and not _kernel_value(tot))
                                        for stat, tot in pairs)
        assert len(calls) == expected
        return len(calls)

    def test_bundled_run_formats_through_the_module_global(self, tmp_path, monkeypatch):
        # 24 axis values; 75 atom stats, each tot its stat; 54 time stats and 54 tots beside a floor
        data = json.loads(bundled_scenario_path().read_text())
        assert self.format_sig_calls(tmp_path, monkeypatch, data) == 24 + 75 + 2 * 54

    def test_atom_columns_with_slugs_share_their_texts(self, tmp_path, monkeypatch):
        # allocation slugs at 1 and 3 atoms, no_contrast at the largest totals: a slug fills
        # both fields, and the tot of every other row reuses its stat's text
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"][0].update(grid=[1, 3, 4, 1000000, 10000000], protocols=list(PROTOCOLS))
        # 18 of the 30 atom cells are slugs; the time scan is the bundled one
        assert self.format_sig_calls(tmp_path, monkeypatch, data) == (5 + 30 - 18) + (9 + 2 * 54)

    def test_columns_of_slugs_alone_and_time_columns_with_slugs_format_per_field(self, tmp_path, monkeypatch):
        # an atom grid below the isotope count (every field a slug), and a time scan with a
        # floor whose cats have no contrast at their first time: only the axis, and the
        # stats and tots of sql, squeezed and cross_cat_ideal
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"][0].update(grid=[1, 2, 3])
        data["protocol"].update(f1=0.5, f2=0.5)
        assert self.format_sig_calls(tmp_path, monkeypatch, data) == 3 + 9 + 2 * 3 * 9

    def test_kernel_blocks_format_the_values_outside_its_domain(self, tmp_path, monkeypatch):
        # 300 averaging times up to 10^30: one kernel block, in which the 849 protocol stats
        # below 10^-11 and the 80 beam stats of at least 10^11 (each beam tot its stat) take
        # format_sig, and the tots near the floor do not; the atom scan is the bundled one
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"][1].update(grid=np.geomspace(1.0, 1e30, 300).tolist(), beam={"coefficient": 1e15, "floor": 0})
        assert self.format_sig_calls(tmp_path, monkeypatch, data) == 15 + 75 + 300 + 849 + 80


def _kernel_value(value: float) -> bool:
    """Whether the decimal kernel writes ``value``: a positive value that ``format_sig``
    writes at 1 to 22 decimals in 12 digits (no carry to 13)."""
    whole, _, fraction = format_sig(value).partition(".")
    return value > 0 and 1 <= len(fraction) <= 22 and len((whole + fraction).lstrip("0")) == 12


_POWERS_OF_TEN = st.tuples(st.integers(-300, 300), st.sampled_from([0.0, math.inf, None])).map(
    lambda kt: float(f"1e{kt[0]}") if kt[1] is None else math.nextafter(float(f"1e{kt[0]}"), kt[1]))
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
# value strategies a column draws its cells from: the first keeps a column on
# format_sig's "%.*f" branch, the next three cross its edges, and the last mixes
# in zeros, negative values and values that are not finite
_CELL_VALUES = [
    st.floats(min_value=1e-300, max_value=9e10),
    _POSITIVE,
    st.floats(min_value=9e10, max_value=2e11),
    _POWERS_OF_TEN,
    st.one_of(_POSITIVE, _POWERS_OF_TEN, _SPECIAL, _POSITIVE.map(lambda v: -v)),
]


def _column_values(points):
    """A column of ``points`` values: each drawn from one of ``_CELL_VALUES``, all
    within one power of ten (one precision per block), or in order across a power
    of ten, so that a block may change precision midway."""
    def column(cells):
        return st.lists(cells, min_size=points, max_size=points)
    return st.one_of(
        *map(column, _CELL_VALUES),
        st.integers(-300, 10).flatmap(lambda k: column(st.floats(10.0 ** k, 10.0 ** (k + 1), exclude_max=True))),
        st.integers(-299, 10).flatmap(lambda k: column(st.floats(10.0 ** k / 4, 10.0 ** k * 4)).map(sorted)),
    )


@st.composite
def _scan_tables(draw):
    points = draw(st.integers(1, 7))
    protocols = draw(st.lists(st.sampled_from(["sql", "cross_cat_ideal", "beam", "50%_cat", "%s%%d"]),
                              min_size=1, max_size=4, unique=True))
    columns = []
    for _ in protocols:
        values = _column_values(points)
        stats = draw(values)
        # the tots are the stats list itself, an equal but distinct list, other values, or some of each
        tots = draw(st.sampled_from(["same", "equal", "different", "mixed"]))
        if tots == "same":
            tots = stats
        elif tots == "equal":
            tots = list(stats)
        else:
            other = draw(values)
            same = draw(st.lists(st.booleans(), min_size=points, max_size=points)) if tots == "mixed" else []
            tots = [stat if keep else tot for stat, tot, keep in itertools.zip_longest(stats, other, same)]
        slugs = st.none() if draw(st.booleans()) else st.sampled_from([None, "no_contrast", "allocation"])
        columns.append((stats, tots, draw(st.lists(slugs, min_size=points, max_size=points))))
    values = tuple(draw(st.lists(st.one_of(_POSITIVE, _POWERS_OF_TEN, _SPECIAL), min_size=points, max_size=points)))
    return ScanTable("time", values, tuple(protocols), cells=list_cells(columns))


# one block of columns of each kind: tots equal to their stats, tots of one precision
# (the beam), and a slug beside a number, through format_sig or the kernel
_MIXED_COLUMNS = ScanTable("time", (1.0, 2.0), ("sql", "beam", "50%_cat"), cells=column_cells(
    np.array([[2.5e-3, 7.0e-2, 1.9e-3], [1.25e-3, 4.9e-2, math.nan]]),
    np.array([[2.5e-3, 7.1e-2, 2.6e-3], [1.25e-3, 5.0e-2, math.nan]]),
    np.array([[None, None, None], [None, None, "no_contrast"]], dtype=object)))
# stats at one precision (14 decimals) and tots at 13 then 14
_ONE_PRECISION_STATS = ScanTable("time", (1.0, 2.0, 3.0), ("sql",), cells=list_cells(
    [([2.5e-3, 2.0e-3, 1.5e-3], [1.2e-2, 9.5e-3, 8.0e-3], [None] * 3)]))
# an atom scan's block: NaN at the slug rows, tots that are the stats list, and the
# other values at two precisions (14 and 15 decimals), or at one
_SQL_STATS, _CAT_STATS = [math.nan, math.nan, 2.5e-3, 7.5e-4], [math.nan, 1.2e-3, math.nan, 1.5e-3]
_ATOM_SLUGS = ScanTable("atom_number", (1.0, 3.0, 4.0, 8.0), ("sql", "cross_cat_noisy"), cells=list_cells([
    (_SQL_STATS, _SQL_STATS, ["allocation", "allocation", None, None]),
    (_CAT_STATS, _CAT_STATS, ["allocation", None, "no_contrast", None])]))


# blocks for the decimal kernel: a column whose precision changes mid-block (14, 15 and
# 16 decimals), a tot column with a carry and a value of d = 23 beside it, slug rows,
# and a column of per-field values (zero, -0.0, inf, nan, negative, d = 0) beside kernel values
_KERNEL_BLOCK = ScanTable("time", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), ("sql", "50%_cat", "%s%%d"), cells=list_cells([
    ([2.5e-3, 1.5e-3, 9.99e-4, 5e-4, 1.2e-4, 9.7e-5],
     [2.6e-3, 9.99999999999951, 1.0e-3, 5e-12, 1.3e-4, 9.8e-5], [None] * 6),
    ([0.25, 0.0, math.nan, 0.75, 0.5, 0.125], [0.25, 0.0, math.nan, 0.75, 0.5, 0.125],
     [None, "allocation", "no_contrast", None, None, "allocation"]),
    ([0.0, -0.0, math.inf, math.nan, -2.5e-3, 5e11], [0.0, -0.0, math.inf, math.nan, -2.5e-3, 5e11], [None] * 6)]))


@settings(max_examples=400, deadline=None)
@given(table=_scan_tables(), block=st.integers(1, 3), min_rows=st.sampled_from([_MIN_ROWS, 1, 2]))
@example(table=_MIXED_COLUMNS, block=2, min_rows=_MIN_ROWS)
@example(table=_ONE_PRECISION_STATS, block=3, min_rows=_MIN_ROWS)
@example(table=_ATOM_SLUGS, block=4, min_rows=_MIN_ROWS)
@example(table=_MIXED_COLUMNS, block=2, min_rows=1)
@example(table=_ATOM_SLUGS, block=4, min_rows=1)
@example(table=_KERNEL_BLOCK, block=6, min_rows=6)
@example(table=_KERNEL_BLOCK, block=4, min_rows=3)  # a kernel block, then a format_sig block
def test_writer_matches_the_reference_block_by_block(table, block, min_rows):
    # blocks of 1-3 grid points go through format_sig per field; with min_rows at most the
    # block, blocks of that many grid points go through the kernel, a shorter last one not
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
        patch.setattr("apvsim.cli.GRID_BLOCK", block)
        patch.setattr("apvsim.cli._MIN_ROWS", min_rows)
        _write_scan_csv(Path(out) / "new.csv", table)
        _reference_write_scan_csv(Path(out) / "ref.csv", table)
        assert (Path(out) / "new.csv").read_bytes() == (Path(out) / "ref.csv").read_bytes()


def readme_slugs():
    """The slugs in the first column of the README's slug table."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if line.replace(" ", "").startswith("|slug|"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[header + 2:])
    return [row.split("|")[1].strip().strip("`") for row in rows]


def test_readme_slug_table_lists_every_slug_once():
    slugs = readme_slugs()
    assert len(slugs) == len(set(slugs))
    assert set(slugs) == {slug for _, slug in ERROR_SLUGS}


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
        # one key per RunSummary field, and nothing else
        assert set(stored) == {"scenario_sha256", "library_version", "scans", "checks",
                               "all_checks_passed", "wall_seconds"}

    def test_summary_splits_scan_time_into_scan_and_write(self, tmp_path):
        run(parse_scenario(bundled_scenario_path()), tmp_path, quiet=True)
        stored = json.loads((tmp_path / "summary.json").read_text())
        assert stored["scans"]
        for record in stored["scans"]:
            assert record["scan_seconds"] >= 0 and record["write_seconds"] >= 0
            assert record["scan_seconds"] + record["write_seconds"] <= record["wall_seconds"]

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

    def test_summary_dict_is_the_asdict_one(self, tmp_path):
        # the reference: a deep copy by dataclasses.asdict, each deviation that is not finite as text
        ran = run(parse_scenario(bundled_scenario_path()), tmp_path, quiet=True)
        assert json.loads((tmp_path / "summary.json").read_text()) == json.loads(json.dumps(ran.to_dict()))
        checks = (*ran.checks[:2], CheckResult("nan_check", False, math.nan, 1e-9, 4),
                  CheckResult("inf_check", False, math.inf, 1e-9, 4))
        failed = replace(ran, checks=checks, all_checks_passed=False)
        for summary in (ran, failed):
            reference = asdict(summary)
            for check in reference["checks"]:
                if not math.isfinite(check["max_rel_dev"]):
                    check["max_rel_dev"] = str(check["max_rel_dev"])
            written = summary.to_dict()
            assert (json.dumps(written, sort_keys=True, allow_nan=False)
                    == json.dumps(reference, sort_keys=True, allow_nan=False))
            assert summary.to_dict() == written  # a second call gives the same
        assert [check["max_rel_dev"] for check in written["checks"][2:]] == ["nan", "inf"]
        # writing "nan" into the dict left the frozen CheckResult as it was
        assert math.isnan(failed.checks[2].max_rel_dev) and failed.checks[3].max_rel_dev == math.inf

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
            "oracle": {"budget": 4},
        }
        path = tmp_path / "checks_only.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        summary = run(parse_scenario(path), out, quiet=True)
        assert summary.scans == ()
        # every check fits in 4 qubits
        assert [c.name for c in summary.checks] == list(KNOWN_CHECKS)
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

    def test_overflowing_eigenvalue_separation_gives_no_contrast_not_zero(self, tmp_path):
        # tau * omega so large that a global cat's separation overflows and
        # 1 / separation is exactly 0
        data = json.loads(bundled_scenario_path().read_text())
        data["protocol"].update(tau=1e300, omega=1e10)
        del data["oracle"]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        run(parse_scenario(path), tmp_path / "out", quiet=True)
        for name in ("atoms.csv", "averaging_time.csv"):
            rows = read_csv(tmp_path / "out" / name)
            for r in rows:
                for value in (r["delta_theta_stat"], r["delta_theta_tot"]):
                    assert value.startswith("error:") or float(value) > 0, (name, r)
            cats = [r for r in rows if r["protocol"] in ("cross_cat_ideal", "cross_cat_noisy")]
            assert cats and all(r["delta_theta_stat"] == "error:no_contrast" for r in cats)

    def test_rescaled_rows_that_underflow_give_no_contrast_not_zero(self, tmp_path):
        # T0 / T underflows to 0 at the last time, so every stat there would be 0
        data = json.loads(bundled_scenario_path().read_text())
        data["protocol"]["rep_rate"] = 1e300
        data["scans"][1]["grid"] = [1e-300, 1e10, 1.7e308]
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(data))
        run(parse_scenario(path), tmp_path / "out", quiet=True)
        rows = read_csv(tmp_path / "out" / "averaging_time.csv")
        for r in rows:
            for value in (r["delta_theta_stat"], r["delta_theta_tot"]):
                assert value.startswith("error:") or 0 < float(value) < math.inf, r
        last = [r for r in rows if r["axis"] == format_sig(1.7e308)]
        assert {r["protocol"]: r["delta_theta_tot"] for r in last} == dict.fromkeys(
            data["scans"][1]["protocols"], "error:no_contrast")
        stored = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert stored["scans"][1]["error_rows"] == {"no_contrast": len(last)}

    def test_summary_counts_error_rows_per_slug(self, tmp_path):
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"][0].update(grid=[1, 3, 4, 1000000, 10000000], protocols=list(PROTOCOLS))
        path = tmp_path / "slugs.json"
        path.write_text(json.dumps(data))
        run(parse_scenario(path), tmp_path / "out", quiet=True)
        stored = json.loads((tmp_path / "out" / "summary.json").read_text())
        records = {record["name"]: record for record in stored["scans"]}
        counted = {}
        for r in read_csv(tmp_path / "out" / "atoms.csv"):
            if r["delta_theta_stat"].startswith("error:"):
                slug = r["delta_theta_stat"][len("error:"):]
                counted[slug] = counted.get(slug, 0) + 1
        assert records["atoms"]["error_rows"] == counted
        assert counted["allocation"] == 2 * len(PROTOCOLS)
        assert counted["no_contrast"] > 0
        assert records["averaging_time"]["error_rows"] == {}


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

    def test_tampered_tolerance_fails_with_named_check(self, tmp_path, monkeypatch):
        rows = [(name, 0.0 if name == "cfi_saturation" else tol, *rest)
                for name, tol, *rest in apvsim.checks._CHECKS]
        monkeypatch.setattr(apvsim.checks, "_CHECKS", tuple(rows))
        out = tmp_path / "out"
        code = main(["run", str(bundled_scenario_path()), "--out", str(out), "--quiet"])
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

    def test_squeezing_beyond_range_exits_2(self, tmp_path, capsys):
        data = json.loads(bundled_scenario_path().read_text())
        data["protocol"]["squeezing_db"] = -7000
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "protocol.squeezing_db" in capsys.readouterr().err

    def test_budget_above_cap_exits_2(self, capsys):
        code = main(["validate", str(bundled_scenario_path()), "--budget", "20", "--quiet"])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_integer_too_long_for_json_exits_2(self, tmp_path, capsys):
        text = bundled_scenario_path().read_text().replace('"n_fixed": 1000', '"n_fixed": 1' + "0" * 5000)
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_interference_block_is_an_unknown_key_and_exits_2(self, tmp_path, capsys):
        data = json.loads(bundled_scenario_path().read_text())
        data["interference"] = {"zeta_over_beta": -2.4, "e_field": 1e5}
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "$.interference: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("h,counts,grid", [
        # the chain's own allocation overflows
        ([1e307, -1e307, 1e307, -1e307], None, None),
        # the chain's own allocation does not, the atom grid's largest totals do
        ([1e300, -1e300, 1e300, -1e300], 1, [*range(4, 100), 1e10, 1e12]),
    ])
    def test_deviation_whose_projection_overflows_exits_2(self, tmp_path, capsys, h, counts, grid):
        data = json.loads(bundled_scenario_path().read_text())
        data["deviation"] = {"h": h}
        for isotope in data["chain"]["isotopes"]:
            isotope["n_atoms"] = counts or isotope["n_atoms"]
        data["scans"][0]["grid"] = grid or data["scans"][0]["grid"]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "deviation.h: too large" in capsys.readouterr().err

    def test_beam_that_underflows_exits_2_naming_it(self, tmp_path, capsys):
        # 5e-324 / sqrt(4) rounds to 0: the beam row at 4 s would read 0
        data = json.loads(bundled_scenario_path().read_text())
        data["scans"] = [{"name": "t", "axis": "time", "grid": [1, 4, 1e300], "protocols": ["sql"],
                          "sigma_sys": 0, "n_fixed": 1000, "beam": {"coefficient": 5e-324, "floor": 0}}]
        path = tmp_path / "beam.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "scans[0].beam: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_in_process_runs_share_one_parser(self, tmp_path, capsys):
        bundled = str(bundled_scenario_path())
        summaries = []
        for name in ("a", "b"):
            assert main(["run", bundled, "--out", str(tmp_path / name), "--quiet"]) == 0
            summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
        assert _build_parser() is _build_parser()
        for name in ("atoms.csv", "averaging_time.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        def untimed(summary):  # the summary without its timing fields and paths
            scans = [{key: value for key, value in scan.items() if key != "path" and not key.endswith("_seconds")}
                     for scan in summary["scans"]]
            return {**summary, "scans": scans, "wall_seconds": None}

        assert untimed(summaries[0]) == untimed(summaries[1])
        # a bad argv after them exits 2 with the usage text, and a good run after it succeeds
        with pytest.raises(SystemExit) as exited:
            main(["run", bundled, "--quiet"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: apvsim run ") and "the following arguments are required: --out" in err
        assert main(["run", bundled, "--out", str(tmp_path / "c"), "--quiet"]) == 0
        assert untimed(json.loads((tmp_path / "c" / "summary.json").read_text())) == untimed(summaries[0])

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_scenario_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"chain": "\xff\xfe"}')
        options = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, str(path), *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:\n  $: not valid JSON: 'utf-8' codec can't decode"), err
        assert not (tmp_path / "o").exists()


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


def test_package_exports_each_module_all():
    modules = ("chain", "protocols", "oracle", "scans", "checks", "scenario", "cli")
    exported = {name for module in modules for name in importlib.import_module(f"apvsim.{module}").__all__}
    public = {name for name, value in vars(apvsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == exported
    assert isinstance(apvsim.__version__, str)
    assert apvsim.protocol_grid is apvsim.protocols.protocol_grid
