"""The time scan against the row-by-row loop it replaced.

``_reference_time_scan`` is a frozen copy of the loop that built one row
per grid time and protocol before the scan table became columns: one
``protocol_table`` at the first grid time, then each stat value scaled by
sqrt(T0/T) and the floor added with ``math.hypot``; a row whose stat or tot
is not a finite positive number is ``no_contrast``.  The columns must give
every row the same value, bit for bit (compared by ``repr``), the same
error slug, and the slug counts of the rows.
"""

import math
from collections import Counter
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from apvsim.chain import reallocate
from apvsim.protocols import PROTOCOLS, ProtocolConfig, protocol_table
from apvsim.scans import BeamSpec, ScanSpec, allocate_atoms, time_scan
from conftest import assert_same_cells, scan_cells
from test_grid_reference import _PLAIN, _PROTOCOL_LISTS, _SPLIT, _yb, chains, configs


def _reference_time_scan(chain, h, cfg, spec):
    chain_n = reallocate(chain, allocate_atoms(chain, spec.n_fixed))
    t0 = spec.grid[0]
    base = protocol_table(chain_n, h, replace(cfg, t_avg=t0), spec.protocols)
    sigma = spec.sigma_sys or 0.0
    rows = []

    def row(t, protocol, stat, floor):
        tot = math.hypot(stat, floor)
        if 0 < stat < math.inf and 0 < tot < math.inf:
            return t, protocol, stat, tot, None
        return t, protocol, math.nan, math.nan, "no_contrast"

    for t in spec.grid:
        scale = math.sqrt(t0 / t)
        for res in base:
            if res.error is not None:
                rows.append((t, res.protocol, math.nan, math.nan, res.error))
            else:
                rows.append(row(t, res.protocol, res.delta_theta * scale, sigma))
        if spec.beam is not None:
            rows.append(row(t, "beam", spec.beam.coefficient / math.sqrt(t), spec.beam.floor))
    return tuple(rows), Counter(error for *_, error in rows if error is not None)


_FLOOR = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))


@st.composite
def time_specs(draw):
    grid = draw(st.lists(st.one_of(st.floats(1e-3, 1e7), st.integers(1, 10**6).map(float)),
                         min_size=1, max_size=40, unique=True))
    beam = draw(st.one_of(st.none(), st.builds(BeamSpec, coefficient=st.floats(1e-6, 1e3),
                                               floor=_FLOOR)))
    return ScanSpec(axis="time", grid=tuple(sorted(grid)), protocols=tuple(draw(_PROTOCOL_LISTS)),
                    sigma_sys=draw(_FLOOR), n_fixed=draw(st.integers(8, 10**9)), beam=beam)


# the hardware of the bundled scenario
_BUNDLED = ProtocolConfig(omega=1.0, tau=1.0, c0=1.0, f1=0.9999, f2=0.999, p_surv=1.0, t2=math.inf,
                          squeezing_db=4.0, rep_rate=1.0, t_avg=3600.0, c_sql=1.0)


def _time_spec(grid, sigma, beam):
    return ScanSpec(axis="time", grid=grid, protocols=PROTOCOLS, sigma_sys=sigma, n_fixed=1000,
                    beam=beam)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=chains(), cfg=configs(), spec=time_specs())
# R T0 < 1: every protocol column is invalid_config, the beam still finite
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN,
         spec=_time_spec((0.5, 2.0, 9.0), 1e-3, BeamSpec(coefficient=0.02, floor=0.0)))
# h parallel to q: singular_fit and no_signal columns beside a finite beam
@example(instance=(_yb((1, 1, 1, 1)), _yb((1, 1, 1, 1)).q), cfg=_PLAIN,
         spec=_time_spec((1.0, 10.0, 1e4), 0.0, BeamSpec(coefficient=0.02, floor=1e-3)))
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=_PLAIN,
         spec=_time_spec((1.0, 3.0, 1.512e6), 5e-3, None))
# T0 / T underflows at the last time: each stat there is 0, so no_contrast
@example(instance=(_yb((250, 250, 250, 250)), _SPLIT), cfg=replace(_BUNDLED, rep_rate=1e300),
         spec=_time_spec((1e-300, 1e10, 1.7e308), 5e-3, None))
# the cats' tot overflows at T0 and their stat underflows at the last time
@example(instance=(_yb((1, 1, 1, 1)), _SPLIT), cfg=replace(_PLAIN, tau=3e-305, rep_rate=1e300),
         spec=_time_spec((1e-300, 1e-296, 1.0, 1.7e308), 1.7976931348623157e308, None))
def test_time_scan_matches_the_scalar_reference(instance, cfg, spec):
    chain, h = instance
    table = time_scan(chain, h, cfg, spec)
    rows, errors = _reference_time_scan(chain, h, cfg, spec)
    assert_same_cells(scan_cells(table), rows)
    assert table.error_rows == errors
    assert len(table) == len(rows)
