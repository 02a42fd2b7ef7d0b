import hashlib
import json
import math

import numpy as np
import pytest

from apvsim import (
    DeviationPattern,
    Isotope,
    ProtocolConfig,
    SensitivityResult,
    build_chain,
    scenario_sha256,
    scenario_to_dict,
)

YB_EVEN = ((170, 70), (172, 70), (174, 70), (176, 70))


def make_yb_chain(counts=(250, 250, 250, 250), ref_index=2, sin2_theta_w=0.2325):
    isotopes = [Isotope(A=a, Z=z, n_atoms=n) for (a, z), n in zip(YB_EVEN, counts)]
    return build_chain(isotopes, ref_index=ref_index, sin2_theta_w=sin2_theta_w)


def canonical_text(s):
    """The one-shot reference serialization of a scenario: sorted keys,
    separators "," and ":"."""
    return json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))


def assert_canonical_form(s):
    """``scenario_sha256``, which serializes in slices, gives the hash of
    the one-shot reference serialization."""
    assert scenario_sha256(s) == hashlib.sha256(canonical_text(s).encode()).hexdigest()


@pytest.fixture
def yb_chain():
    return make_yb_chain()


@pytest.fixture
def yb_pattern(yb_chain):
    return DeviationPattern.sign_split(yb_chain)


@pytest.fixture
def benchmark_cfg():
    """Optimistic hardware point used by the bundled scenario."""
    return ProtocolConfig(
        omega=1.0, tau=1.0, c0=1.0, f1=0.9999, f2=0.999, p_surv=1.0,
        t2=math.inf, squeezing_db=4.0, rep_rate=1.0, t_avg=3600.0, c_sql=1.0,
    )


@pytest.fixture
def ideal_cfg():
    return ProtocolConfig(
        omega=1.0, tau=1.0, c0=1.0, f1=1.0, f2=1.0, p_surv=1.0,
        t2=math.inf, squeezing_db=0.0, rep_rate=1.0, t_avg=1.0, c_sql=1.0,
    )


def random_chain(rng: np.random.Generator, max_isotopes=4, min_atoms=1, max_total=12):
    """Random physical chain plus deviation pattern for property tests."""
    k = int(rng.integers(2, max_isotopes + 1))
    z = int(rng.integers(10, 80))
    neutron_offsets = np.sort(rng.choice(np.arange(0, 40, dtype=int), size=k, replace=False))
    base_n = z + int(rng.integers(0, 30))
    counts = np.full(k, min_atoms, dtype=int)
    spare = max_total - min_atoms * k
    if spare > 0:
        extra = rng.integers(0, spare + 1)
        for _ in range(int(extra)):
            counts[rng.integers(0, k)] += 1
    isotopes = [
        Isotope(A=z + base_n + int(dn), Z=z, n_atoms=int(c))
        for dn, c in zip(neutron_offsets, counts)
    ]
    chain = build_chain(isotopes, ref_index=int(rng.integers(0, k)), sin2_theta_w=0.2325)
    h = tuple(float(x) for x in rng.normal(size=k))
    return chain, h


def scan_cells(table):
    """Each cell of a scan table as (grid value, protocol, stat, tot, slug)
    of Python values, grid point major."""
    columns = [(stats.tolist(), tots.tolist(), slugs or [None] * len(stats))
               for stats, tots, slugs in table.cells(slice(None))]
    return [(value, protocol, stats[i], tots[i], slugs[i])
            for i, value in enumerate(table.values)
            for protocol, (stats, tots, slugs) in zip(table.protocols, columns)]


def list_cells(columns):
    """A ``ScanTable.cells`` over per-protocol ``(stats, tots, slugs)`` lists that
    hands out read-only float arrays, as a scan does: a slice keeps ``tots`` the
    ``stats`` array where the tots are the stats list, and gives no slug list
    where it holds no slug."""
    def frozen(values):
        values = np.array(values, dtype=float)
        values.flags.writeable = False
        return values

    arrays = [(stat := frozen(stats), stat if tots is stats else frozen(tots), slugs)
              for stats, tots, slugs in columns]

    def cells(rows):
        out = []
        for stats, tots, slugs in arrays:
            part, slugs = stats[rows], slugs[rows]
            out.append((part, part if tots is stats else tots[rows],
                        slugs if any(slug is not None for slug in slugs) else None))
        return out
    return cells


def column_cells(stat, tot, errors):
    """``list_cells`` over the columns of G x P ``stat``, ``tot`` and ``errors`` arrays."""
    return list_cells([(s, t, e.tolist()) for s, t, e in zip(stat.T, tot.T, errors.T)])


def assert_same_cells(got, want):
    """Cell lists equal field by field, each value by its repr: a float bit
    for bit, and NaN equal to NaN."""
    assert [tuple(map(repr, cell)) for cell in got] == [tuple(map(repr, cell)) for cell in want]


def grid_row(grid, i):
    """Row ``i`` of a ``protocol_grid`` result as the ``SensitivityResult`` of
    Python values that ``protocol_table`` gives for that allocation."""
    if grid.error[i] is not None:
        return SensitivityResult(grid.protocol, math.nan, error=grid.error[i])
    return SensitivityResult(grid.protocol, grid.delta_theta[i].item(), *(
        None if value is None else tuple(value[i].tolist()) if value.ndim > 1 else value[i].item()
        for value in (grid.per_isotope, grid.contrast_used, grid.eigsep)))
