"""End-to-end acceptance suite.

Each test exercises one headline guarantee at its pinned tolerance and
prints a single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import hashlib
import math
import time

import numpy as np
import pytest

from apvsim import (
    ProtocolConfig,
    ScanSpec,
    amplitude_ratio,
    atom_scan,
    build_common_generator,
    build_generator,
    build_state,
    cfi_parity,
    common_noise_check,
    crossover_finder,
    parse_scenario,
    project_deviation,
    protocol_table,
    qfi,
    run,
    run_oracle_checks,
    time_scan,
    bundled_scenario_path,
)
from conftest import make_yb_chain, random_chain

H_SPLIT = (-1.0, -1.0, 1.0, 1.0)

BENCH = ProtocolConfig(
    omega=1.0, tau=1.0, c0=1.0, f1=0.9999, f2=0.999, p_surv=1.0,
    t2=math.inf, squeezing_db=4.0, rep_rate=1.0, t_avg=3600.0, c_sql=1.0,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")
    assert ok, f"{name} {detail}"


def test_01_scaling_reproduction():
    t0 = time.perf_counter()
    grid = tuple(float(2**k) for k in range(4, 13))
    spec = ScanSpec(axis="atom_number", grid=grid, protocols=("sql", "cross_cat_ideal"))
    table = atom_scan(make_yb_chain(), H_SPLIT, BENCH, spec)
    logs = np.log(grid)
    slopes = {}
    for name in ("sql", "cross_cat_ideal"):
        deltas = [r.delta_theta_stat for r in table.rows if r.protocol == name]
        slopes[name] = float(np.polyfit(logs, np.log(deltas), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (
        abs(slopes["sql"] + 0.5) <= 0.005
        and abs(slopes["cross_cat_ideal"] + 1.0) <= 0.005
        and elapsed < 1.0
    )
    report(
        "scaling_reproduction", ok,
        f"slopes sql={slopes['sql']:+.4f} cat={slopes['cross_cat_ideal']:+.4f} in {elapsed:.3f}s",
    )


def test_02_oracle_equivalence():
    t0 = time.perf_counter()
    results = {c.name: c for c in run_oracle_checks(budget=12)}
    equivalences = (
        "sql_oracle_equiv",
        "same_isotope_cat_oracle_equiv",
        "cross_cat_oracle_equiv",
        "dfs_oracle_equiv",
    )
    worst = max(results[name].max_rel_dev for name in equivalences)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report("oracle_equivalence", ok, f"worst rel dev {worst:.2e} in {elapsed:.2f}s")


def test_03_cat_qfi_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    trials = 0
    while trials < 100:
        chain, h = random_chain(rng, max_total=12)
        proj = project_deviation(chain, h)
        if proj.weighted_l1 < 1e-9:
            continue
        trials += 1
        cfg = ProtocolConfig(
            omega=float(rng.uniform(0.2, 3.0)), tau=float(rng.uniform(0.3, 2.0)),
            rep_rate=1.0, t_avg=1.0,
        )
        gen = build_generator(chain, proj, cfg.tau, cfg.omega)
        state = build_state("cross_cat", chain, proj, phase=float(rng.uniform(0, 2 * math.pi)))
        sep = protocol_table(chain, h, cfg, ("cross_cat_ideal",))[0].eigsep
        worst = max(worst, abs(qfi(state, gen) / sep**2 - 1.0))
    report("cat_qfi_identity", worst <= 1e-10, f"worst rel dev {worst:.2e} over 100 chains")


def test_04_projection_orthogonality_and_reference_independence():
    rng = np.random.default_rng(4242)
    worst = 0.0
    signs_ok = True
    for _ in range(1000):
        chain, h = random_chain(rng, max_total=2000)
        proj = project_deviation(chain, h)
        residual = math.fsum(
            n * hp * qa for n, hp, qa in zip(chain.n_atoms, proj.h_perp, chain.q)
        )
        scale = math.fsum(
            n * abs(ha) * abs(qa) for n, ha, qa in zip(chain.n_atoms, h, chain.q)
        )
        worst = max(worst, abs(residual) / scale)
        from apvsim import build_chain

        other_ref = (chain.ref_index + 1) % len(chain.isotopes)
        rebuilt = build_chain(chain.isotopes, other_ref, chain.sin2_theta_w)
        other = project_deviation(rebuilt, h)
        flipped = tuple(-s for s in other.signs)
        if proj.signs != other.signs and proj.signs != flipped:
            signs_ok = False
    ok = worst <= 1e-12 and signs_ok
    report(
        "projection_orthogonality", ok,
        f"worst relative residual {worst:.2e}, reference invariance {signs_ok}",
    )


def test_05_dfs_cancellation():
    rng = np.random.default_rng(7)
    worst_overlap = 0.0
    worst_sep = 0.0
    for _ in range(20):
        chain, h = random_chain(rng, max_total=6)
        proj = project_deviation(chain, h)
        if proj.weighted_l1 < 1e-9:
            continue
        state = build_state("dfs_cat", chain, proj, phase=float(rng.uniform(0, 2 * math.pi)))
        common = build_common_generator(chain, 1.0, 1.0, dfs=True)
        for phase in rng.uniform(-50, 50, size=10):
            worst_overlap = max(worst_overlap, abs(common_noise_check(state, common, float(phase)) - 1.0))
        paired = build_generator(chain, proj, 1.3, 0.8, dfs=True)
        plain = build_generator(chain, proj, 1.3, 0.8)
        sep_paired = float(np.max(paired.diag) - np.min(paired.diag))
        sep_plain = float(np.max(plain.diag) - np.min(plain.diag))
        worst_sep = max(worst_sep, abs(sep_paired / (2 * sep_plain) - 1.0))
    ok = worst_overlap <= 1e-12 and worst_sep <= 1e-12
    report(
        "dfs_cancellation", ok,
        f"overlap dev {worst_overlap:.2e}, separation-doubling dev {worst_sep:.2e}",
    )


def test_06_cramer_rao_saturation():
    chain = make_yb_chain(counts=(2, 2, 2, 2))
    proj = project_deviation(chain, H_SPLIT)
    gen = build_generator(chain, proj, 1.0, 1.0)
    state = build_state("cross_cat", chain, proj)
    f_q = qfi(state, gen)
    sep = math.sqrt(f_q)
    mid_dev = abs(cfi_parity(state, gen, math.pi / (2 * sep)) / f_q - 1.0)
    bounded = True
    for k in range(100):
        theta = (k + 0.5) / 100 * (2 * math.pi / sep)
        if cfi_parity(state, gen, theta) > f_q * (1 + 1e-6):
            bounded = False
    ok = mid_dev <= 1e-6 and bounded
    report("cramer_rao_saturation", ok, f"mid-fringe dev {mid_dev:.2e}, bound holds {bounded}")


def test_07_time_scan_floor():
    sigma = 5e-3
    protocols = ("sql", "squeezed", "same_isotope_cat", "cross_cat_ideal",
                 "cross_cat_noisy", "dfs_cat")
    spec = ScanSpec(
        axis="time",
        grid=(1.0, 10.0, 100.0, 1000.0, 1e4, 1e5, 1e6, 1512000.0),
        protocols=protocols, sigma_sys=sigma, n_fixed=1000,
    )
    table = time_scan(make_yb_chain(), H_SPLIT, BENCH, spec)
    ok = True
    for name in protocols:
        rows = [r for r in table.rows if r.protocol == name]
        deep = [r for r in rows if r.delta_theta_stat < sigma / 10]
        if not deep or any(abs(r.delta_theta_tot - sigma) > 0.01 * sigma for r in deep):
            ok = False
    report("time_scan_floor", ok, f"floor {sigma} reached by all {len(protocols)} protocols")


def test_08_crossover_behavior():
    grid = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
            2048.0, 4096.0, 8192.0, 10000.0)
    spec = ScanSpec(axis="atom_number", grid=grid,
                    protocols=("same_isotope_cat", "cross_cat_noisy"))
    table = atom_scan(make_yb_chain(), H_SPLIT, BENCH, spec)
    events = crossover_finder(table)
    pairs = {pair for pair, _ in events}
    ok = ("same_isotope_cat", "cross_cat_noisy") in pairs
    report("crossover_behavior", ok, f"rank exchanges at {[f'{x:.0f}' for _, x in events]}")


def test_09_interference_magnitudes():
    ratio = amplitude_ratio(-2.4, 1e5)
    fraction = 2 * ratio
    ok = (
        ratio == pytest.approx(-2.4e-5, rel=1e-12)
        and 1e-4 / 3 <= abs(fraction) <= 3e-4
    )
    report("interference_magnitudes", ok, f"ratio {ratio:.3e}, reversal-odd fraction {fraction:.3e}")


# SHA-256 of the bundled scenario's CSVs as recorded in perfbench/digests.json;
# a change that moves any printed digit of any row changes them.
BUNDLED_CSV_SHA256 = {
    "atoms.csv": "ff2bfc6ac309d8073eab46e4ff09abb25aa6be00ebffae27d566414932aae5ae",
    "averaging_time.csv": "923aca22a48c7b5c74e08f1718eb7187ce62b2f5540c13542a4f092907eb163f",
}


def test_10_csv_determinism(tmp_path):
    scenario = parse_scenario(bundled_scenario_path())
    run(scenario, tmp_path / "first", quiet=True)
    run(scenario, tmp_path / "second", quiet=True)
    ok = True
    for name, pinned in BUNDLED_CSV_SHA256.items():
        first = (tmp_path / "first" / name).read_bytes()
        if first != (tmp_path / "second" / name).read_bytes():
            ok = False
        if hashlib.sha256(first).hexdigest() != pinned:
            ok = False
    report("csv_determinism", ok, "byte-identical reruns matching the pinned digests")
