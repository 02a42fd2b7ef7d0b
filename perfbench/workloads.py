"""Seeded scenario generator for the benchmark workloads.

Each workload is a list of scenario files; one op runs ``apvsim run`` on
one of them, and a run cycles through the list.  The seed chooses every
generated value; the program under test sees only the files written here.

* ``atom_sweep``: one ``atom_number`` scan over every integer from 4 to
  10,003 with all six protocols.  A run holds four scenarios, one per chain
  length 4, 5, 6 and 7, so that every run mixes the same chain lengths and
  its medians compare across seeds.
* ``time_sweep``: one ``time`` scan on 5e4 log-spaced times from 1 s to
  1.512e6 s with all six protocols plus a ``beam`` curve.
* ``bundled_run``: the shipped ``yb_even_chain.json``, unchanged; the seed
  is unused.

Seeds are reduced modulo ``SEED_POOL``: the CSV digests of every input set
in the pool are recorded in ``digests.json``, so every op's output can be
compared byte for byte with the output of the commit that recorded them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("atom_sweep", "time_sweep", "bundled_run")
SEED_POOL = 100

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_SCENARIO = ROOT / "src" / "apvsim" / "data" / "yb_even_chain.json"

PROTOCOLS = (
    "sql", "squeezed", "same_isotope_cat", "cross_cat_ideal", "cross_cat_noisy", "dfs_cat",
)

# Stable even isotopes (Z, mass numbers) of the elements the chains are drawn from.
EVEN_CHAINS = {
    "Yb": (70, (168, 170, 172, 174, 176)),
    "Sn": (50, (112, 114, 116, 118, 120, 122, 124)),
    "Dy": (66, (156, 158, 160, 162, 164)),
    "Ba": (56, (130, 132, 134, 136, 138)),
    "Ca": (20, (40, 42, 44, 46, 48)),
}

ATOM_CHAIN_LENGTHS = (4, 5, 6, 7)
ATOM_GRID = (4, 10_003)
TIME_POINTS = 50_000
TIME_RANGE = (1.0, 1.512e6)

# Hardware values of the bundled scenario.
BUNDLED_PROTOCOL = {
    "omega": 1.0, "tau": 1.0, "c0": 1.0, "f1": 0.9999, "f2": 0.999, "p_surv": 1.0,
    "t2": "inf", "t2_local": "inf", "t2_diff": "inf", "squeezing_db": 4.0,
    "rep_rate": 1.0, "t_avg": 3600.0, "c_sql": 1.0,
}


def _chain(rng: random.Random, length: int) -> dict:
    elements = sorted(name for name, (_, masses) in EVEN_CHAINS.items() if len(masses) >= length)
    z, masses = EVEN_CHAINS[rng.choice(elements)]
    members = sorted(rng.sample(masses, length))
    return {
        "sin2_theta_w": 0.2325,
        "ref_A": rng.choice(members),
        "isotopes": [{"A": a, "Z": z, "n_atoms": 250} for a in members],
    }


def _h(rng: random.Random, length: int) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(length)]


def atom_sweep_scenarios(seed: int) -> list[dict]:
    rng = random.Random(f"atom_sweep:{seed % SEED_POOL}")
    out = []
    for length in ATOM_CHAIN_LENGTHS:
        out.append({
            "chain": _chain(rng, length),
            "deviation": {"h": _h(rng, length)},
            "protocol": dict(BUNDLED_PROTOCOL),
            "scans": [{
                "name": "atoms",
                "axis": "atom_number",
                "grid": list(range(ATOM_GRID[0], ATOM_GRID[1] + 1)),
                "protocols": list(PROTOCOLS),
            }],
        })
    return out


def time_grid() -> list[float]:
    lo, hi = math.log(TIME_RANGE[0]), math.log(TIME_RANGE[1])
    step = (hi - lo) / (TIME_POINTS - 1)
    grid = [math.exp(lo + i * step) for i in range(TIME_POINTS)]
    grid[0], grid[-1] = TIME_RANGE
    return grid


def time_sweep_scenarios(seed: int) -> list[dict]:
    rng = random.Random(f"time_sweep:{seed % SEED_POOL}")
    length = rng.choice(ATOM_CHAIN_LENGTHS)
    chain = _chain(rng, length)
    h = _h(rng, length)
    n_fixed = round(10.0 ** rng.uniform(2.0, 4.0))
    sigma_sys = rng.uniform(0.0, 0.01)
    beam = {"coefficient": 10.0 ** rng.uniform(-2.0, 0.0), "floor": rng.uniform(0.0, 0.01)}
    return [{
        "chain": chain,
        "deviation": {"h": h},
        "protocol": dict(BUNDLED_PROTOCOL),
        "scans": [{
            "name": "averaging_time",
            "axis": "time",
            "grid": time_grid(),
            "n_fixed": n_fixed,
            "sigma_sys": sigma_sys,
            "beam": beam,
            "protocols": list(PROTOCOLS),
        }],
    }]


def pool_key(workload: str, seed: int) -> str:
    """Key of the recorded digests for this workload and seed."""
    return "shipped" if workload == "bundled_run" else str(seed % SEED_POOL)


def write_inputs(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's scenario files for ``seed``; return their paths in op order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "bundled_run":
        path = out_dir / "yb_even_chain.json"
        path.write_bytes(BUNDLED_SCENARIO.read_bytes())
        return [path]
    if workload == "atom_sweep":
        scenarios = atom_sweep_scenarios(seed)
    elif workload == "time_sweep":
        scenarios = time_sweep_scenarios(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    paths = []
    for i, scenario in enumerate(scenarios):
        path = out_dir / f"{workload}-{i}.json"
        path.write_text(json.dumps(scenario, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
