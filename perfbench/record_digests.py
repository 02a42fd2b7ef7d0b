"""Record the CSV digests that every benchmark op is checked against.

    python3 perfbench/record_digests.py

Run from the root of a checkout of the reference commit: it runs every
input set of the seed pool once, checks its outputs (everything but the
digest), and writes their SHA-256 digests to ``perfbench/digests.json``.
Re-recording on a later commit would hide a change in CSV bytes, which the
digests exist to catch.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
JOBS = 2  # worker processes: one per core of the 2-vCPU machine it was written for
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import outputs  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, seed: int) -> tuple[str, str, list[dict[str, str]]]:
    from apvsim import cli

    with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench_work") as tmp:
        tmp = Path(tmp)
        digests = []
        for path in workloads.write_inputs(workload, seed, tmp / "inputs"):
            out = tmp / "out"
            returncode = cli.main(["run", str(path), "--out", str(out), "--quiet"])
            check = outputs.check_op(returncode, outputs.expected(path, None), out)
            if check.problems:
                raise RuntimeError(f"{workload} seed {seed} {path.name}: {check.problems}")
            digests.append(check.digests)
            shutil.rmtree(out)
    return workload, workloads.pool_key(workload, seed), digests


def main() -> int:
    (HERE.parent / ".perfbench_work").mkdir(exist_ok=True)
    tasks = [("bundled_run", 0)] + [
        (w, seed) for w in ("atom_sweep", "time_sweep") for seed in range(workloads.SEED_POOL)
    ]
    table: dict[str, dict[str, list]] = {}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=ctx) as pool:
        for workload, key, digests in pool.map(record, *zip(*tasks)):
            table.setdefault(workload, {})[key] = digests
            print(f"{workload} {key}", file=sys.stderr)
    outputs.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
