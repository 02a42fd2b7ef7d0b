"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 0-9 --label <commit> --out perfbench/results/<name>.json

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, one run
at a time, with its ``run_seconds``, and prints for
every metric its median, quartiles and spread: the distance between the
quartiles over the median, as ``statistics.quantiles(values, n=4)`` gives
them.  Compare a change with its parent by running this on both
checkouts with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="e.g. 0-9")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"label": args.label, "machine": machine(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        walls: list[float] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        summary = {name: summarise(v) for name, v in values.items()}
        record["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                         "run_wall_s": walls, "metrics": summary}
        print(f"{workload}: {attempted} ops, {failed} failed, longest run {max(walls):.1f} s")
        for name, s in summary.items():
            third = "" if s["spread"] < bounds[name] / 3 else "  (spread above a third of its bound)"
            print(f"  {name:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f} / bound {bounds[name]}{third}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
