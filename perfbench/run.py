"""apvsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload atom_sweep --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  The seed's scenario files are written
under ``.perfbench_work/``; ``setup_s`` is timed in fresh interpreters; the
ops run in one worker process (``worker.py``), the only process beside this
one.  Times are reported at reference speed (``reference.py``) and also
printed as measured on the clock.  Every metric is printed by name and
unit, then, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_RUNS = 11
SETUP_REF_S = 0.02  # reference block between setup runs
SETUP_CODE = "import sys, apvsim.cli; apvsim.cli.parse_scenario(sys.argv[1])"
SETUP_TIMEOUT_S = 30
DEADLINE_S = 170  # the whole run must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(scenario: Path, env: dict) -> tuple[float, float]:
    """Median time of a fresh interpreter that imports apvsim.cli and
    parses the scenario, at reference speed and on the clock; one untimed
    run first writes the bytecode cache.

    ``wait()`` without a timeout returns as soon as the child exits; with a
    timeout it polls at up to 50 ms steps, so a timer enforces the limit.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(scenario)]
    scaled, clock = [], []
    ref_before = reference.block(SETUP_REF_S)
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, cmd)
        seconds = time.perf_counter() - t0
        ref_after = reference.block(SETUP_REF_S)
        if i:
            scaled.append(reference.scaled(seconds, ref_before, ref_after))
            clock.append(seconds)
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(clock)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "apvsim" / "cli.py").is_file():
        return fail(f"no apvsim sources under {ROOT / 'src'}; run from the root of a checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_out = ROOT / ".perfbench_work" / "traces" / f"{args.workload}.spans.csv.gz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    try:
        scenarios = workloads.write_inputs(args.workload, args.seed, work / "inputs")
        metrics, clock = {}, {}
        if not args.trace:
            metrics["setup_s"], clock["setup_s"] = measure_setup(scenarios[0], env)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work), "--trace-out", str(trace_out), *map(str, scenarios)]
        timeout = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail("the workload did not finish in time")
    except subprocess.CalledProcessError as exc:
        return fail(f"setup run failed with status {exc.returncode}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    clock.update(result["clock"])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    for m in wanted:
        on_clock = f"  ({clock[m['name']]:.6g} on the clock)" if m["name"] in clock else ""
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}{on_clock}")
    print(f"  {'failed_op_share':<44} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for name, value in result["dominance"].items():
        print(f"  layer {name:<38} {value:>14.6g} ms/op")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
