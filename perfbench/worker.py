"""Runs one workload's ops in this process and prints its measurements.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``, one workload per process, so that peak RSS is the workload's own.
Each op is one in-process ``apvsim run`` (``cli.main``); ops run one after
another, and the output check after each op is outside its timed region.
Each op is bracketed by blocks of the reference computation
(``reference.py``), and the end-to-end times are scaled to reference speed.

With ``--trace 0`` the ops run untraced and the end-to-end metrics come
out.  With ``--trace 1`` the run is split: untraced ops, then the same ops
traced (see ``tracing.py``), then untraced replays of single layers; the
per-layer metrics come out.  The last line of standard output is JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import outputs
import reference
import tracing
import workloads
from apvsim import checks, chain, cli, oracle, protocols, scans
from apvsim.scenario import parse_scenario

REF_SHARE = 0.03  # reference block before each op, as a share of the last op's time
PROBE_OPS = 10  # traced bundled ops for layers a scan workload never reaches
REPLAY_ATOM_POINTS = 64  # atom-scan grid points replayed per scenario
ORACLE_BUDGET = 10  # the bundled scenario's budget
ORACLE_SIZES = (8, 10)
# Register sizes M of the replayed oracle primitives: the check suite's own
# plain Yb instances with M qubits, and their patterns.
ORACLE_INSTANCES = {
    8: ((2, 2, 2, 2), (-1.0, -1.0, 1.0, 1.0)),
    10: ((1, 2, 3, 4), (0.4, -1.1, 0.2, 0.9)),
}


@dataclass
class Op:
    op_id: int
    seconds: float
    check: outputs.OpCheck
    ref_before: float  # median reference chunk time just before the op
    ref_after: float = math.nan  # ... and just after it

    @property
    def failed(self) -> bool:
        return bool(self.check.problems)

    @property
    def scaled_s(self) -> float:
        return reference.scaled(self.seconds, self.ref_before, self.ref_after)


class Runner:
    """Runs ops over a fixed list of scenario files, in whole cycles."""

    def __init__(self, scenarios: list[Path], wants: list[outputs.Expected], out_dir: Path, ids):
        self.scenarios = scenarios
        self.wants = wants
        self.out_dir = out_dir
        self.ids = ids
        self.last_s = 0.0

    def ref_block(self) -> float:
        return reference.block(REF_SHARE * self.last_s)

    def op(self, index: int, tracer: tracing.Tracer | None = None) -> Op:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        op_id = next(self.ids)
        argv = ["run", str(self.scenarios[index]), "--out", str(self.out_dir), "--quiet"]
        if tracer is not None:
            tracer.op_id = op_id
        ref_before = self.ref_block()
        error = None
        t0 = time.perf_counter()
        try:
            returncode = cli.main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises is counted, not fatal
            error = exc
        seconds = self.last_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            check = outputs.OpCheck(problems=[f"raised {type(error).__name__}: {error}"])
        else:
            try:
                check = outputs.check_op(returncode, self.wants[index], self.out_dir)
            except Exception as exc:  # a check that cannot read the outputs fails the op
                traceback.print_exception(exc, file=sys.stderr)
                problem = f"output check raised {type(exc).__name__}: {exc}"
                check = outputs.OpCheck(problems=[problem])
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return Op(op_id, seconds, check, ref_before)

    def cycles(self, budget_s: float, tracer: tracing.Tracer | None = None) -> list[Op]:
        """Whole cycles over the scenarios until the ops' own time fills
        ``budget_s`` best: stop once another cycle would overrun it by more
        than half a cycle.  Output checks and reference blocks do not count
        against the budget.  Each op's ``ref_after`` is the next op's
        ``ref_before``; the last op gets a block of its own."""
        ops: list[Op] = []
        while True:
            cycle = [self.op(i, tracer) for i in range(len(self.scenarios))]
            ops.extend(cycle)
            measured = sum(op.seconds for op in ops)
            if measured + sum(op.seconds for op in cycle) / 2 >= budget_s:
                break
        for op, after in zip(ops, ops[1:]):
            op.ref_after = after.ref_before
        ops[-1].ref_after = self.ref_block()
        return ops


def make_runner(workload: str, scenarios: list[Path], seed: int, out_dir: Path, ids) -> Runner:
    digests = outputs.recorded_digests(workload, workloads.pool_key(workload, seed))
    if digests is None or len(digests) != len(scenarios):
        raise SystemExit(f"no recorded CSV digests for {workload} seed {seed}; "
                         "run perfbench/record_digests.py on the reference commit")
    wants = [outputs.expected(p, d) for p, d in zip(scenarios, digests)]
    return Runner(scenarios, wants, out_dir, ids)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(ops: list[Op]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics at reference speed, and the same times as
    measured on the clock."""
    rows = sum(op.check.rows for op in ops)
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    clock = {}
    for out, seconds in ((metrics, [op.scaled_s for op in ops]),
                         (clock, [op.seconds for op in ops])):
        out["op_p50_s"] = statistics.median(seconds)
        out["op_p90_s"] = p90(seconds)
        out["rows_per_s"] = rows / sum(seconds)
    return metrics, clock


# --- untraced replays of single layers --------------------------------------

def per_call_s(fn, min_batch_s: float = 0.02, batches: int = 3) -> float:
    """Median over batches of the seconds per call of ``fn()``."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def workload_allocations(scenario_paths: list[Path]) -> list[tuple]:
    """(chain, h, cfg) at the allocations the workload's scans evaluate."""
    out = []
    for path in scenario_paths:
        sc = parse_scenario(path)
        for spec in sc.scans:
            if spec.axis == "time":
                counts = scans.allocate_atoms(sc.chain, spec.n_fixed)
                out.append((chain.reallocate(sc.chain, counts), sc.deviation,
                            replace(sc.protocol, t_avg=spec.grid[0])))
                continue
            step = max(1, len(spec.grid) // REPLAY_ATOM_POINTS)
            for value in spec.grid[::step]:
                try:
                    counts = scans.allocate_atoms(sc.chain, int(round(value)))
                except scans.AllocationError:
                    continue
                out.append((chain.reallocate(sc.chain, counts), sc.deviation, sc.protocol))
    return out


def protocol_replay(allocations: list[tuple]) -> dict[str, float]:
    out = {}
    for name in protocols.PROTOCOLS:
        def replay(name=name):
            for ch, h, cfg in allocations:
                protocols.protocol_table(ch, h, cfg, (name,))
        out[f"protocols.{name}.us_per_row"] = per_call_s(replay) / len(allocations) * 1e6
    return out


def check_replay() -> dict[str, float]:
    return {
        f"checks.{name}.ms": per_call_s(
            lambda name=name: checks.run_oracle_checks(budget=ORACLE_BUDGET, only=(name,))) * 1e3
        for name in checks.KNOWN_CHECKS
    }


def oracle_replay() -> dict[str, float]:
    out = {}
    yb = ((170, 70), (172, 70), (174, 70), (176, 70))
    tau, omega = 1.25, 0.85
    for m in ORACLE_SIZES:
        counts, h = ORACLE_INSTANCES[m]
        ch = chain.build_chain([chain.Isotope(A=a, Z=z, n_atoms=n) for (a, z), n in zip(yb, counts)],
                               ref_index=2, sin2_theta_w=0.2325)
        proj = chain.project_deviation(ch, h)
        state = oracle.build_state("cross_cat", ch, proj)
        gen = oracle.build_generator(ch, proj, tau, omega)
        common = oracle.build_common_generator(ch, tau, omega)
        if len(gen.labels) != m:
            raise RuntimeError(f"oracle instance has {len(gen.labels)} qubits, expected {m}")
        theta = math.pi / (2.0 * float(gen.diag.max() - gen.diag.min()))  # mid-fringe
        calls = {
            "build_state": lambda: oracle.build_state("cross_cat", ch, proj),
            "build_generator": lambda: oracle.build_generator(ch, proj, tau, omega),
            "build_common_generator": lambda: oracle.build_common_generator(ch, tau, omega),
            "qfi": lambda: oracle.qfi(state, gen),
            "ramsey_evolve": lambda: oracle.ramsey_evolve(state, gen, theta),
            "parity_fringe": lambda: oracle.parity_fringe(state, gen, theta),
            "cfi_parity": lambda: oracle.cfi_parity(state, gen, theta),
            "common_noise_check": lambda: oracle.common_noise_check(state, common, 0.37),
        }
        for prim in tracing.ORACLE_PRIMITIVES:
            out[f"oracle.{prim}.M{m}.us_per_call"] = per_call_s(calls[prim]) * 1e6
    return out


def format_replay(kept_args: list[tuple]) -> float:
    def replay():
        for args in kept_args:
            cli.format_sig(*args)
    return per_call_s(replay) / len(kept_args) * 1e6


# --- traced run --------------------------------------------------------------

class Layers:
    """Span aggregates over the workload's traced ops, falling back to the
    bundled probe ops for span names the workload never reaches."""

    def __init__(self, tracer: tracing.Tracer, ops: list[Op], probe: list[Op]):
        self.main = (tracing.aggregate(tracer, [op.op_id for op in ops]), len(ops))
        self.probe = (tracing.aggregate(tracer, [op.op_id for op in probe]), len(probe))

    def get(self, name: str) -> tuple[dict | None, int]:
        agg, n = self.main
        if name in agg:
            return agg[name], n
        agg, n = self.probe
        return agg.get(name), n

    def per_call_us(self, name: str) -> float:
        rec, _ = self.get(name)
        return rec["total_s"] / rec["calls"] * 1e6

    def calls_per_op(self, name: str) -> float:
        rec, n = self.get(name)
        return rec["calls"] / n if rec else 0.0

    def median_ms(self, name: str) -> float:
        rec, _ = self.get(name)
        return statistics.median(rec["durations"]) * 1e3

    def self_ms_per_op(self, name: str) -> float:
        rec, n = self.get(name)
        return rec["self_s"] / n * 1e3

    def total_ms_per_op(self, name: str) -> float:
        rec, n = self.main[0].get(name), self.main[1]
        return rec["total_s"] / n * 1e3 if rec else 0.0


def children_of(tracer: tracing.Tracer, parent_name: str, ops: list[Op]) -> dict[str, float]:
    """Total ms per op of each span name directly under ``parent_name``."""
    ids = {op.op_id for op in ops}
    parent_id = tracer.name_id(parent_name)
    out: dict[str, float] = {}
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0 and tracer.op[i] in ids and tracer.name[p] == parent_id:
            name = tracer.names[tracer.name[i]]
            out[name] = out.get(name, 0.0) + (tracer.end[i] - tracer.start[i]) * 1e3 / len(ops)
    return out


def traced_run(workload: str, runner: Runner, seconds: float, work: Path, ids, trace_out: Path):
    untraced = runner.cycles(0.4 * seconds)
    tracer = tracing.Tracer()
    probe: list[Op] = []
    with tracing.instrument(tracer):
        traced = runner.cycles(0.4 * seconds, tracer)
        if workload != "bundled_run":
            bundled = workloads.write_inputs("bundled_run", 0, work / "probe")
            probe_runner = make_runner("bundled_run", bundled, 0, runner.out_dir, ids)
            probe = [probe_runner.op(0, tracer) for _ in range(PROBE_OPS)]
    layers = Layers(tracer, traced, probe)
    metrics = {
        "scenario.parse_scenario.ms": layers.median_ms("scenario.parse_scenario"),
        "scenario.scenario_sha256.ms": layers.median_ms("scenario.scenario_sha256"),
        "scans.atom_scan.self_ms": layers.self_ms_per_op("scans.atom_scan"),
        "scans.time_scan.self_ms": layers.self_ms_per_op("scans.time_scan"),
        "scans.rows": sum(op.check.rows for op in traced) / len(traced),
        "scans.slug_row_share": (sum(op.check.slug_rows for op in traced)
                                 / sum(op.check.rows for op in traced)),
        "cli.run.self_ms": layers.self_ms_per_op("cli.run"),
        "cli.main.self_ms": layers.self_ms_per_op("cli.main"),
        "cli.format_sig.calls": sum(tracer.counts["cli.format_sig", op.op_id] for op in traced)
                                / len(traced),
        "cli.format_sig.us_per_call": format_replay(tracer.kept_args["cli.format_sig"]),
        "cli.csv_bytes": sum(op.check.csv_bytes for op in traced) / len(traced),
        "checks.run_oracle_checks.ms": layers.median_ms("checks.run_oracle_checks"),
        "trace.overhead_ratio": (statistics.median(op.scaled_s for op in traced)
                                 / statistics.median(op.scaled_s for op in untraced)),
    }
    for name in ("chain.project_deviation", "chain.reallocate", "protocols.protocol_table",
                 "protocols.combine_classical_fit"):
        metrics[f"{name}.us_per_call"] = layers.per_call_us(name)
        metrics[f"{name}.calls"] = layers.calls_per_op(name)
    metrics["protocols.cat_contrast.us_per_call"] = layers.per_call_us("protocols.cat_contrast")
    for prim in tracing.ORACLE_PRIMITIVES:
        for m in ORACLE_SIZES:
            metrics[f"oracle.{prim}.M{m}.calls"] = layers.calls_per_op(f"oracle.{prim}.M{m}")
    metrics.update(protocol_replay(workload_allocations(runner.scenarios)))
    metrics.update(check_replay())
    metrics.update(oracle_replay())
    tracer.write(trace_out)
    dominance = {
        "protocols.protocol_table.total_ms": layers.total_ms_per_op("protocols.protocol_table"),
        "chain.reallocate.total_ms": layers.total_ms_per_op("chain.reallocate"),
        "cli.run.self_ms": metrics["cli.run.self_ms"],
        **{f"under cli.run: {k}.total_ms": v
           for k, v in sorted(children_of(tracer, "cli.run", traced).items())},
    }
    return untraced + traced + probe, metrics, dominance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory in the checkout")
    parser.add_argument("--trace-out", type=Path, required=True, help="where the spans are written")
    parser.add_argument("scenarios", type=Path, nargs="+", help="the workload's scenario files")
    args = parser.parse_args(argv)

    ids = itertools.count()
    runner = make_runner(args.workload, args.scenarios, args.seed, args.work / "out", ids)
    warmup = [runner.op(0)]  # lazy set-up inside apvsim and numpy; checked, not timed
    dominance, clock = {}, {}
    if args.trace:
        ops, metrics, dominance = traced_run(
            args.workload, runner, args.seconds, args.work, ids, args.trace_out)
    else:
        ops = runner.cycles(args.seconds)
        metrics, clock = end_to_end(ops)
    ops = warmup + ops
    failed = [op for op in ops if op.failed]
    for op in failed[:5]:
        print(f"op {op.op_id} failed: {'; '.join(op.check.problems)}", file=sys.stderr)
    print(json.dumps({
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "clock": clock,
        "dominance": dominance,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
