"""Tests of the benchmark's own code: python -m pytest perfbench/tests -q"""

import importlib
import json

import pytest

import outputs
import tracing
import worker
import workloads
from tracing import Tracer, aggregate, instrument, self_times


def test_self_time_on_synthetic_span_tree():
    t = Tracer()
    root = t.add_span("cli.run", 0.0, 10.0, op=0)
    a = t.add_span("scans.atom_scan", 1.0, 4.0, parent=root, op=0)
    b = t.add_span("scans.atom_scan", 5.0, 9.0, parent=root, op=0)
    t.add_span("protocols.protocol_table", 6.0, 7.0, parent=b, op=0)
    t.add_span("cli.run", 20.0, 22.0, op=1)
    assert self_times(t) == [3.0, 3.0, 3.0, 1.0, 2.0]
    agg = aggregate(t, [0])
    assert agg["cli.run"]["calls"] == 1
    assert agg["cli.run"]["self_s"] == 3.0
    assert agg["scans.atom_scan"] == {
        "calls": 2, "total_s": 7.0, "self_s": 6.0, "durations": [3.0, 4.0]}
    assert aggregate(t, [0, 1])["cli.run"]["total_s"] == 12.0


@pytest.mark.parametrize("workload", ["atom_sweep", "time_sweep"])
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    def inputs(seed, name):
        return [p.read_bytes() for p in workloads.write_inputs(workload, seed, tmp_path / name)]

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(4, "c")


def test_instrument_restores_every_attribute(tmp_path):
    wrapped = tracing.TIMED + tracing.SIZED + tracing.COUNTED
    modules = {m: importlib.import_module(m) for m, _, _ in wrapped}
    before = {(m, attr): getattr(modules[m], attr) for m, attr, _ in wrapped}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrument(tracer):
            assert all(getattr(modules[m], attr) is not fn for (m, attr), fn in before.items())
            cli = modules["apvsim.cli"]
            assert cli.main(["run", str(workloads.BUNDLED_SCENARIO),
                             "--out", str(tmp_path), "--quiet"]) == 0
            raise RuntimeError("leave the block by an exception")
    assert all(getattr(modules[m], attr) is fn for (m, attr), fn in before.items())
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.main", "cli.run", "checks.run_oracle_checks", "oracle.cfi_parity.M10"} <= names
    assert all(0 <= tracer.start[i] <= tracer.end[i] for i in range(len(tracer)))


def test_output_check_rejects_bad_rows(tmp_path):
    good = outputs.HEADER + b"4,sql,0.1,0.1\n5,sql,error:allocation,error:allocation\n"
    cases = [
        (good, None),
        (good + b"6,sql,nan,nan\n", "not finite and positive"),
        (good + b"6,sql,error:oops,error:oops\n", "undocumented error marker"),
        (good + b"6,beam,0.1,0.1\n", "unexpected protocol"),
        (good + b"6,sql,0.1\n", "does not have 4 fields"),
    ]
    for i, (data, problem) in enumerate(cases):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(data)
        result = outputs.OpCheck()
        outputs.check_csv(path, 2, frozenset({"sql"}), result)
        if problem is None:
            assert result.problems == [] and result.rows == 2 and result.slug_rows == 1
        else:
            assert len(result.problems) == 1 and problem in result.problems[0]


def test_op_whose_output_check_raises_counts_as_failed(tmp_path, monkeypatch):
    scenario = workloads.write_inputs("bundled_run", 0, tmp_path / "inputs")[0]
    want = outputs.expected(scenario, None)
    runner = worker.Runner([scenario], [want], tmp_path / "out", iter(range(10)))

    def check_summary(path, result):
        raise FileNotFoundError(path)  # as if summary.json were missing

    monkeypatch.setattr(outputs, "check_summary", check_summary)
    op = runner.op(0)
    assert op.failed and "output check raised FileNotFoundError" in op.check.problems[0]


def test_metric_catalogue_matches_benchmark_json():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((workloads.ROOT / "perfbench" / "metrics.json").read_text())
    listed = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert sorted(listed) == sorted(catalogue["metrics"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
