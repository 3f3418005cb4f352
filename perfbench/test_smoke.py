"""Smoke test of the benchmark at tiny size: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from qcbracket import brackets, cli, explorer  # noqa: E402

# The smallest scan: normal-order Jacobi to degree 2, 680 triples.
TINY_SCAN = (workloads.SCANS[1],)


def _tiny_ops(name: str) -> list[workloads.Op]:
    if name == "poly-residual":
        return workloads.poly_ops(3, 0, rounds=1)
    if name == "canon-expand":
        return workloads.canon_ops(3, 0)
    jobs = workloads.PARALLEL_JOBS if name == "scan-parallel" else 1
    return workloads.scan_ops(3, 0, jobs, TINY_SCAN)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_pass_their_checks(name):
    ops = _tiny_ops(name)
    result = workloads.run_pass(ops)
    assert workloads.check_outputs(ops, result.outputs) == []


def test_a_wrong_output_is_counted_not_raised():
    ops = _tiny_ops("scan-serial")
    outputs = [workloads.CliOutput(1, "violations: 3\n", None), RuntimeError("boom")]
    assert workloads.check_outputs(ops * 2, outputs) == ops * 2


def test_workload_names_agree():
    import run

    names = [w["name"] for w in _spec()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    labels = [op.label for op in workloads.canon_ops(5, 1)]
    assert labels == [op.label for op in workloads.canon_ops(5, 1)]
    assert labels != [op.label for op in workloads.canon_ops(6, 1)]


# Spans each workload is meant to exercise.
EXERCISED = {
    "scan-serial": ["algebra.gr_ops.calls", "algebra.series_mul.calls",
                    "algebra.product.calls", "algebra.product.self_s",
                    "algebra.add.self_s", "algebra.divide_by_i_hbar.self_s",
                    "brackets.bracket.calls.normal_order", "brackets.bracket.self_s",
                    "brackets.residual.self_s", "explorer.scan.triples",
                    "explorer.scan.violations", "explorer.scan.self_s",
                    "cli.format.self_s"],
    "scan-parallel": ["explorer.scan.violations", "explorer.pool.child_cpu_s",
                      "explorer.pool.utilization"],
    "poly-residual": ["algebra.gr_ops.calls", "brackets.bracket.calls.poisson",
                      "brackets.bracket.calls.commutator",
                      "brackets.bracket.calls.aleksandrov",
                      "brackets.residual.self_s", "explorer.random_observable.self_s"],
    "canon-expand": ["algebra.product.self_s", "cli.parse.self_s",
                     "cli.format.self_s", "cli.json.self_s"],
}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_traced_spans_count_where_calls_resolve(name):
    originals = (dict(brackets._DISPATCH), cli.parse, explorer.jacobi_residual,
                 cli.OutputRecord.__dict__["from_dict"], cli.json)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = _tiny_ops(name)
        result = workloads.run_pass(ops)
    finally:
        tracer.uninstall()
    assert workloads.check_outputs(ops, result.outputs) == []
    assert originals == (dict(brackets._DISPATCH), cli.parse, explorer.jacobi_residual,
                         cli.OutputRecord.__dict__["from_dict"], cli.json)
    metrics = tracer.metrics(None, None)
    for metric in EXERCISED[name]:
        assert metrics[metric] > 0, metric
    if name == "scan-serial":
        assert metrics["explorer.scan.triples"] == 680
        assert metrics["explorer.scan.violations"] == 2
        assert metrics["brackets.bracket.distinct_arg_ratio"] < 1


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric(trace):
    proc = _run("--workload", "canon-expand", "--seed", "4", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "poly-residual", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
