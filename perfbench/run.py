"""Benchmark of qcbracket: four workloads, checked outputs, named metrics.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

It builds nothing: qcbracket is imported from ``src/`` of the same checkout.
One workload runs in this process; ``--workload all`` (the default) runs each
workload in a fresh process of its own.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds metadata that is not a metric.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-serial", "scan-parallel", "poly-residual", "canon-expand")
DEFAULT_SEED = 0
SETUP_PROBES = 11
OVERHEAD_SECONDS = 5

# A set-up probe is a fresh interpreter that imports the program and makes the
# first pass's inputs, then says so; set-up time ends when that line arrives.
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), 0)
print("ready", flush=True)
"""

UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _metadata() -> dict:
    src_lines = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"src_lines": src_lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit}


def _setup_seconds(workload: str, seed: int) -> float:
    """Wall time from starting a set-up probe to its "ready" line."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = probe.communicate(timeout=60)
    if line.strip() != "ready" or probe.returncode != 0:
        _fail(f"set-up of {workload} failed:\n{err.strip()}")
    return elapsed


def _import_program():
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import qcbracket
        import workloads
    except ImportError as exc:
        _fail(f"cannot import qcbracket from {SRC}: {exc}")
    if Path(qcbracket.__file__).resolve().parent != SRC / "qcbracket":
        _fail(f"qcbracket was imported from {qcbracket.__file__}, not from {SRC}")
    return workloads


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _result(failures: list, attempted: int, metrics: dict, units: dict, info: dict) -> None:
    info["failures"] = [op.label for op in failures[:5]]
    print(json.dumps(info))
    failed = sum(op.weight for op in failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def measure(name: str, seed: int, seconds: float) -> None:
    """The end-to-end metrics of one workload, with tracing off.

    Set-up probes are spread over the run, between operations, so that their
    median does not hang on one stretch of a busy machine.
    """
    setup = [_setup_seconds(name, seed)]
    workloads = _import_program()
    make_ops = workloads.WORKLOADS[name]
    last_probe = time.perf_counter()

    def probe_when_due() -> None:
        nonlocal last_probe
        if (len(setup) < SETUP_PROBES
                and time.perf_counter() - last_probe > seconds / SETUP_PROBES):
            setup.append(_setup_seconds(name, seed))
            last_probe = time.perf_counter()

    walls, cpus, latencies, failures, attempted = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        ops = make_ops(seed, len(walls))
        result = workloads.run_pass(ops, probe_when_due)
        failures += workloads.check_outputs(ops, result.outputs)
        attempted += sum(op.weight for op in ops)
        walls.append(result.wall_s)
        cpus.append(result.cpu_s)
        if all(op.weight == 1 for op in ops):
            latencies += result.latencies_s
        else:
            # The triples of a scan command cannot be timed one by one from
            # outside, so each gets its pass's mean time per triple.
            latencies.append(result.wall_s / sum(op.weight for op in ops))
        # Start another pass only if it can end within the time given.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(name, seed))
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / sum(walls),
        "op_p50_ms": 1e3 * _percentile(latencies, 50),
        "op_p90_ms": 1e3 * _percentile(latencies, 90),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024,
    }
    info = {"workload": name, "seed": seed, "passes": len(walls),
            "op_samples": len(latencies), "meta": _metadata()}
    _result(failures, attempted, metrics, UNITS, info)


def trace(name: str, seed: int) -> None:
    """The per-layer metrics of one workload, from one traced pass.

    The traced pass runs the first pass's inputs from the cold caches a
    single CLI call sees.  For the overhead ratio the same inputs then run
    untraced and traced in turn until the untraced side has taken
    OVERHEAD_SECONDS, since one short pass is at the mercy of machine noise.
    """
    workloads = _import_program()
    import tracing
    from qcbracket import algebra

    cache_info = getattr(algebra.reorder, "cache_info", lambda: None)
    tracer = tracing.Tracer()
    reorder_before = cache_info()
    tracer.install()
    try:
        ops = workloads.WORKLOADS[name](seed, 0)
        first = workloads.run_pass(ops)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(reorder_before, cache_info())
    metrics["cli.output_bytes"] = workloads.output_bytes(first.outputs)
    failures = workloads.check_outputs(ops, first.outputs)
    traced_s, untraced_s = [first.wall_s], []

    def timed_pass(traced: bool) -> None:
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            result = workloads.run_pass(ops)
        finally:
            tracer.uninstall()
        failures.extend(workloads.check_outputs(ops, result.outputs))
        (traced_s if traced else untraced_s).append(result.wall_s)

    # Pairs alternate which side runs first: T U, U T, T U, ...
    timed_pass(False)
    while sum(untraced_s) < OVERHEAD_SECONDS:
        for traced in ((False, True) if len(untraced_s) % 2 else (True, False)):
            timed_pass(traced)
    metrics["trace.overhead_ratio"] = sum(traced_s) / sum(untraced_s)
    units = {key: tracing.unit_of(key) for key in metrics}
    info = {"workload": name, "seed": seed, "traced_wall_s": traced_s,
            "untraced_wall_s": untraced_s, "meta": _metadata()}
    attempted = (len(traced_s) + len(untraced_s)) * sum(op.weight for op in ops)
    _result(failures, attempted, metrics, units, info)


def run_all(args: argparse.Namespace) -> None:
    """Each workload in a fresh process; metric names get a workload prefix."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            print(f"{name:>14}  {metric:<36} {value['value']:>14.6g} {value['unit']}")
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qcbracket" / "__init__.py").is_file():
        _fail(f"no qcbracket sources under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        run_all(args)
    elif args.trace:
        trace(args.workload, args.seed)
    else:
        measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
