"""The benchmark's four workloads: inputs, one timed pass, output checks.

A workload is a list of operations made fresh for each pass from the
benchmark seed and the pass number.  Each operation is one call into
qcbracket's public API (``cli.run`` for a command, a residual function, or
``axiom_sweep``) plus a check of what it returned.  The checks hold for any
seed; ``check_outputs`` runs them after the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from qcbracket import algebra, brackets, cli, explorer
from qcbracket.brackets import BracketKind

# The paper's witnesses, each at the degree where it first shows up, plus one
# pure-sector scan that must stay clean.  The digests are SHA-256 of the
# command's stdout, recorded at commit 1799b00; stdout must not change by a
# byte, and it is the same for every --jobs value.  Every scan has more than
# 256 triples, so --jobs 2 never falls back to the serial path.
SCANS = (
    # (kind, identity, max degree, sector, triples, violations, stdout sha256)
    ("aleksandrov", "jacobi", 3, "all", 7770, 48,
     "3590ba4f75f7cfd797265c9d0bcf0301e8bfa86ae66d96028cef8f4d777b76be"),
    ("normal", "jacobi", 2, "all", 680, 2,
     "f57f8cc62b7842c95ae5c689c5a83d5a80266b2472ec3925bdc33a352997bd58"),
    ("aleksandrov", "leibniz", 2, "all", 3375, 192,
     "f42fa6694ab6854915a40364769b3765f03b99468a0de3b848212b3bc8f99213"),
    ("normal", "leibniz", 2, "all", 3375, 100,
     "3dd2278f332e069f854d36be1d2341ec96204eb1e901588d0c7e0d3b2f92e1d6"),
    ("aleksandrov", "jacobi", 4, "quantum", 680, 0,
     "3c2f6f9a111d0ea8a5513227868ede3cbb03ddce69b047d0a90db94861650106"),
)
PARALLEL_JOBS = 2

# One poly-residual round: every kind under both identities, then one axiom
# quadruple per mixed kind.  A pass is ROUNDS_PER_PASS rounds.
ROUNDS_PER_PASS = 8

# Atoms of the generated sums in canon-expand.  Products such as x*q and the
# i*hbar factors give the outputs many hbar-graded terms.
CANON_SUMS = (
    ("x", "k", "q", "p", "i*hbar"),
    ("x*q", "k*p", "q", "p", "hbar"),
    ("x", "q", "p", "i*p", "hbar*q"),
    ("k", "x*q", "q", "p", "i*hbar"),
)
BRACKET_SUMS = (("x", "k", "q", "p"), ("x*q", "k", "p", "i*hbar"))


class CliOutput(NamedTuple):
    code: int
    stdout: str
    value: Any  # the JSON read-back, for --format json commands


@dataclass(frozen=True)
class Op:
    """One call into qcbracket and the check of its result."""

    label: str
    weight: int  # operations it stands for: triples for a scan, else 1
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    outputs: list[Any]


def read_back(text: str) -> algebra.Observable:
    """Turn a --format json line back into an observable, as a user would."""
    return cli.OutputRecord.from_dict(json.loads(text)).to_observable()


def run_cli(argv: list[str], json_output: bool = False) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    text = out.getvalue()
    return CliOutput(code, text, read_back(text) if json_output else None)


# --- scans ------------------------------------------------------------------

def _scan_op(spec: tuple, jobs: int) -> Op:
    kind, identity, degree, sector, triples, violations, digest = spec
    argv = ["scan", "--kind", kind, "--identity", identity,
            "--max-degree", str(degree), "--sector", sector, "--jobs", str(jobs)]

    def check(out: CliOutput) -> bool:
        lines = out.stdout.splitlines()
        return (out.code == (1 if violations else 0)
                and lines[-1:] == [f"violations: {violations}"]
                and hashlib.sha256(out.stdout.encode()).hexdigest() == digest)

    return Op(" ".join(argv), triples, lambda: run_cli(argv), check)


def scan_ops(seed: int, pass_no: int, jobs: int, specs=SCANS) -> list[Op]:
    # Scans are exhaustive: their inputs do not depend on the seed.
    return [_scan_op(spec, jobs) for spec in specs]


# --- poly-residual ------------------------------------------------------------

def _observable(rng: random.Random, terms: int) -> algebra.Observable:
    """A random_observable value with exactly ``terms`` terms."""
    while True:
        obs = explorer.random_observable(rng.getrandbits(32))
        if len(obs.terms) == terms:
            return obs


def _residual_op(name: str, kind: BracketKind, a, b, c) -> Op:
    def call():
        return getattr(brackets, name)(kind, a, b, c)

    def check(report) -> bool:
        if kind is BracketKind.COMMUTATOR:
            # The commutator of an associative algebra obeys both identities.
            return report.is_zero and not report.residual
        # Every violation of the other kinds is O(hbar).
        return not algebra.hbar_zero(report.residual)

    return Op(f"{name} {kind.value} {a!r} {b!r} {c!r}", 1, call, check)


def _axiom_op(kind: BracketKind, seed: int) -> Op:
    return Op(f"axiom_sweep {kind.value} seed={seed}", 1,
              lambda: explorer.axiom_sweep(kind, 1, seed),
              lambda violations: violations == [])


def poly_ops(seed: int, pass_no: int, rounds: int = ROUNDS_PER_PASS) -> list[Op]:
    """Random observables of 1 to 4 terms, each count equally often.

    The cost of a residual grows with the product of its inputs' term counts,
    so the counts follow a fixed rotation instead of a draw: a pass then
    costs about the same for every seed.
    """
    rng = random.Random(f"poly-residual/{seed}/{pass_no}")
    ops = []
    for r in range(rounds):
        for j, (kind, name) in enumerate(
                (k, n) for k in BracketKind
                for n in ("jacobi_residual", "leibniz_residual")):
            a, b, c = (_observable(rng, 1 + (r + j + i) % 4) for i in range(3))
            ops.append(_residual_op(name, kind, a, b, c))
        for kind in brackets.MIXED_KINDS:
            ops.append(_axiom_op(kind, rng.getrandbits(32)))
    return ops


# --- canon-expand ---------------------------------------------------------------

def _power_of_sum(rng: random.Random, atoms: tuple[str, ...], exponent: int) -> str:
    parts = []
    for atom in rng.sample(atoms, len(atoms)):
        num, den = rng.randint(1, 9999), rng.randint(1, 999)
        sign = rng.choice(("+", "-"))
        parts.append(f"{sign} {num}/{den}*{atom}")
    return f"({' '.join(parts).lstrip('+ ')})^{exponent}"


def _command_op(argv: list[str], expected: Callable[[], algebra.Observable]) -> Op:
    json_output = "--format" in argv

    def check(out: CliOutput) -> bool:
        x = expected()
        text = cli.format_observable(x)
        if out.code != 0:
            return False
        if json_output:
            # JSON read-back returns x, and the record carries x's text.
            return out.value == x and json.loads(out.stdout)["canonical_text"] == text
        # parse(format(x)) == x, and the command printed format(x).
        return out.stdout == text + "\n" and cli.parse(out.stdout) == x

    return Op(" ".join(argv), 1, lambda: run_cli(argv, json_output), check)


def canon_ops(seed: int, pass_no: int) -> list[Op]:
    """Four canon and four bracket commands; half of each print JSON.

    The atoms of each sum are fixed, so output sizes are too; the seed draws
    the coefficients, their signs and the order of the terms.
    """
    rng = random.Random(f"canon-expand/{seed}/{pass_no}")
    ops = []
    for n, atoms in enumerate(CANON_SUMS):
        expr = _power_of_sum(rng, atoms, 5)
        fmt = ["--format", "json"] if n % 2 else []
        ops.append(_command_op(["canon", expr, *fmt],
                               lambda expr=expr: cli.parse(expr)))
    for n, kind in enumerate(BracketKind):
        a = _power_of_sum(rng, BRACKET_SUMS[0], 2)
        b = _power_of_sum(rng, BRACKET_SUMS[1], 3)
        fmt = ["--format", "json"] if (n + pass_no) % 2 else []
        ops.append(_command_op(
            ["bracket", "--kind", kind.value, a, b, *fmt],
            lambda kind=kind, a=a, b=b: brackets.bracket(kind, cli.parse(a), cli.parse(b))))
    return ops


# --- passes -----------------------------------------------------------------

WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "scan-serial": lambda seed, pass_no: scan_ops(seed, pass_no, 1),
    "scan-parallel": lambda seed, pass_no: scan_ops(seed, pass_no, PARALLEL_JOBS),
    "poly-residual": poly_ops,
    "canon-expand": canon_ops,
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(ops: list[Op], between: Callable[[], None] | None = None) -> PassResult:
    """Call every operation in turn; only the calls are timed.

    ``between`` runs after each call, outside the timed region.  An
    operation that raises is recorded with its exception as output, so it
    fails its check instead of ending the run.
    """
    latencies, outputs, cpu = [], [], 0.0
    for op in ops:
        cpu0, start = _cpu_s(), time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            out = exc
        latencies.append(time.perf_counter() - start)
        cpu += _cpu_s() - cpu0
        outputs.append(out)
        if between is not None:
            between()
    return PassResult(sum(latencies), cpu, latencies, outputs)


def check_outputs(ops: list[Op], outputs: list[Any]) -> list[Op]:
    """The operations whose output failed its check."""
    failed = []
    for op, out in zip(ops, outputs):
        try:
            ok = not isinstance(out, Exception) and op.check(out)
        except Exception:  # noqa: BLE001 - a check that cannot run is a failure
            ok = False
        if not ok:
            failed.append(op)
    return failed


def output_bytes(outputs: list[Any]) -> int:
    return sum(len(out.stdout.encode()) for out in outputs if isinstance(out, CliOutput))
