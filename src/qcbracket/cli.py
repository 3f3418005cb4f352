"""The command line: subcommands that parse their inputs with ``syntax.parse``,
call the library and print text or JSON.  Exit 0 means the identity held, 1 a
violation, 2 a usage, parse or resource error (one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .algebra import Observable, monomial_observable
from .brackets import BracketKind, jacobi_residual, leibniz_residual
from .brackets import bracket as bracket_of
from .explorer import IDENTITIES, SECTORS, ScanConfig, axiom_sweep
from .explorer import scan as run_scan
from .syntax import (DEGREE_CAP, ExponentError, OutputRecord, _degree,
                     format_observable, parse)

# --- subcommands ------------------------------------------------------------

# Each accepted --kind spelling; argparse lists the keys, in this order.
_KINDS = {"poisson": BracketKind.POISSON, "commutator": BracketKind.COMMUTATOR,
          "aleksandrov": BracketKind.ALEKSANDROV, "normal": BracketKind.NORMAL_ORDER,
          "normal-order": BracketKind.NORMAL_ORDER, "normal_order": BracketKind.NORMAL_ORDER}


def _emit(a: Observable, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(OutputRecord.from_observable(a).as_dict()))
    else:
        print(format_observable(a))


def _cmd_canon(args: argparse.Namespace) -> int:
    _emit(parse(args.expr), args.format)
    return 0


def _parse_inputs(*texts: str) -> list[Observable]:
    """Parse a command's inputs, refusing them if the products it forms
    would pass DEGREE_CAP: their degree is the sum of the input degrees."""
    inputs = [parse(text) for text in texts]
    total = sum(_degree(a) for a in inputs)
    if total > DEGREE_CAP:
        raise ExponentError(
            f"inputs of total degree {total} exceed the cap of {DEGREE_CAP}")
    return inputs


def _cmd_bracket(args: argparse.Namespace) -> int:
    kind = _KINDS[args.kind]
    result = bracket_of(kind, *_parse_inputs(args.a, args.b))
    _emit(result, args.format)
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    kind = _KINDS[args.kind]
    residual_of = jacobi_residual if args.identity == "jacobi" else leibniz_residual
    report = residual_of(kind, *_parse_inputs(args.a, args.b, args.c))
    if args.format == "json":
        _emit(report.residual, "json")
    else:
        print(f"residual: {format_observable(report.residual)}")
        print("PASS" if report.is_zero else "FAIL")
    return 0 if report.is_zero else 1


def _cmd_axioms(args: argparse.Namespace) -> int:
    kind = _KINDS[args.kind]
    violations = axiom_sweep(kind, args.samples, args.seed)
    print(f"violations: {len(violations)}")
    return 1 if violations else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    config = ScanConfig(
        kind=_KINDS[args.kind],
        identity=args.identity,
        max_degree=args.max_degree,
        sector=args.sector)
    records = run_scan(config, jobs=args.jobs)
    if args.format == "json":
        payload = [
            {
                "triple": [format_observable(monomial_observable(m))
                           for m in rec.triple],
                "residual": OutputRecord.from_observable(rec.residual).as_dict(),
                "min_hbar_degree": rec.residual.min_hbar_degree(),
            }
            for rec in records]
        print(json.dumps(payload))
    else:
        for rec in records:
            triple = ", ".join(format_observable(monomial_observable(m))
                               for m in rec.triple)
            degree = sum(map(sum, rec.triple))
            print(f"degree={degree} triple=({triple})"
                  f" residual={format_observable(rec.residual)}"
                  f" min-hbar-degree={rec.residual.min_hbar_degree()}")
        print(f"violations: {len(records)}")
    return 1 if records else 0


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_kind(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=_KINDS, required=True)


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    parser = argparse.ArgumentParser(
        prog="qcbracket",
        description="Exact brackets on mixed quantum-classical observables.")
    commands = parser.add_subparsers(dest="command", required=True)

    canon = commands.add_parser("canon", help="print the canonical form")
    canon.add_argument("expr")
    _add_format(canon)
    canon.set_defaults(handler=_cmd_canon)

    brk = commands.add_parser("bracket", help="evaluate a bracket of two observables")
    _add_kind(brk)
    brk.add_argument("a")
    brk.add_argument("b")
    _add_format(brk)
    brk.set_defaults(handler=_cmd_bracket)

    for name, blurb in (("jacobi", "check the Jacobi identity on a triple"),
                        ("leibniz", "check the Leibniz rule on a triple")):
        sub = commands.add_parser(name, help=blurb)
        _add_kind(sub)
        sub.add_argument("a")
        sub.add_argument("b")
        sub.add_argument("c")
        _add_format(sub)
        sub.set_defaults(handler=_cmd_identity, identity=name)

    axioms = commands.add_parser(
        "axioms", help="randomized check of the sector-factorization rules")
    _add_kind(axioms)
    axioms.add_argument("--samples", type=int, default=100)
    axioms.add_argument("--seed", type=int, default=0)
    axioms.set_defaults(handler=_cmd_axioms)

    scan = commands.add_parser(
        "scan", help="exhaustive identity scan over low-degree monomials")
    scan.add_argument("--identity", choices=IDENTITIES, default="jacobi")
    _add_kind(scan)
    scan.add_argument("--max-degree", type=int, default=3)
    scan.add_argument("--sector", choices=SECTORS, default="all")
    scan.add_argument("--jobs", type=int, default=1)
    _add_format(scan)
    scan.set_defaults(handler=_cmd_scan)

    return parser


def run(argv: Sequence[str]) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.handler(args)
    except (SyntaxError, ValueError, ArithmeticError) as exc:
        # Parse and resource errors (say, a coefficient too long to print)
        # exit 2: exit 1 means a violation was found.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
