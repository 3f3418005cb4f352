"""Expression syntax, canonical printing, JSON records, and the command line.

Surface syntax for observables::

    expr     := term (('+'|'-') term)*
    term     := '-'? factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'k' | 'q' | 'p' | 'hbar' | 'i' | rational | '(' expr ')'
    rational := int ('/' uint)?

Whitespace is insignificant.  Products need an explicit '*': "xq" is not
"x*q", because single-letter symbols next to each other would otherwise be
ambiguous with multi-letter names like "hbar".  Division exists only inside
rational literals; exponents are unsigned integers capped at 64, and no
product or power may reach a total degree above 1024, nor may the summed
degree of the inputs of one bracket or identity command.  The Unicode "ℏ"
is accepted on input as an alias for "hbar" but never printed.

Factor order is preserved through evaluation, so "p*q" and "q*p" denote
different products even though both print in canonical form (q before p).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .algebra import (
    GaussianRational,
    HbarSeries,
    Observable,
    QCMonomial,
    from_scalar,
    generator,
    monomial_observable,
)
from .brackets import BracketKind, jacobi_residual, leibniz_residual
from .brackets import bracket as bracket_of
from .explorer import ScanConfig, axiom_sweep
from .explorer import scan as run_scan

EXPONENT_CAP = 64
# Bounds the total degree of every product and power before it is computed,
# since nested powers evade EXPONENT_CAP, and the summed degree of the inputs
# of a bracket or identity command, which is the degree of its products.
DEGREE_CAP = 1024
# Parentheses nest by recursion; the cap keeps deep input a SyntaxError
# instead of a RecursionError.
NESTING_CAP = 100

_SYMBOL_NAMES = ("x", "k", "q", "p", "hbar", "i")


class ExponentError(SyntaxError):
    """Exponent outside the supported range (negative, or above the cap),
    or a product, power or command whose degree would exceed DEGREE_CAP."""


# --- tokenizer and parser ---------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "end", or the operator character itself
    text: str
    pos: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch == "ℏ":
            tokens.append(_Token("name", "hbar", pos))
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], pos))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], pos))
            i = j
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, ch, pos))
            i += 1
        else:
            raise SyntaxError(f"unexpected character {ch!r} at position {pos}")
    tokens.append(_Token("end", "end of input", n + 1))
    return tokens


def _degree(a: Observable) -> int:
    return max((m.degree for m in a.terms), default=0)


def _check_degree(degree: int, pos: int) -> None:
    if degree > DEGREE_CAP:
        raise ExponentError(
            f"result degree {degree} at position {pos}"
            f" exceeds the cap of {DEGREE_CAP}")


def _unknown_symbol(tok: _Token) -> SyntaxError:
    msg = f"unknown symbol {tok.text!r} at position {tok.pos}"
    if len(tok.text) > 1 and all(c in "xkqpi" for c in tok.text):
        msg += " (write {} for a product)".format("*".join(tok.text))
    return SyntaxError(msg)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Observable:
        result = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            part = self.term()
            result = result - part if op.kind == "-" else result + part
        return result

    def term(self) -> Observable:
        negate = False
        while self.peek().kind == "-":
            self.take()
            negate = not negate
        # Left fold in written order; q and p do not commute.
        result = self.factor()
        while self.peek().kind == "*":
            star = self.take()
            right = self.factor()
            _check_degree(_degree(result) + _degree(right), star.pos)
            result = result * right
        nxt = self.peek()
        if nxt.kind in ("int", "name", "("):
            raise SyntaxError(
                f"unexpected {nxt.text!r} at position {nxt.pos}"
                " (use '*' between factors)")
        return -result if negate else result

    def factor(self) -> Observable:
        base = self.base()
        if self.peek().kind != "^":
            return base
        self.take()
        tok = self.peek()
        if tok.kind == "-":
            raise ExponentError(f"negative exponent at position {tok.pos}")
        if tok.kind != "int":
            raise SyntaxError(
                f"expected integer exponent at position {tok.pos}")
        self.take()
        exponent = int(tok.text)
        if exponent > EXPONENT_CAP:
            raise ExponentError(
                f"exponent {exponent} at position {tok.pos}"
                f" exceeds the cap of {EXPONENT_CAP}")
        _check_degree(_degree(base) * exponent, tok.pos)
        return base ** exponent

    def base(self) -> Observable:
        tok = self.take()
        if tok.kind == "int":
            numerator = int(tok.text)
            if self.peek().kind != "/":
                return from_scalar(Fraction(numerator))
            self.take()
            den = self.peek()
            if den.kind != "int":
                raise SyntaxError(
                    f"expected integer denominator at position {den.pos}")
            self.take()
            if int(den.text) == 0:
                raise SyntaxError(f"zero denominator at position {den.pos}")
            return from_scalar(Fraction(numerator, int(den.text)))
        if tok.kind == "name":
            if tok.text in _SYMBOL_NAMES:
                return generator(tok.text)
            raise _unknown_symbol(tok)
        if tok.kind == "(":
            if self.depth == NESTING_CAP:
                raise SyntaxError(
                    f"parentheses nested deeper than {NESTING_CAP}"
                    f" at position {tok.pos}")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            closing = self.peek()
            if closing.kind != ")":
                raise SyntaxError(f"expected ')' at position {closing.pos}")
            self.take()
            return inner
        raise SyntaxError(f"unexpected {tok.text!r} at position {tok.pos}")


def parse(text: str) -> Observable:
    """Parse and evaluate, returning the canonical observable."""
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        hint = ""
        if tok.kind == "/":
            hint = " ('/' is only valid inside a rational literal like 1/2)"
        raise SyntaxError(f"unexpected {tok.text!r} at position {tok.pos}{hint}")
    return result


# --- canonical text ---------------------------------------------------------

def _display_terms(a: Observable):
    # Graded-lex descending on (n_x, n_k, n_q, n_p); hbar degrees ascending
    # inside each monomial.
    for mono in sorted(a.terms, key=lambda m: (m.degree, m), reverse=True):
        yield mono, sorted(a.terms[mono].terms.items())


def _atom(rational: Fraction, imaginary: bool, hbar_degree: int,
          mono: QCMonomial) -> tuple[bool, str]:
    factors: list[str] = []
    magnitude = abs(rational)
    bare = not imaginary and hbar_degree == 0 and mono.degree == 0
    if magnitude != 1 or bare:
        if magnitude.denominator == 1:
            factors.append(str(magnitude))
        else:
            factors.append(f"({magnitude})")
    if imaginary:
        factors.append("i")
    if hbar_degree == 1:
        factors.append("hbar")
    elif hbar_degree > 1:
        factors.append(f"hbar^{hbar_degree}")
    for name, exponent in zip("xkqp", mono):
        if exponent == 1:
            factors.append(name)
        elif exponent > 1:
            factors.append(f"{name}^{exponent}")
    return rational < 0, "*".join(factors)


def format_observable(a: Observable) -> str:
    """Deterministic canonical text; the zero observable prints as "0"."""
    atoms: list[tuple[bool, str]] = []
    for mono, series in _display_terms(a):
        for degree, coeff in series:
            re, im = coeff.re, coeff.im
            if re:
                atoms.append(_atom(re, False, degree, mono))
            if im:
                atoms.append(_atom(im, True, degree, mono))
    if not atoms:
        return "0"
    negative, text = atoms[0]
    pieces = [f"-{text}" if negative else text]
    for negative, text in atoms[1:]:
        pieces.append(f" - {text}" if negative else f" + {text}")
    return "".join(pieces)


# --- JSON records -----------------------------------------------------------

@dataclass(frozen=True)
class OutputRecord:
    """Flat serialized form of one observable.

    ``terms`` mirrors the JSON layout: each entry has "exp", the four
    exponents, and "coeff", the hbar-coefficient table with exact rational
    real and imaginary parts.
    """

    canonical_text: str
    terms: tuple[dict, ...]

    SCHEMA = 1

    @classmethod
    def from_observable(cls, a: Observable) -> "OutputRecord":
        terms = []
        for mono, series in _display_terms(a):
            coeff = tuple(
                {
                    "hbar": degree,
                    "re": (g.re.numerator, g.re.denominator),
                    "im": (g.im.numerator, g.im.denominator),
                }
                for degree, g in series)
            terms.append({"exp": tuple(mono), "coeff": coeff})
        return cls(format_observable(a), tuple(terms))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OutputRecord":
        if payload.get("schema") != cls.SCHEMA:
            raise ValueError(f"unsupported schema {payload.get('schema')!r}")
        terms = tuple(
            {
                "exp": tuple(term["exp"]),
                "coeff": tuple(
                    {"hbar": c["hbar"], "re": tuple(c["re"]), "im": tuple(c["im"])}
                    for c in term["coeff"]),
            }
            for term in payload["terms"])
        return cls(payload["canonical_text"], terms)

    def as_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "canonical_text": self.canonical_text,
            "terms": list(self.terms),
        }

    def to_observable(self) -> Observable:
        return Observable({
            QCMonomial(*term["exp"]): HbarSeries({
                c["hbar"]: GaussianRational(Fraction(*c["re"]), Fraction(*c["im"]))
                for c in term["coeff"]})
            for term in self.terms})


# --- subcommands ------------------------------------------------------------

_KIND_NAMES = ("poisson", "commutator", "aleksandrov", "normal",
               "normal-order", "normal_order")


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
    kind = BracketKind.from_name(args.kind)
    result = bracket_of(kind, *_parse_inputs(args.a, args.b))
    _emit(result, args.format)
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    kind = BracketKind.from_name(args.kind)
    residual_of = jacobi_residual if args.identity == "jacobi" else leibniz_residual
    report = residual_of(kind, *_parse_inputs(args.a, args.b, args.c))
    if args.format == "json":
        _emit(report.residual, "json")
    else:
        print(f"residual: {format_observable(report.residual)}")
        print("PASS" if report.is_zero else "FAIL")
    return 0 if report.is_zero else 1


def _cmd_axioms(args: argparse.Namespace) -> int:
    if args.samples < 1:
        print("error: --samples must be positive", file=sys.stderr)
        return 2
    kind = BracketKind.from_name(args.kind)
    violations = axiom_sweep(kind, args.samples, args.seed)
    print(f"violations: {len(violations)}")
    return 1 if violations else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.max_degree < 0:
        print("error: --max-degree must be nonnegative", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    config = ScanConfig(
        kind=BracketKind.from_name(args.kind),
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
                "min_hbar_degree": rec.residual_min_hbar_degree,
            }
            for rec in records]
        print(json.dumps(payload))
    else:
        for rec in records:
            triple = ", ".join(format_observable(monomial_observable(m))
                               for m in rec.triple)
            degree = sum(m.degree for m in rec.triple)
            print(f"degree={degree} triple=({triple})"
                  f" residual={format_observable(rec.residual)}"
                  f" min-hbar-degree={rec.residual_min_hbar_degree}")
        print(f"violations: {len(records)}")
    return 1 if records else 0


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_kind(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", choices=_KIND_NAMES, required=True)


def _build_parser() -> argparse.ArgumentParser:
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
    scan.add_argument("--identity", choices=("jacobi", "leibniz"),
                      default="jacobi")
    _add_kind(scan)
    scan.add_argument("--max-degree", type=int, default=3)
    scan.add_argument("--sector", choices=("all", "classical", "quantum"),
                      default="all")
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
