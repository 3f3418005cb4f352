"""Expression syntax, canonical printing, and JSON records of observables.

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
product or power may reach a total degree (hbar counted) above 1024 or
coefficients too long to print (estimated from its operands), nor may the
summed degree of the inputs of one bracket or identity command pass 1024.
The Unicode "ℏ" is accepted on input as an alias for "hbar" but never printed.

Factor order is preserved through evaluation, so "p*q" and "q*p" denote
different products even though both print in canonical form (q before p).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import log10
from typing import Any, Mapping

from .algebra import (
    GaussianRational,
    HbarSeries,
    Monomial,
    Observable,
    from_scalar,
    generator,
)

EXPONENT_CAP = 64
# Bounds the total degree (hbar counted) of every product and power before it
# is computed, since nested powers evade EXPONENT_CAP, and the summed degree of
# the inputs of a bracket or identity command, which is the degree of its products.
DEGREE_CAP = 1024
# Parentheses nest by recursion; the cap keeps deep input a SyntaxError
# instead of a RecursionError.
NESTING_CAP = 100

_SYMBOL_NAMES = ("x", "k", "q", "p", "hbar", "i")


class ExponentError(SyntaxError):
    """Exponent outside the supported range (negative, or above the cap),
    or a product, power or command whose degree would exceed DEGREE_CAP,
    or a product or power whose coefficients would be too long to print."""


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
        elif ch in "0123456789":
            j = i + 1
            while j < n and text[j] in "0123456789":
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
    """Monomial degree plus hbar degree, which products add."""
    return max((sum(m) + max(s.terms) for m, s in a.terms.items()), default=0)


def _bits(a: Observable) -> int:
    """Largest bit length of a numerator or denominator of a coefficient."""
    return max((max(c._a.bit_length(), c._b.bit_length(), c._d.bit_length())
                for s in a.terms.values() for c in s.terms.values()), default=0)


def _check_size(degree: int, bits: int, pos: int) -> None:
    """Refuse a product or power, before it is computed, whose degree passes
    DEGREE_CAP or whose estimated coefficients the interpreter would not print."""
    if degree > DEGREE_CAP:
        raise ExponentError(
            f"result degree {degree} at position {pos}"
            f" exceeds the cap of {DEGREE_CAP}")
    # Interpreters without the int-to-str digit limit print any int.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and bits * log10(2) > limit:
        raise ExponentError(
            f"result coefficients of about {bits} bits at position {pos}"
            f" exceed the {limit}-digit limit of int printing")


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
            _check_size(_degree(result) + _degree(right),
                        _bits(result) + _bits(right), star.pos)
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
        _check_size(_degree(base) * exponent, _bits(base) * exponent, tok.pos)
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
    for mono in sorted(a.terms, key=lambda m: (sum(m), m), reverse=True):
        yield mono, sorted(a.terms[mono].terms.items())


def _atom(rational: Fraction, imaginary: bool, hbar_degree: int,
          mono: Monomial) -> tuple[bool, str]:
    factors: list[str] = []
    magnitude = abs(rational)
    bare = not imaginary and hbar_degree == 0 and sum(mono) == 0
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
            terms.append({"exp": mono, "coeff": coeff})
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
        # A dict keeps the last of two entries on one key: refuse them instead.
        terms: dict[Monomial, HbarSeries] = {}
        for term in self.terms:
            exp, coeff = tuple(term["exp"]), {}
            for c in term["coeff"]:
                if c["hbar"] in coeff:
                    raise ValueError(f"repeated hbar degree {c['hbar']!r} in the term {exp}")
                coeff[c["hbar"]] = GaussianRational(Fraction(*c["re"]), Fraction(*c["im"]))
            if exp in terms:
                raise ValueError(f"repeated exponents {exp} in the record")
            terms[exp] = HbarSeries(coeff)
        return Observable(terms)
