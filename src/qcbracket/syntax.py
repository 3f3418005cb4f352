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
summed inputs of one bracket or identity command, nor any integer literal.
The Unicode "ℏ" is accepted on input as an alias for "hbar" but never printed.

Factor order is preserved through evaluation, so "p*q" and "q*p" denote
different products even though both print in canonical form (q before p).
The printer and the JSON writer and reader work on each coefficient's integer
triple (a + b*i)/d, with no Fraction; a part past the digit limit is a ValueError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd, log10
from typing import Any, Mapping

from .algebra import (
    GaussianRational,
    HbarSeries,
    Monomial,
    Observable,
    _gr,
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
# The interpreter's int-to-str digit limit, read at each use; 0 where it has none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

_SYMBOL_NAMES = ("x", "k", "q", "p", "hbar", "i")


class ExponentError(SyntaxError):
    """Exponent outside the supported range (negative, or above the cap), or a
    product, power, command or integer literal whose degree would exceed
    DEGREE_CAP or whose coefficients would be too long to print."""


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


def _check_size(degree: int, bits: int, pos: int | None) -> None:
    """Refuse a product or power at ``pos``, before it is computed, whose degree
    passes DEGREE_CAP or whose estimated coefficients the interpreter would not
    print.  With no position, refuse a command's inputs the same way: the
    products it forms have at most their summed degree and bits."""
    if degree > DEGREE_CAP:
        what = (f"inputs of total degree {degree} exceed" if pos is None
                else f"result degree {degree} at position {pos} exceeds")
        raise ExponentError(f"{what} the cap of {DEGREE_CAP}")
    if bits * log10(2) > (limit := _digit_limit()) > 0:
        what = (f"input coefficients of about {bits} bits in total" if pos is None
                else f"result coefficients of about {bits} bits at position {pos}")
        raise ExponentError(f"{what} exceed the {limit}-digit limit of int printing")


def check_inputs(inputs: list[Observable]) -> None:
    """Refuse a command's inputs, as ``_check_size`` does, before it runs."""
    _check_size(sum(map(_degree, inputs)), sum(map(_bits, inputs)), None)


def _int(tok: _Token) -> int:
    """An int token's value, refused before ``int()`` if it is too long to read."""
    if len(tok.text) > (limit := _digit_limit()) > 0:
        raise ExponentError(f"integer of {len(tok.text)} digits at position {tok.pos}"
                            f" exceeds the {limit}-digit limit of int parsing")
    return int(tok.text)


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
        # More digits than the cap: refused unread, the number never printed.
        if (digits := len(tok.text.lstrip("0"))) > len(str(EXPONENT_CAP)):
            raise ExponentError(f"exponent of {digits} digits at position {tok.pos}"
                                f" exceeds the cap of {EXPONENT_CAP}")
        exponent = _int(tok)
        if exponent > EXPONENT_CAP:
            raise ExponentError(
                f"exponent {exponent} at position {tok.pos}"
                f" exceeds the cap of {EXPONENT_CAP}")
        _check_size(_degree(base) * exponent, _bits(base) * exponent, tok.pos)
        return base ** exponent

    def base(self) -> Observable:
        tok = self.take()
        if tok.kind == "int":
            numerator = _int(tok)
            if self.peek().kind != "/":
                return from_scalar(numerator)
            self.take()
            den = self.peek()
            if den.kind != "int":
                raise SyntaxError(
                    f"expected integer denominator at position {den.pos}")
            self.take()
            if (denominator := _int(den)) == 0:
                raise SyntaxError(f"zero denominator at position {den.pos}")
            return from_scalar(_gr(numerator, 0, denominator))
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
    # Graded-lex descending on (n_x, n_k, n_q, n_p); hbar degrees ascending inside
    # each monomial.  (a + b*i)/d is read as (a, d) and (b, d) in lowest terms.
    for mono in sorted(a.terms, key=lambda m: (sum(m), m), reverse=True):
        series = []
        for degree, c in sorted(a.terms[mono].terms.items()):
            g, h = gcd(c._a, c._d), gcd(c._b, c._d)
            series.append((degree, (c._a // g, c._d // g), (c._b // h, c._d // h)))
        yield mono, series


def _atom(n: int, d: int, imaginary: bool, hbar_degree: int, mono: Monomial) -> str:
    """The term of n/d (lowest terms, d > 0) as " + factors" or " - factors"."""
    factors: list[str] = []
    magnitude = abs(n)
    bare = not imaginary and hbar_degree == 0 and sum(mono) == 0
    if magnitude != 1 or d != 1 or bare:
        factors.append(str(magnitude) if d == 1 else f"({magnitude}/{d})")
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
    return f" {'-' if n < 0 else '+'} {'*'.join(factors)}"


def format_observable(a: Observable) -> str:
    """Deterministic canonical text; the zero observable prints as "0"."""
    atoms: list[str] = []
    try:
        for mono, series in _display_terms(a):
            for degree, (n, d), (m, e) in series:
                if n:
                    atoms.append(_atom(n, d, False, degree, mono))
                if m:
                    atoms.append(_atom(m, e, True, degree, mono))
    except ValueError:  # str() of an int past the digit limit
        raise ValueError(f"output coefficients of about {_bits(a)} bits exceed the"
                         f" {_digit_limit()}-digit limit of int printing") from None
    # The first term drops its " + " and prints " - " as "-".
    text = "".join(atoms)
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


# --- JSON records -----------------------------------------------------------

@dataclass(frozen=True)
class OutputRecord:
    """The schema-1 JSON record of one observable.

    ``as_dict`` writes it and ``from_dict`` reads it back.  Its "terms" list
    each monomial's "exp", the four exponents, and "coeff", the hbar terms
    with exact rational real and imaginary parts.  Its "canonical_text" is
    derived from those terms, so the reader requires a string there and keeps
    the text of the terms it read.
    """

    observable: Observable

    SCHEMA = 1

    def __post_init__(self) -> None:
        if not isinstance(self.observable, Observable):
            raise TypeError(f"an OutputRecord holds an Observable, not {self.observable!r}")

    @property
    def canonical_text(self) -> str:
        return format_observable(self.observable)

    @classmethod
    def from_observable(cls, a: Observable) -> "OutputRecord":
        return cls(a)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OutputRecord":
        try:  # a payload of any other shape is a ValueError too
            if type(schema := payload.get("schema")) is not int or schema != cls.SCHEMA:
                raise ValueError(f"unsupported schema {schema!r}")
            if type(text := payload["canonical_text"]) is not str:
                raise ValueError(f"canonical_text is a string, not {text!r}")
            # A dict keeps the last of two entries on one key: refuse them instead.
            terms: dict[Monomial, HbarSeries] = {}
            for term in payload["terms"]:
                exp, coeff = Observable._key(term["exp"]), {}
                for c in term["coeff"]:
                    degree, re, im = HbarSeries._key(c["hbar"]), c["re"], c["im"]
                    (a, b), (e, d) = re, im  # a part of another length is a ValueError here
                    if not (type(a) is type(b) is type(e) is type(d) is int and b and d):
                        raise ValueError(
                            f"a part is two ints over a nonzero denominator, not {re!r}, {im!r}")
                    if degree in coeff:
                        raise ValueError(f"repeated hbar degree {degree!r} in the term {exp}")
                    if (b < 0) != (d < 0):  # a/b + (e/d)*i = (a*d + e*b*i)/(b*d)
                        a, b = -a, -b
                    coeff[degree] = _gr(a * d, e * b, b * d)
                if exp in terms:
                    raise ValueError(f"repeated exponents {exp} in the record")
                terms[exp] = HbarSeries(coeff)
            return cls(Observable(terms))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed record: {exc!r}") from None

    def as_dict(self) -> dict:
        terms = [{"exp": mono, "coeff": [{"hbar": degree, "re": re, "im": im}
                                         for degree, re, im in series]}
                 for mono, series in _display_terms(self.observable)]
        return {"schema": self.SCHEMA, "canonical_text": self.canonical_text, "terms": terms}

    def to_observable(self) -> Observable:
        return self.observable
