"""Shared test helpers: the coefficient oracle, converters and builders.

The oracle for everything the package computes is ``tests/reference.py``,
which imports nothing from ``qcbracket``.  ``to_reference`` reads a package
value into it through ``terms``, ``re`` and ``im`` alone, and
``from_reference`` builds one back through the public constructors, so no
oracle here calls a package operator.  ``FractionGaussian`` is the
coefficient type the package replaced, kept as the reference for its
integer-triple successor.  ``assert_canonical`` checks the canonical form
every result must have.  ``format_observable``, ``record_as_dict`` and
``record_from_dict`` are, unchanged, the ``Fraction``-based printer, JSON
writer and JSON reader that the package replaced with ones that read the
integer triple: the reference for their output, byte for byte, and for the
values they read.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Mapping, Union

from qcbracket import GaussianRational, HbarSeries, Observable

RationalLike = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class FractionGaussian:
    """The two-``Fraction`` Gaussian rational the package used to carry.

    A reference for the differential tests of ``qcbracket.GaussianRational``:
    ``Fraction`` keeps both parts in lowest terms with a positive
    denominator, so equality is plain value equality.  Its repr is the
    package's repr.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "FractionGaussian") -> "FractionGaussian":
        return FractionGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "FractionGaussian") -> "FractionGaussian":
        return FractionGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "FractionGaussian":
        return FractionGaussian(-self.re, -self.im)

    def __mul__(self, other: "FractionGaussian | RationalLike") -> "FractionGaussian":
        if isinstance(other, FractionGaussian):
            return FractionGaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return FractionGaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "FractionGaussian":
        return FractionGaussian(self.re / other, self.im / other)

    def divided_by_i(self) -> "FractionGaussian":
        # (a + b*i)/i = b - a*i
        return FractionGaussian(self.im, -self.re)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def build(spec: dict) -> Observable:
    """Observable from {(nx, nk, nq, np): {hbar_degree: (re, im)}}.

    Rational parts may be ints or (numerator, denominator) pairs.
    """
    return Observable({
        exponents: HbarSeries({
            degree: GaussianRational(_fraction(re), _fraction(im))
            for degree, (re, im) in series.items()})
        for exponents, series in spec.items()})


def _fraction(value) -> Fraction:
    if isinstance(value, tuple):
        return Fraction(*value)
    return Fraction(value)


def _part(value: Fraction) -> RationalLike:
    return value.numerator if value.denominator == 1 else value


def to_reference(value: "Observable | HbarSeries") -> dict:
    """The reference value of an observable, or of a series on the unit monomial.

    Checked canonical first: ``re`` and ``im`` would reduce an unreduced
    triple, and an empty series has no key.  Integral parts are read as ints.
    """
    assert_canonical(value)
    terms = {(0, 0, 0, 0): value} if type(value) is HbarSeries else value.terms
    return {m + (d,): (_part(c.re), _part(c.im))
            for m, series in terms.items() for d, c in series.terms.items()}


def from_reference(value: dict) -> Observable:
    """The observable of a reference value, built by the public constructors."""
    series: dict = {}
    for (*m, d), (re, im) in value.items():
        series.setdefault(tuple(m), {})[d] = GaussianRational(re, im)
    return Observable({m: HbarSeries(s) for m, s in series.items()})


def assert_canonical(value: "Observable | HbarSeries") -> None:
    """Fail unless ``value`` is in the one canonical form of its value.

    An observable holds no empty series, a series (empty for zero) holds no
    zero coefficient, and every coefficient is a reduced integer triple
    (a + b*i)/d with d > 0.  The triple is read from the private slots:
    ``re`` and ``im`` are ``Fraction``s, which would reduce it and hide a
    missing gcd.
    """
    if type(value) is HbarSeries:
        entries = [(None, value)]
    else:
        assert type(value) is Observable, type(value)
        entries = value.terms.items()
        for m, series in entries:
            assert type(m) is tuple and len(m) == 4 and min(m) >= 0, m
            assert type(series) is HbarSeries and series.terms, (m, series)
    for m, series in entries:
        for degree, c in series.terms.items():
            assert type(degree) is int and degree >= 0, (m, degree)
            assert type(c) is GaussianRational, (m, degree, c)
            num_re, num_im, den = c._a, c._b, c._d
            assert den > 0 and (num_re or num_im), (m, degree, num_re, num_im, den)
            assert gcd(num_re, num_im, den) == 1, (m, degree, num_re, num_im, den)


# --- the Fraction-based printer, JSON writer and JSON reader ------------------

def _display_terms(a: Observable):
    # Graded-lex descending on (n_x, n_k, n_q, n_p); hbar degrees ascending
    # inside each monomial.
    for mono in sorted(a.terms, key=lambda m: (sum(m), m), reverse=True):
        yield mono, sorted(a.terms[mono].terms.items())


def _atom(rational: Fraction, imaginary: bool, hbar_degree: int,
          mono: tuple) -> tuple[bool, str]:
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


def record_as_dict(a: Observable) -> dict:
    """The schema-1 JSON record of ``a``, as ``OutputRecord.as_dict`` wrote it."""
    terms = [{"exp": mono, "coeff": [
        {"hbar": degree, "re": (g.re.numerator, g.re.denominator),
         "im": (g.im.numerator, g.im.denominator)} for degree, g in series]}
        for mono, series in _display_terms(a)]
    return {"schema": 1, "canonical_text": format_observable(a), "terms": terms}


def record_from_dict(payload: Mapping[str, Any]) -> Observable:
    """The observable of a schema-1 record, as ``OutputRecord.from_dict`` read it."""
    try:  # a payload of any other shape is a ValueError too
        if type(schema := payload.get("schema")) is not int or schema != 1:
            raise ValueError(f"unsupported schema {schema!r}")
        if type(text := payload["canonical_text"]) is not str:
            raise ValueError(f"canonical_text is a string, not {text!r}")
        # A dict keeps the last of two entries on one key: refuse them instead.
        terms: dict = {}
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
                coeff[degree] = GaussianRational(Fraction(a, b), Fraction(e, d))
            if exp in terms:
                raise ValueError(f"repeated exponents {exp} in the record")
            terms[exp] = HbarSeries(coeff)
        return Observable(terms)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed record: {exc!r}") from None
