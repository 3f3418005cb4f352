"""Shared test helpers: the coefficient oracle, converters and builders.

The oracle for everything the package computes is ``tests/reference.py``,
which imports nothing from ``qcbracket``.  ``to_reference`` reads a package
value into it through ``terms``, ``re`` and ``im`` alone, and
``from_reference`` builds one back through the public constructors, so no
oracle here calls a package operator.  ``FractionGaussian`` is the
coefficient type the package replaced, kept as the reference for its
integer-triple successor.  ``assert_canonical`` checks the canonical form
every result must have.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

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

    def __truediv__(self, other: "FractionGaussian | RationalLike") -> "FractionGaussian":
        if isinstance(other, (int, Fraction)):
            return FractionGaussian(self.re / other, self.im / other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * FractionGaussian(other.re / norm, -other.im / norm)

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
