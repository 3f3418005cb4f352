"""Shared test helpers: independent oracles and builders.

The swap oracle rewrites words over {q, p} one adjacent pair at a time,
knowing nothing about the closed-form expansion the package uses.  Tests
compare the two so a bug in the combinatorics cannot hide behind itself.
``FractionGaussian`` is the coefficient type the package replaced,
kept as the reference for its integer-triple successor.  The bracket
oracles are the two-product commutator and the partials-and-products
classical parts the package's term-pair kernels replaced; ``jacobi`` sums
their nested brackets with no shortcut for a repeated argument.  The
standard-ordered star product is an independent reference for operator
products.  The coefficient oracles are the general double-loop series
product and the ``a + (-b)`` subtraction that the package's single-term and
one-merge paths replaced, and per-term loops for ``hbar_zero``,
``min_hbar_degree`` and ``divide_by_i_hbar``.  ``assert_canonical`` checks
the canonical form every result must have.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Union

from qcbracket import (
    GaussianRational,
    HbarSeries,
    NotDivisibleError,
    Observable,
    divide_by_i_hbar,
)

MINUS_I_HBAR = HbarSeries({1: GaussianRational(0, -1)})

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


def swap_normal_form(t: int, r: int) -> Observable:
    """Normal-order the word p^t q^r by literal rewrites pq -> qp - i*hbar."""
    pending = {("p",) * t + ("q",) * r: HbarSeries(1)}
    finished: dict[tuple, HbarSeries] = {}
    while pending:
        successors: dict[tuple, HbarSeries] = {}
        for word, coeff in pending.items():
            spot = _first_inversion(word)
            if spot is None:
                _accumulate(finished, word, coeff)
                continue
            swapped = word[:spot] + ("q", "p") + word[spot + 2:]
            dropped = word[:spot] + word[spot + 2:]
            _accumulate(successors, swapped, coeff)
            _accumulate(successors, dropped, coeff * MINUS_I_HBAR)
        pending = {w: c for w, c in successors.items() if c}
    collected: dict[tuple, HbarSeries] = {}
    for word, coeff in finished.items():
        n_q = word.count("q")
        assert word == ("q",) * n_q + ("p",) * (len(word) - n_q)
        _accumulate(collected, (0, 0, n_q, len(word) - n_q), coeff)
    return Observable({m: c for m, c in collected.items() if c})


def _first_inversion(word):
    for i in range(len(word) - 1):
        if word[i] == "p" and word[i + 1] == "q":
            return i
    return None


def _accumulate(table, key, value):
    table[key] = table.get(key, HbarSeries(0)) + value


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


# --- brackets by partials and products -----------------------------------------

def quantum_bracket(a: Observable, b: Observable) -> Observable:
    """(AB - BA)/(i*hbar), from both full operator products."""
    return divide_by_i_hbar(a * b - b * a)


def ordered_poisson(a: Observable, b: Observable) -> Observable:
    """dA/dx * dB/dk - dA/dk * dB/dx, operator products in written order."""
    return derivative(a, 0) * derivative(b, 1) - derivative(a, 1) * derivative(b, 0)


def aleksandrov_bracket(a: Observable, b: Observable) -> Observable:
    """[A,B]/(i*hbar) + ({A,B} - {B,A})/2."""
    sym = ordered_poisson(a, b) - ordered_poisson(b, a)
    return quantum_bracket(a, b) + Fraction(1, 2) * sym


def normal_bracket_classical(a: Observable, b: Observable) -> Observable:
    """dA/dx dB/dk - dA/dk dB/dx with the q,p words concatenated unreordered.

    Concatenating q^r1 p^t1 and q^r2 p^t2 with no reordering is the
    commutative symbol product, so this is a Poisson bracket on symbols.
    """
    return (symbol_product(derivative(a, 0), derivative(b, 1))
            - symbol_product(derivative(a, 1), derivative(b, 0)))


def normal_bracket(a: Observable, b: Observable) -> Observable:
    return quantum_bracket(a, b) + normal_bracket_classical(a, b)


def jacobi(bracket, a: Observable, b: Observable, c: Observable) -> Observable:
    """((A,B),C) + ((B,C),A) + ((C,A),B), computed whatever the arguments."""
    return bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)


# --- the standard-ordered star product ----------------------------------------

def derivative(a: Observable, axis: int, times: int = 1) -> Observable:
    """The ``times``-th derivative along exponent ``axis`` (x, k, q, p = 0..3)."""
    out: dict[tuple, HbarSeries] = {}
    for m, c in a.terms.items():
        e = m[axis]
        if e < times:
            continue
        lowered = list(m)
        lowered[axis] = e - times
        _accumulate(out, tuple(lowered),
                    c * (factorial(e) // factorial(e - times)))
    return Observable({m: c for m, c in out.items() if c})


def symbol_product(a: Observable, b: Observable) -> Observable:
    """Commutative product of symbols: exponents add, no reordering."""
    out: dict[tuple, HbarSeries] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            _accumulate(out, tuple(e1 + e2 for e1, e2 in zip(m1, m2)),
                        c1 * c2)
    return Observable({m: c for m, c in out.items() if c})


def star_product(f: Observable, g: Observable) -> Observable:
    """f*g = sum_j (-i*hbar)^j/j! d_p^j f d_q^j g on normal-ordered symbols.

    The standard-ordered (q left of p) star product of Agarwal & Wolf
    (Phys. Rev. D 2, 2161, 1970); the sum stops where a derivative vanishes.
    """
    total = Observable()
    weight = HbarSeries(1)
    j = 0
    while True:
        df, dg = derivative(f, 3, j), derivative(g, 2, j)
        if not df or not dg:
            return total
        total = total + symbol_product(df, dg) * weight
        j += 1
        weight = weight * MINUS_I_HBAR * Fraction(1, j)


# --- coefficient paths and the canonical form ------------------------------------

def series_product(a: HbarSeries, b) -> HbarSeries:
    """The double loop over both term maps, for operands of any length.

    A scalar ``b`` is the constant series; the public constructor drops the
    degrees that cancel.
    """
    if not isinstance(b, HbarSeries):
        b = HbarSeries(b)
    out: dict[int, GaussianRational] = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            prev = out.get(d1 + d2)
            out[d1 + d2] = c1 * c2 if prev is None else prev + c1 * c2
    return HbarSeries(out)


def negation(a: Observable) -> Observable:
    """-a, every coefficient multiplied by the integer -1."""
    return Observable({m: HbarSeries({d: c * -1 for d, c in s.terms.items()})
                       for m, s in a.terms.items()})


def difference(a: Observable, b: Observable) -> Observable:
    """a + (-b), the subtraction the one-pass merge replaced."""
    return a + negation(b)


def divided_by_i_hbar(a: Observable) -> Observable:
    """Each coefficient c*hbar^d becomes (c/i)*hbar^(d-1); (re, im) -> (im, -re)."""
    if any(0 in s.terms for s in a.terms.values()):
        raise NotDivisibleError("an hbar-free coefficient")
    return Observable({
        m: HbarSeries({d - 1: GaussianRational(c.im, -c.re) for d, c in s.terms.items()})
        for m, s in a.terms.items()})


def hbar_zero(a: Observable) -> Observable:
    """The hbar-degree-0 entry of every coefficient, kept term by term."""
    out = {}
    for m, s in a.terms.items():
        for d, c in s.terms.items():
            if d == 0:
                out[m] = HbarSeries({0: c})
    return Observable(out)


def min_hbar_degree(a: Observable) -> "int | None":
    """The lowest hbar degree of any coefficient entry; None for zero."""
    lowest = None
    for s in a.terms.values():
        for d in s.terms:
            if lowest is None or d < lowest:
                lowest = d
    return lowest


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
