"""Shared test helpers: independent oracles and builders.

The swap oracle rewrites words over {q, p} one adjacent pair at a time,
knowing nothing about the closed-form expansion the package uses.  Tests
compare the two so a bug in the combinatorics cannot hide behind itself.
``FractionGaussian`` is the coefficient type the package replaced,
kept as the reference for its integer-triple successor.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from qcbracket import GaussianRational, HbarSeries, Observable, QCMonomial

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
    collected: dict[QCMonomial, HbarSeries] = {}
    for word, coeff in finished.items():
        n_q = word.count("q")
        assert word == ("q",) * n_q + ("p",) * (len(word) - n_q)
        _accumulate(collected, QCMonomial(0, 0, n_q, len(word) - n_q), coeff)
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
        QCMonomial(*exponents): HbarSeries({
            degree: GaussianRational(_fraction(re), _fraction(im))
            for degree, (re, im) in series.items()})
        for exponents, series in spec.items()})


def _fraction(value) -> Fraction:
    if isinstance(value, tuple):
        return Fraction(*value)
    return Fraction(value)
