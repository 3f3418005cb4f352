"""Exact algebra of mixed quantum-classical observables.

Observables are polynomials in two commuting classical variables ``x``, ``k``
and two quantum operators ``q``, ``p`` obeying ``[q, p] = i*hbar``.  Every
element is kept in a canonical normal-ordered form: each term is the word
``x^a k^b q^r p^t`` (all q's to the left of all p's) with an exact
coefficient that is a polynomial in the formal symbol ``hbar`` over the
Gaussian rationals.  All arithmetic is exact; there is no floating point
anywhere and equality of observables is bit-equality of their term maps.

Values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Mapping, NamedTuple, Union


class NotDivisibleError(ArithmeticError):
    """Division by i*hbar hit a term with an hbar-free coefficient."""


RationalLike = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    ``Fraction`` keeps both parts in lowest terms with a positive
    denominator, so equality is plain value equality.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def divided_by_i(self) -> "GaussianRational":
        # (a + b*i)/i = b - a*i
        return GaussianRational(self.im, -self.re)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_GR_ZERO = GaussianRational()
_GR_I = GaussianRational(0, 1)

# Powers of (-i), indexed by exponent mod 4.
_NEG_I_POW = (
    GaussianRational(1),
    GaussianRational(0, -1),
    GaussianRational(-1),
    GaussianRational(0, 1),
)

ScalarLike = Union["HbarSeries", GaussianRational, int, Fraction]


def _as_gaussian(value: ScalarLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


class HbarSeries:
    """A polynomial in the formal symbol hbar with Gaussian-rational coefficients.

    ``terms`` maps hbar-degree to a nonzero coefficient; the zero polynomial
    is the empty map.  hbar is a formal symbol, never a number, which is what
    lets residuals like ``hbar^2/2`` be represented verbatim.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, GaussianRational] | ScalarLike = ()) -> None:
        if isinstance(terms, (GaussianRational, int, Fraction)):
            coeff = _as_gaussian(terms)
            store = {0: coeff} if coeff else {}
        else:
            store = {}
            for degree, coeff in dict(terms).items():
                if degree < 0:
                    raise ValueError(f"negative hbar degree {degree}")
                if coeff:
                    store[int(degree)] = coeff
        object.__setattr__(self, "terms", store)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HbarSeries is immutable")

    def __reduce__(self):
        return (HbarSeries, (self.terms,))

    @classmethod
    def hbar(cls, degree: int = 1, coeff: ScalarLike = 1) -> "HbarSeries":
        return cls({degree: _as_gaussian(coeff)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "HbarSeries") -> "HbarSeries":
        merged = dict(self.terms)
        for degree, coeff in other.terms.items():
            merged[degree] = merged.get(degree, _GR_ZERO) + coeff
        return HbarSeries(merged)

    def __sub__(self, other: "HbarSeries") -> "HbarSeries":
        return self + (-other)

    def __neg__(self) -> "HbarSeries":
        return HbarSeries({d: -c for d, c in self.terms.items()})

    def __mul__(self, other: "HbarSeries | GaussianRational | RationalLike") -> "HbarSeries":
        if isinstance(other, (GaussianRational, int, Fraction)):
            g = _as_gaussian(other)
            return HbarSeries({d: c * g for d, c in self.terms.items()})
        out: dict[int, GaussianRational] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = d1 + d2
                out[d] = out.get(d, _GR_ZERO) + c1 * c2
        return HbarSeries(out)

    __rmul__ = __mul__

    def min_degree(self) -> int | None:
        """Lowest hbar-degree present, or None for the zero polynomial."""
        return min(self.terms) if self.terms else None

    def constant_part(self) -> "HbarSeries":
        """The hbar-degree-0 part (the hbar -> 0 limit of the coefficient)."""
        if 0 in self.terms:
            return HbarSeries({0: self.terms[0]})
        return _SERIES_ZERO

    def divided_by_i_hbar(self) -> "HbarSeries":
        """Exact division by i*hbar; every degree must be >= 1."""
        if 0 in self.terms:
            raise NotDivisibleError("coefficient has an hbar-free part")
        return HbarSeries({d - 1: c.divided_by_i() for d, c in self.terms.items()})

    def __repr__(self) -> str:
        inside = ", ".join(f"{d}: {c!r}" for d, c in sorted(self.terms.items()))
        return f"HbarSeries({{{inside}}})"


_SERIES_ZERO = HbarSeries()
_SERIES_ONE = HbarSeries(1)


def _as_series(value: ScalarLike) -> HbarSeries:
    if isinstance(value, HbarSeries):
        return value
    return HbarSeries(value)


class QCMonomial(NamedTuple):
    """Exponent vector of the normal-ordered word x^n_x k^n_k q^n_q p^n_p."""

    n_x: int = 0
    n_k: int = 0
    n_q: int = 0
    n_p: int = 0

    @property
    def degree(self) -> int:
        return self.n_x + self.n_k + self.n_q + self.n_p

    @property
    def is_classical(self) -> bool:
        return self.n_q == 0 and self.n_p == 0

    @property
    def is_quantum(self) -> bool:
        return self.n_x == 0 and self.n_k == 0


_UNIT_MONOMIAL = QCMonomial()


class Observable:
    """A finite sum of normal-ordered monomials with HbarSeries coefficients.

    The representation is canonical: no stored coefficient is zero, and two
    observables are equal exactly when their term maps are equal.  The empty
    map is the unique zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[QCMonomial, HbarSeries] = ()) -> None:
        store: dict[QCMonomial, HbarSeries] = {}
        for monomial, series in dict(terms).items():
            if not isinstance(monomial, QCMonomial):
                monomial = QCMonomial(*monomial)
            if any(e < 0 for e in monomial):
                raise ValueError(f"negative exponent in {monomial}")
            if series:
                store[monomial] = series
        object.__setattr__(self, "terms", store)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Observable is immutable")

    def __reduce__(self):
        return (Observable, (self.terms,))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Observable):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Observable") -> "Observable":
        merged = dict(self.terms)
        for monomial, series in other.terms.items():
            merged[monomial] = merged.get(monomial, _SERIES_ZERO) + series
        return Observable(merged)

    def __sub__(self, other: "Observable") -> "Observable":
        return self + (-other)

    def __neg__(self) -> "Observable":
        return Observable({m: -s for m, s in self.terms.items()})

    def __mul__(self, other: "Observable | ScalarLike") -> "Observable":
        if isinstance(other, Observable):
            return _product(self, other)
        return scale(other, self)

    def __rmul__(self, other: ScalarLike) -> "Observable":
        # Scalars commute, so only Observable * Observable needs order care.
        return scale(other, self)

    def __pow__(self, exponent: int) -> "Observable":
        if exponent < 0:
            raise ValueError("negative operator powers are not defined")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def min_hbar_degree(self) -> int | None:
        """Smallest hbar-degree over all coefficients, or None if zero."""
        degrees = [s.min_degree() for s in self.terms.values()]
        return min(degrees) if degrees else None

    def is_hbar_free(self) -> bool:
        return all(set(s.terms) == {0} for s in self.terms.values())

    def is_classical(self) -> bool:
        """No quantum content: every monomial has n_q = n_p = 0."""
        return all(m.is_classical for m in self.terms)

    def is_quantum(self) -> bool:
        """No classical content: every monomial has n_x = n_k = 0."""
        return all(m.is_quantum for m in self.terms)

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{tuple(m)}: {s!r}" for m, s in sorted(self.terms.items())
        )
        return f"Observable({{{inside}}})"


ZERO = Observable()
ONE = Observable({_UNIT_MONOMIAL: _SERIES_ONE})

_GENERATORS: dict[str, Observable] = {
    "x": Observable({QCMonomial(1, 0, 0, 0): _SERIES_ONE}),
    "k": Observable({QCMonomial(0, 1, 0, 0): _SERIES_ONE}),
    "q": Observable({QCMonomial(0, 0, 1, 0): _SERIES_ONE}),
    "p": Observable({QCMonomial(0, 0, 0, 1): _SERIES_ONE}),
    "hbar": Observable({_UNIT_MONOMIAL: HbarSeries.hbar()}),
    "i": Observable({_UNIT_MONOMIAL: HbarSeries(_GR_I)}),
    "one": ONE,
}


def generator(name: str) -> Observable:
    """The canonical single-term observable for a symbol.

    ``x``, ``k`` are the classical pair, ``q``, ``p`` the quantum pair;
    ``hbar`` and ``i`` are central scalars and ``one`` is the identity.
    """
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}") from None


def from_scalar(value: ScalarLike) -> Observable:
    """The scalar multiple of the identity, e.g. from_scalar(Fraction(1, 2))."""
    return Observable({_UNIT_MONOMIAL: _as_series(value)})


def scale(coeff: ScalarLike, a: Observable) -> Observable:
    """Multiply every coefficient by a central scalar."""
    series = _as_series(coeff)
    if not series:
        return ZERO
    return Observable({m: series * s for m, s in a.terms.items()})


@lru_cache(maxsize=None)
def reorder(t: int, r: int) -> Observable:
    """Normal-ordered expansion of the word p^t q^r.

    Iterating the adjacent swap p q -> q p - i*hbar closes to

        p^t q^r = sum_j j! C(t,j) C(r,j) (-i*hbar)^j q^(r-j) p^(t-j),

    which is what this returns.  The test suite checks it against the literal
    swap rewriting for all t, r <= 6.
    """
    if t < 0 or r < 0:
        raise ValueError("exponents must be nonnegative")
    terms: dict[QCMonomial, HbarSeries] = {}
    for j in range(min(t, r) + 1):
        count = factorial(j) * comb(t, j) * comb(r, j)
        coeff = _NEG_I_POW[j % 4] * count
        terms[QCMonomial(0, 0, r - j, t - j)] = HbarSeries({j: coeff})
    return Observable(terms)


def _product(a: Observable, b: Observable) -> Observable:
    acc: dict[QCMonomial, HbarSeries] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c12 = c1 * c2
            # x, k commute freely; the only work is the inner word p^t q^r.
            for mid, w in reorder(m1.n_p, m2.n_q).terms.items():
                mono = QCMonomial(
                    m1.n_x + m2.n_x,
                    m1.n_k + m2.n_k,
                    m1.n_q + mid.n_q,
                    mid.n_p + m2.n_p,
                )
                prev = acc.get(mono)
                acc[mono] = c12 * w if prev is None else prev + c12 * w
    return Observable(acc)


def _partial(a: Observable, axis: int) -> Observable:
    out: dict[QCMonomial, HbarSeries] = {}
    for m, c in a.terms.items():
        e = m[axis]
        if e == 0:
            continue
        lowered = QCMonomial(*(v - 1 if i == axis else v for i, v in enumerate(m)))
        term = c * e
        prev = out.get(lowered)
        out[lowered] = term if prev is None else prev + term
    return Observable(out)


def partial_x(a: Observable) -> Observable:
    """Formal derivative in x; quantum factors and hbar ride along."""
    return _partial(a, 0)


def partial_k(a: Observable) -> Observable:
    """Formal derivative in k; quantum factors and hbar ride along."""
    return _partial(a, 1)


def partial_q(a: Observable) -> Observable:
    """Formal derivative in the q exponent (symbol-level, used at hbar = 0)."""
    return _partial(a, 2)


def partial_p(a: Observable) -> Observable:
    """Formal derivative in the p exponent (symbol-level, used at hbar = 0)."""
    return _partial(a, 3)


def divide_by_i_hbar(a: Observable) -> Observable:
    """Exact division of every coefficient by i*hbar.

    Raises NotDivisibleError if any term has an hbar-free coefficient.  For
    commutators of polynomial observables this never happens: the hbar-free
    parts of AB and BA coincide, so they cancel in the difference.
    """
    try:
        return Observable({m: c.divided_by_i_hbar() for m, c in a.terms.items()})
    except NotDivisibleError as exc:
        raise NotDivisibleError(f"observable is not divisible by i*hbar: {exc}") from None


def hbar_zero(a: Observable) -> Observable:
    """Keep only the hbar-degree-0 part of every coefficient."""
    return Observable({m: c.constant_part() for m, c in a.terms.items()})


def _symbol_mul(a: Observable, b: Observable) -> Observable:
    # Commutative product: exponents add, no reordering corrections.
    acc: dict[QCMonomial, HbarSeries] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = QCMonomial(*(e1 + e2 for e1, e2 in zip(m1, m2)))
            term = c1 * c2
            prev = acc.get(mono)
            acc[mono] = term if prev is None else prev + term
    return Observable(acc)


def symbol_poisson(a: Observable, b: Observable) -> Observable:
    """Full two-degree-of-freedom Poisson bracket on commuting symbols.

    dA/dx dB/dk - dA/dk dB/dx + dA/dq dB/dp - dA/dp dB/dq, with all products
    commutative.  This is the classical-limit oracle; both inputs must be
    hbar-free (apply hbar_zero first).
    """
    if not a.is_hbar_free() or not b.is_hbar_free():
        raise ValueError("symbol_poisson requires hbar-free inputs")
    return (
        _symbol_mul(partial_x(a), partial_k(b))
        - _symbol_mul(partial_k(a), partial_x(b))
        + _symbol_mul(partial_q(a), partial_p(b))
        - _symbol_mul(partial_p(a), partial_q(b))
    )


def monomial_observable(monomial: QCMonomial) -> Observable:
    """The coefficient-1 observable for a single exponent vector."""
    return Observable({monomial: _SERIES_ONE})
