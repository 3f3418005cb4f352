"""Exact algebra of mixed quantum-classical observables.

Observables are polynomials in two commuting classical variables ``x``, ``k``
and two quantum operators ``q``, ``p`` obeying ``[q, p] = i*hbar``.  Every
element is kept in a canonical normal-ordered form: each term is the word
``x^n_x k^n_k q^n_q p^n_p`` (all q's to the left of all p's), keyed by the
plain tuple ``(n_x, n_k, n_q, n_p)``, with an exact coefficient that is a
polynomial in the formal symbol ``hbar`` over the Gaussian rationals.  All
arithmetic is exact; there is no floating point anywhere and equality of
observables is bit-equality of their term maps.

Products and brackets differ only in how the q,p words of two terms are
joined.  Each join rule is one word table (``_reordered``, ``_symmetrized``,
``_commuted``, ``_concatenated``), read by the one term-pair kernel
``_product``, which multiplies the x,k factors of two terms or, for the
classical part of a bracket, Poisson-brackets them.

Values are immutable: no attribute of a ``GaussianRational``, ``HbarSeries``
or ``Observable`` can be set or deleted (``_Frozen``).  ``HbarSeries`` and
``Observable`` are one immutable term map (``_TermMap``) whose public
constructor checks every key and coerces every value, so each value has one
canonical form; results built in this package go through the trusted
``_make``.  Both merge through the one ``+``, which drops a key where its
values cancel, and ``a - b`` is ``a + -b``.  ``GaussianRational`` divides
only by an int or a ``Fraction``.  Every operation is a pure function of its
inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from types import MappingProxyType
from typing import Union


class NotDivisibleError(ArithmeticError):
    """Division by i*hbar hit a term with an hbar-free coefficient."""


RationalLike = Union[int, Fraction]


class _Frozen:
    """Base of the value types: no attribute can be set or deleted."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class GaussianRational(_Frozen):
    """A complex number with exact rational real and imaginary parts.

    The value (a + b*i)/d is stored as three ints with d > 0 and
    gcd(a, b, d) == 1, so each value has exactly one representation and
    equality is plain field equality.  ``re`` and ``im`` read the parts back
    as ``Fraction``s in lowest terms.  Arithmetic on two values is a few int
    products and one gcd; division takes an int or ``Fraction`` divisor only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"parts must be ints or Fractions, not {re!r} and {im!r}")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _gr(re.numerator * (d // re.denominator),
                   im.numerator * (d // im.denominator), d)

    def __reduce__(self):
        return (_gr, (self._a, self._b, self._d))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # Over d == 1 the gcd is 1, so results skip the reduction.
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return (_make_gr if d1 == 1 else _gr)(self._a + other._a, self._b + other._b, d1)
        return _gr(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "GaussianRational":
        return _make_gr(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        if isinstance(other, GaussianRational):
            a1, b1, a2, b2 = self._a, self._b, other._a, other._b
            d = self._d * other._d
            return (_make_gr if d == 1 else _gr)(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _gr(self._a * n, self._b * n, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "GaussianRational":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, m = other.numerator, other.denominator
        if not n:
            raise ZeroDivisionError("division by zero")
        if n < 0:
            n, m = -n, -m
        return _gr(self._a * m, self._b * m, self._d * n)

    def divided_by_i(self) -> "GaussianRational":
        # (a + b*i)/i = b - a*i
        return _make_gr(self._b, -self._a, self._d)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make_gr(a: int, b: int, d: int) -> GaussianRational:
    """Trusted constructor of (a + b*i)/d from ints with d > 0 and gcd(a, b, d) == 1."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """Trusted constructor of (a + b*i)/d from ints with d > 0; reduces by the gcd."""
    g = gcd(a, b, d)
    return _make_gr(a // g, b // g, d // g) if g != 1 else _make_gr(a, b, d)


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


class _TermMap(_Frozen):
    """An immutable sparse map ``terms`` from keys to nonzero values.

    The public constructor is ``__new__``, so no ``__init__`` can rebind a
    live value.  It takes a mapping or a bare ``_scalars`` value (TypeError on
    anything else), checks every key with ``_key`` (ValueError on a bad one),
    coerces every value with ``_coerce`` (TypeError on a value it cannot take)
    and drops zero values, so each value has one canonical form and equality
    is equality of the maps.  ``_make`` is the package's trusted constructor.
    """

    __slots__ = ("terms",)
    # Types of a bare argument that stands for the map {0: argument}.
    _scalars: tuple[type, ...] = ()
    _zero: "_TermMap"  # the class's shared empty map, set once it exists

    def __new__(cls, terms: Mapping | ScalarLike = MappingProxyType({})):
        if isinstance(terms, cls._scalars):
            terms = {0: terms}
        elif not isinstance(terms, Mapping):
            raise TypeError(f"{cls.__name__} takes a mapping or a scalar, not {terms!r}")
        store = {}
        for key, value in terms.items():
            key = cls._key(key)
            value = cls._coerce(value)
            if value:
                store[key] = value
        return _make(cls, store)

    def __reduce__(self):
        return (type(self), (self.terms,))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return _make(type(self), {k: -v for k, v in self.terms.items()})

    # The one merge of both maps.  A key is deleted where its values cancel,
    # so no filter pass follows, and an empty sum is the class's shared zero.
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        merged = dict(self.terms)
        for key, value in other.terms.items():
            if (prev := merged.get(key)) is None:
                merged[key] = value
            elif value := prev + value:
                merged[key] = value
            else:
                del merged[key]
        return _make(type(self), merged) if merged else self._zero

    # The one subtraction of both maps.
    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}: {v!r}" for k, v in sorted(self.terms.items()))
        return f"{type(self).__name__}({{{inside}}})"


_set_terms = _TermMap.terms.__set__


def _make(cls: type, terms: dict):
    """Trusted constructor for a map built in this package with no zero value."""
    t = _new(cls)
    _set_terms(t, terms)
    return t


class HbarSeries(_TermMap):
    """A polynomial in the formal symbol hbar with Gaussian-rational coefficients.

    ``terms`` maps hbar-degree, an int >= 0, to a nonzero coefficient; the
    zero polynomial is the empty map.  The constructor takes such a map, whose
    values may be ints or Fractions, or a bare coefficient for the constant
    series.  hbar is a formal symbol, never a number, which is what lets
    residuals like ``hbar^2/2`` be represented verbatim.
    """

    __slots__ = ()
    _scalars = (GaussianRational, int, Fraction)
    _coerce = staticmethod(_as_gaussian)

    @staticmethod
    def _key(degree: int) -> int:
        if type(degree) is not int or degree < 0:
            raise ValueError(f"hbar degree {degree!r} is not a nonnegative int")
        return degree

    def __mul__(self, other: "HbarSeries | GaussianRational | RationalLike") -> "HbarSeries":
        # No product of nonzero Gaussian rationals is zero: every scaled term stays.
        if not isinstance(other, HbarSeries):
            if isinstance(other, (GaussianRational, int, Fraction)):
                if not other:
                    return _SERIES_ZERO
                return _make(HbarSeries, {d: c * other for d, c in self.terms.items()})
            # An Observable operand: its __rmul__ scales by this series.
            return NotImplemented
        # Scanned monomials carry the unit series, so most scan products have it.
        if self is _SERIES_ONE or other is _SERIES_ONE:
            return other if self is _SERIES_ONE else self
        # The sum, through the merge, of self shifted and scaled by each term of other.
        out = _SERIES_ZERO
        for d2, c2 in other.terms.items():
            out = out + _make(HbarSeries, {d1 + d2: c1 * c2 for d1, c1 in self.terms.items()})
        return out

    __rmul__ = __mul__


# Kept for old pickles, which rebuild every series through it.
_series = HbarSeries
_SERIES_ZERO = HbarSeries._zero = HbarSeries()
_SERIES_ONE = HbarSeries(1)
_SCALARS = (HbarSeries, GaussianRational, int, Fraction)


def _as_series(value: ScalarLike) -> HbarSeries:
    if isinstance(value, HbarSeries):
        return value
    return HbarSeries({0: value})


# (n_x, n_k, n_q, n_p), the exponents of the word x^n_x k^n_k q^n_q p^n_p; its
# degree is sum(m), it is classical when not (m[2] or m[3]) and quantum when
# not (m[0] or m[1]).
Monomial = tuple[int, int, int, int]

_UNIT_MONOMIAL = (0, 0, 0, 0)


class Observable(_TermMap):
    """A finite sum of normal-ordered monomials with HbarSeries coefficients.

    ``terms`` maps each monomial, the plain tuple ``(n_x, n_k, n_q, n_p)`` of
    int exponents >= 0, to its coefficient; the constructor also takes scalar
    coefficients.  The representation is canonical: no stored coefficient
    is zero, and two observables are equal exactly when their term maps are
    equal.  The empty map is the unique zero.
    """

    __slots__ = ()
    _coerce = staticmethod(_as_series)

    @staticmethod
    def _key(monomial: Monomial) -> Monomial:
        # A key that is not iterable, such as 5 or None, is no exponent tuple.
        key = tuple(monomial) if isinstance(monomial, Iterable) else ()
        if len(key) != 4 or any(type(e) is not int or e < 0 for e in key):
            raise ValueError(f"monomial {key or monomial!r} is not four nonnegative int exponents")
        return key

    # Observable's own entry for the one merge, which perfbench wraps alone.
    __add__ = _TermMap.__add__

    def __mul__(self, other: "Observable | ScalarLike") -> "Observable":
        if isinstance(other, Observable):
            return _product(self, other)
        if isinstance(other, _SCALARS):
            return scale(other, self)
        return NotImplemented

    def __rmul__(self, other: ScalarLike) -> "Observable":
        # Scalars commute, so only Observable * Observable needs order care.
        if isinstance(other, _SCALARS):
            return scale(other, self)
        return NotImplemented

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
        return min((min(s.terms) for s in self.terms.values()), default=None)

    def is_classical(self) -> bool:
        """No quantum content: every monomial has n_q = n_p = 0."""
        return not any(m[2] or m[3] for m in self.terms)

    def is_quantum(self) -> bool:
        """No classical content: every monomial has n_x = n_k = 0."""
        return not any(m[0] or m[1] for m in self.terms)


def _observable(terms: dict[Monomial, HbarSeries]) -> Observable:
    """Trusted constructor for a dict built in this package; drops zeros, ZERO if all go."""
    kept = {m: s for m, s in terms.items() if s.terms}
    return _make(Observable, kept) if kept else ZERO


ZERO = Observable._zero = Observable()
ONE = Observable({_UNIT_MONOMIAL: _SERIES_ONE})

_GENERATORS: dict[str, Observable] = {
    "x": Observable({(1, 0, 0, 0): _SERIES_ONE}),
    "k": Observable({(0, 1, 0, 0): _SERIES_ONE}),
    "q": Observable({(0, 0, 1, 0): _SERIES_ONE}),
    "p": Observable({(0, 0, 0, 1): _SERIES_ONE}),
    "hbar": Observable({_UNIT_MONOMIAL: HbarSeries({1: 1})}),
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
    return _observable({_UNIT_MONOMIAL: _as_series(value)})


def scale(coeff: ScalarLike, a: Observable) -> Observable:
    """Multiply every coefficient by a central scalar."""
    series = _as_series(coeff)
    if not series:
        return ZERO
    # hbar-polynomials over a field have no zero divisors.
    return _make(Observable, {m: series * s for m, s in a.terms.items()})


def reorder(t: int, r: int) -> Observable:
    """Normal-ordered expansion of the word p^t q^r.

    Iterating the adjacent swap p q -> q p - i*hbar closes to

        p^t q^r = sum_j j! C(t,j) C(r,j) (-i*hbar)^j q^(r-j) p^(t-j),

    the standard-ordered star product of Agarwal & Wolf (Phys. Rev. D 2, 2161,
    1970).  The test suite checks it against literal swaps for all t, r <= 6.
    """
    if t < 0 or r < 0:
        raise ValueError("exponents must be nonnegative")
    return _make(Observable, {(0, 0, r - j, t - j): w for j, w in _reorder_terms(t, r)})


# Bounds every word table's cache; large powers flood those keyed on term pairs.
_WORD_CACHE_SIZE = 4096
_CONCATENATION = ((0, _SERIES_ONE),)


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _reorder_terms(t: int, r: int) -> tuple[tuple[int, HbarSeries], ...]:
    """The terms (j, j! C(t,j) C(r,j) (-i*hbar)^j) of p^t q^r, j ascending from 0."""
    return tuple(
        (j, _make(HbarSeries, {j: _NEG_I_POW[j % 4] * (factorial(j) * comb(t, j) * comb(r, j))}))
        for j in range(min(t, r) + 1))


def _reordered(t1: int, r1: int, t2: int, r2: int) -> tuple[tuple[int, HbarSeries], ...]:
    """Written order q^r1 (p^t1 q^r2) p^t2: only p^t1 q^r2 reorders, so the
    cache is keyed on (t1, r2) and stays small in large products."""
    return _reorder_terms(t1, r2)


def _concatenated(t1: int, r1: int, t2: int, r2: int) -> tuple[tuple[int, HbarSeries], ...]:
    """Plain concatenation q^(r1+r2) p^(t1+t2): the j = 0 term alone."""
    return _CONCATENATION


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _symmetrized(t1: int, r1: int, t2: int, r2: int) -> tuple[tuple[int, HbarSeries], ...]:
    """(W1*W2 + W2*W1)/2, the mean of both written orders; j = 0 averages to 1."""
    mean = dict(_reordered(t1, r1, t2, r2))
    for j, w in _reordered(t2, r2, t1, r1):
        mean[j] = mean[j] + w if j in mean else w
    return tuple((j, w * Fraction(1, 2)) for j, w in sorted(mean.items()))


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _commuted(t1: int, r1: int, t2: int, r2: int) -> tuple[tuple[int, HbarSeries], ...]:
    """W1*W2 - W2*W1: the j = 0 terms of both orders cancel, and only nonzero
    differences are kept, so the table has no j = 0 term."""
    diff = dict(_reordered(t1, r1, t2, r2))
    for j, w in _reordered(t2, r2, t1, r1):
        diff[j] = diff[j] - w if j in diff else -w
    return tuple((j, w) for j, w in sorted(diff.items()) if w)


def _qp_poisson(t1: int, r1: int, t2: int, r2: int) -> tuple[tuple[int, HbarSeries], ...]:
    """dW1/dq dW2/dp - dW1/dp dW2/dq on commuting q, p: one j = 1 term, or none."""
    weight = r1 * t2 - t1 * r2
    return ((1, HbarSeries({0: weight})),) if weight else ()


def _product(a: Observable, b: Observable, word=_reordered, poisson=False) -> Observable:
    """Sum over term pairs of c1*c2 times each term (j, w_j) of their word.

    For terms c1 x^n1 k^m1 q^r1 p^t1 and c2 x^n2 k^m2 q^r2 p^t2,
    ``word(t1, r1, t2, r2)`` lists every term (j, w_j) of the joined q,p word,
    j ascending; term j adds c1*c2*w_j on x^(n1+n2) k^(m1+m2) q^(r1+r2-j)
    p^(t1+t2-j).  With ``poisson`` the x,k factors are Poisson-bracketed
    instead: c1*c2 is scaled by n1*m2 - m1*n2, and x, k lose one power each.
    A j = 0 term has weight exactly 1 and adds the pair's coefficient as is;
    a pair with no word terms or no Poisson weight costs no coefficient work.
    """
    acc: dict[Monomial, HbarSeries] = {}
    for m1, c1 in a.terms.items():
        n1, k1, r1, t1 = m1
        if poisson and not (n1 or k1):
            continue
        x1, y1 = n1 - poisson, k1 - poisson  # the Poisson shift, out of the pair loop
        for m2, c2 in b.terms.items():
            n2, k2, r2, t2 = m2
            if poisson:
                weight = n1 * k2 - k1 * n2
                if not weight:
                    continue
            terms = word(t1, r1, t2, r2)
            if not terms:
                continue
            c12 = (c1 * c2) * weight if poisson else c1 * c2
            n_x, n_k, n_q, n_p = x1 + n2, y1 + k2, r1 + r2, t1 + t2
            for j, w in terms:
                mono = (n_x, n_k, n_q - j, n_p - j)
                term = c12 * w if j else c12
                if (prev := acc.get(mono)) is None:
                    acc[mono] = term
                elif term := prev + term:
                    acc[mono] = term
                else:
                    del acc[mono]  # cancelled here, so acc never holds a zero
    return _make(Observable, acc) if acc else ZERO


def divide_by_i_hbar(a: Observable) -> Observable:
    """Exact division of every coefficient by i*hbar.

    Raises NotDivisibleError if any term has an hbar-free coefficient.  For
    commutators of polynomial observables this never happens: the hbar-free
    parts of AB and BA coincide, so they cancel in the difference.
    """
    if not a.terms:
        return a
    if any(0 in c.terms for c in a.terms.values()):
        raise NotDivisibleError(
            "observable is not divisible by i*hbar: coefficient has an hbar-free part")
    return _make(Observable, {
        m: _make(HbarSeries, {d - 1: g.divided_by_i() for d, g in c.terms.items()})
        for m, c in a.terms.items()})


def hbar_zero(a: Observable) -> Observable:
    """Keep only the hbar-degree-0 part of every coefficient."""
    return _observable({m: _make(HbarSeries, {0: c.terms[0]})
                        for m, c in a.terms.items() if 0 in c.terms})


def symbol_poisson(a: Observable, b: Observable) -> Observable:
    """Full two-degree-of-freedom Poisson bracket on commuting symbols.

    dA/dx dB/dk - dA/dk dB/dx + dA/dq dB/dp - dA/dp dB/dq, with all products
    commutative.  This is the classical-limit oracle; both inputs must be
    hbar-free (apply hbar_zero first).
    """
    if hbar_zero(a) != a or hbar_zero(b) != b:
        raise ValueError("symbol_poisson requires hbar-free inputs")
    return _product(a, b, _concatenated, poisson=True) + _product(a, b, _qp_poisson)


def monomial_observable(monomial: Monomial) -> Observable:
    """The coefficient-1 observable for a single exponent vector."""
    return Observable({monomial: _SERIES_ONE})
