"""The coefficient fast paths against the reference, and the canonical form.

Every sum of term maps goes through the one merge, which drops a key where its
values cancel; a series product is such a sum of shifted, scaled copies, a
product with the unit series is the other factor, subtraction is addition of
the negation, and empty operands and empty results short-circuit to a shared
value.  Each of those paths is compared here with the reference algebra
(``tests/reference.py``, which shares no code with the package), on operands
built to be single-term, multi-term, empty or cancelling.  The invariant tests
then check that every result of the public operations, the brackets and the
residuals is in canonical form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcbracket import (
    ZERO,
    BracketKind,
    GaussianRational,
    HbarSeries,
    NotDivisibleError,
    Observable,
    bracket,
    divide_by_i_hbar,
    enumerate_monomials,
    generator,
    hbar_zero,
    jacobi_residual,
    leibniz_residual,
    quantum_bracket,
    scale,
)
from qcbracket.algebra import (_SERIES_ONE, _SERIES_ZERO, _commuted, _concatenated, _product,
                               _reordered, _symmetrized)
import reference
from oracles import assert_canonical, from_reference, to_reference

rationals = st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                         max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)
# Zero in every scalar type the operations accept.
scalars = st.one_of(st.integers(-4, 4), rationals, gaussians)


@st.composite
def series(draw, max_terms=3):
    """An hbar-series of 0 to ``max_terms`` terms; drawn zeros are dropped."""
    degrees = draw(st.lists(st.integers(0, 3), max_size=max_terms, unique=True))
    return HbarSeries({d: draw(gaussians) for d in degrees})


@st.composite
def series_pairs(draw):
    a = draw(series())
    if draw(st.booleans()):
        return a, draw(series())
    # a(hbar) * a(-hbar) is even in hbar: every odd-degree term cancels.
    return a, HbarSeries({d: -c if d % 2 else c for d, c in a.terms.items()})


@st.composite
def observables(draw, max_terms=3):
    """Degree <= 3 monomials of one sector; coefficients may be multi-term."""
    sector = draw(st.sampled_from(("all", "classical", "quantum")))
    pool = [m for m in enumerate_monomials(3)
            if sector == "all" or (not (m[2] or m[3]) if sector == "classical"
                                   else not (m[0] or m[1]))]
    monomials = draw(st.lists(st.sampled_from(pool), max_size=max_terms, unique=True))
    return Observable({m: draw(series()) for m in monomials})


@st.composite
def observable_pairs(draw):
    """(a, b) where b may repeat or negate some of a's terms, so a + b and
    a - b cancel them; either side may be zero."""
    a, b = draw(observables()), draw(observables())
    sign = draw(st.sampled_from((1, -1)))
    shared = {m: s * sign for m, s in a.terms.items() if draw(st.booleans())}
    return a, b + Observable(shared)


# --- fast paths against the general paths they replaced ----------------------------

@settings(deadline=None, max_examples=200)
@given(series_pairs())
def test_series_product_equals_the_reference(pair):
    a, b = pair
    product = a * b
    assert to_reference(product) == reference.symbol_product(to_reference(a), to_reference(b))
    assert_canonical(product)


@settings(deadline=None, max_examples=150)
@given(series(), scalars)
def test_series_times_a_scalar_equals_the_reference(a, s):
    expected = reference.symbol_product(to_reference(a), to_reference(HbarSeries(s)))
    assert to_reference(a * s) == expected
    assert to_reference(s * a) == expected
    assert_canonical(a * s)


def test_series_times_scalar_zero_is_zero():
    a = HbarSeries({0: GaussianRational(1, 2), 3: GaussianRational(Fraction(-1, 3))})
    for zero in (0, Fraction(0), GaussianRational(0)):
        assert a * zero == zero * a == HbarSeries()
        assert not (a * zero).terms


@settings(deadline=None, max_examples=100)
@given(observable_pairs())
def test_subtraction_and_negation_equal_the_oracles(pair):
    a, b = pair
    ra, rb = to_reference(a), to_reference(b)
    assert to_reference(a - b) == reference.sub(ra, rb)
    assert to_reference(b - a) == reference.sub(rb, ra)
    assert to_reference(-a) == reference.scale(ra, -1)
    assert a - a == ZERO
    # An empty side returns the other operand itself.
    assert a + ZERO is a and a - ZERO is a
    assert (ZERO + a) is (a if a else ZERO)
    assert ZERO - a == -a


@settings(deadline=None, max_examples=100)
@given(observables())
def test_divide_by_i_hbar_equals_the_oracle(a):
    hbar_a = reference.symbol_product(to_reference(a), {(0, 0, 0, 0, 1): (1, 0)})
    divisible = from_reference(hbar_a)
    assert to_reference(divide_by_i_hbar(divisible)) == reference.divided_by_i_hbar(hbar_a)
    if any(0 in s.terms for s in a.terms.values()):
        with pytest.raises(NotDivisibleError) as exc:
            divide_by_i_hbar(a)
        assert str(exc.value) == ("observable is not divisible by i*hbar: "
                                  "coefficient has an hbar-free part")
        with pytest.raises(ArithmeticError):
            reference.divided_by_i_hbar(to_reference(a))


@settings(deadline=None, max_examples=100)
@given(observable_pairs())
def test_hbar_zero_and_min_hbar_degree_equal_the_oracles(pair):
    a, b = pair
    for value in (a, a * b):
        terms = to_reference(value)
        expected = {key: c for key, c in terms.items() if key[4] == 0}
        assert to_reference(hbar_zero(value)) == expected
        if not expected:
            assert hbar_zero(value) is ZERO
        assert value.min_hbar_degree() == min((key[4] for key in terms), default=None)


@settings(deadline=None, max_examples=80)
@given(observable_pairs())
def test_product_kernel_equals_the_oracles(pair):
    a, b = pair
    ra, rb = to_reference(a), to_reference(b)
    ab, ba = reference.star(ra, rb), reference.star(rb, ra)
    assert to_reference(_product(a, b)) == ab
    assert to_reference(_product(a, b, _commuted)) == reference.sub(ab, ba)


def _assert_classical_parts_equal_the_reference(a, b):
    ra, rb = to_reference(a), to_reference(b)
    ab, ba = reference.poisson(ra, rb), reference.poisson(rb, ra)
    assert to_reference(_product(a, b, _reordered, poisson=True)) == ab
    assert to_reference(_product(a, b, _symmetrized, poisson=True)) == reference.divided(
        reference.sub(ab, ba), 2)
    assert to_reference(_product(a, b, _concatenated, poisson=True)) == (
        reference.normal_classical(ra, rb))
    return ab, ba


@st.composite
def weighted_pairs(draw):
    """(a, b) as observable_pairs draws them, except that a holds a term
    x^n q^r p^t and b a term k^m q^s p^u (n, m >= 1): that term pair has the
    nonzero Poisson weight n*m, so the classical parts have work to do."""
    pair = []
    for side, (x, k) in zip(draw(observable_pairs()), ((1, 0), (0, 1))):
        n = draw(st.integers(1, 3))
        r = draw(st.integers(0, 3 - n))
        t = draw(st.integers(0, 3 - n - r))
        term = {(n * x, n * k, r, t): draw(series().filter(bool))}
        pair.append(Observable({**side.terms, **term}))
    return tuple(pair)


@settings(deadline=None, max_examples=80)
@given(weighted_pairs())
def test_classical_part_equals_the_oracles(pair):
    _assert_classical_parts_equal_the_reference(*pair)


@st.composite
def unit_observables(draw):
    """Monomials whose coefficients are all the unit series, as a scan has them."""
    monomials = draw(st.lists(st.sampled_from(enumerate_monomials(3)), min_size=1,
                              max_size=3, unique=True))
    return Observable(dict.fromkeys(monomials, _SERIES_ONE))


@settings(deadline=None, max_examples=80)
@given(unit_observables(), st.one_of(observables(), unit_observables()), st.booleans())
def test_kernels_on_unit_coefficients_equal_the_oracles(u, f, unit_first):
    # Multiplying by the unit series returns the other factor itself.
    assert all(s is _SERIES_ONE for s in u.terms.values())
    one = to_reference(_SERIES_ONE)
    for s in f.terms.values():
        assert _SERIES_ONE * s is s is s * _SERIES_ONE
        assert to_reference(s) == reference.symbol_product(one, to_reference(s))
    a, b = (u, f) if unit_first else (f, u)
    ra, rb = to_reference(a), to_reference(b)
    ab, ba = reference.star(ra, rb), reference.star(rb, ra)
    assert to_reference(_product(a, b)) == ab
    assert to_reference(_product(a, b, _commuted)) == reference.sub(ab, ba)
    assert to_reference(_product(a, b, _symmetrized)) == reference.divided(
        reference.add(ab, ba), 2)
    assert to_reference(_product(a, b, _concatenated)) == reference.symbol_product(ra, rb)
    ab, ba = _assert_classical_parts_equal_the_reference(a, b)
    assert to_reference(_product(a, b, _commuted, poisson=True)) == reference.add(ab, ba)
    for result in (_product(a, b), _product(a, b, _reordered, poisson=True)):
        assert_canonical(result)


def test_empty_results_are_the_shared_zero():
    x, k, q, p = (generator(name) for name in "xkqp")
    assert divide_by_i_hbar(ZERO) is ZERO
    assert _product(ZERO, q) is ZERO
    assert _product(x * q, k * q, _commuted) is ZERO      # the words commute
    assert bracket(BracketKind.COMMUTATOR, x, k) is ZERO
    assert _product(q, p, _reordered, poisson=True) is ZERO  # no classical factor
    assert _product(x * q, x * p, _reordered, poisson=True) is ZERO  # zero weight
    # Sums that cancel term by term: in the merge, and in the kernel's accumulator,
    # where the pairs (q, p) and (p, q) cancel.
    assert (x * q + p) - (x * q + p) is ZERO
    assert quantum_bracket(q + p, q + p) is ZERO
    s = HbarSeries({0: 1, 2: GaussianRational(0, Fraction(1, 3))})
    assert not (s - s).terms
    assert s - s is _SERIES_ZERO


# --- every result is canonical ------------------------------------------------------

@settings(deadline=None, max_examples=100)
@given(observable_pairs(), st.one_of(scalars, series()))
def test_operation_results_are_canonical(pair, s):
    a, b = pair
    for result in (a + b, a - b, -a, a * b, scale(s, a), hbar_zero(a * b),
                   divide_by_i_hbar(a * b - b * a),
                   divide_by_i_hbar(scale(HbarSeries({2: 1}), a))):
        assert_canonical(result)


@settings(deadline=None, max_examples=40)
@given(observable_pairs(), observables(max_terms=2))
def test_bracket_and_residual_results_are_canonical(pair, c):
    a, b = pair
    for kind in BracketKind:
        assert_canonical(bracket(kind, a, b))
        assert_canonical(jacobi_residual(kind, a, b, c).residual)
        assert_canonical(leibniz_residual(kind, a, b, c).residual)
