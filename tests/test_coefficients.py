"""GaussianRational, the integer-triple coefficient, against its Fraction oracle."""

import pickle
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qcbracket import GaussianRational
from oracles import FractionGaussian

rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=60)
integers = st.integers(min_value=-40, max_value=40)
pairs = st.tuples(rationals, rationals)
scalars = st.one_of(integers, rationals)


def _agree(value: GaussianRational, reference: FractionGaussian) -> bool:
    # The parts are Fractions, which reduce, so the triple itself is checked
    # too, as oracles.assert_canonical does: a missing gcd shows only there.
    a, b, d = value._a, value._b, value._d
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    parts = (value.re, value.im)
    assert all(type(part) is Fraction for part in parts)
    return parts == (reference.re, reference.im)


@settings(deadline=None, max_examples=300)
@given(pairs, pairs, scalars)
def test_operations_match_the_fraction_oracle(x, y, s):
    a, b = GaussianRational(*x), GaussianRational(*y)
    ra, rb = FractionGaussian(*x), FractionGaussian(*y)
    assert _agree(a, ra) and _agree(b, rb)
    assert _agree(a + b, ra + rb)
    assert _agree(a - b, ra - rb)
    assert _agree(-a, -ra)
    assert _agree(a * b, ra * rb)
    assert _agree(a * s, ra * s)
    assert _agree(s * a, s * ra)
    assert _agree(a.divided_by_i(), ra.divided_by_i())
    assert bool(a) == bool(ra)
    assert (a == b) == (ra == rb)
    # The divisor is an int or a Fraction; a Gaussian rational is refused.
    if s:
        assert _agree(a / s, ra / s)
    else:
        with pytest.raises(ZeroDivisionError):
            a / s


@given(pairs)
def test_repr_matches_the_fraction_oracle(x):
    assert repr(GaussianRational(*x)) == repr(FractionGaussian(*x))


def test_equal_values_are_equal_objects_with_equal_hashes():
    half = GaussianRational(Fraction(2, 4))
    assert half == GaussianRational(Fraction(1, 2))
    assert half == GaussianRational(Fraction(3, 6), 0)
    assert hash(half) == hash(GaussianRational(Fraction(1, 2)))
    third = GaussianRational(Fraction(1, 3), Fraction(-2, 6))
    assert third == GaussianRational(1, -1) * Fraction(1, 3)
    assert hash(third) == hash(GaussianRational(1, -1) * Fraction(1, 3))
    assert len({half, GaussianRational(Fraction(3, 6)), third}) == 2


def test_zero_has_one_representation():
    zeros = [GaussianRational(), GaussianRational(0, 0),
             GaussianRational(Fraction(0, 7)),
             GaussianRational(Fraction(3, 4)) - GaussianRational(Fraction(6, 8)),
             GaussianRational(Fraction(1, 3), 2) * 0,
             GaussianRational(5, Fraction(1, 9)) * GaussianRational()]
    assert all(not z for z in zeros)
    assert len(set(zeros)) == 1
    assert {(z.re, z.im) for z in zeros} == {(Fraction(0), Fraction(0))}
    assert repr(zeros[-1]) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"


def test_instances_survive_pickle():
    for value in (GaussianRational(), GaussianRational(0, 1),
                  GaussianRational(Fraction(-7, 12), Fraction(5, 18))):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
        assert (copy.re, copy.im) == (value.re, value.im)


def test_assigning_an_attribute_raises():
    value = GaussianRational(1, 2)
    for name in ("re", "im", "_a", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
    with pytest.raises(AttributeError):
        del value._d
    assert value == GaussianRational(1, 2)


def test_repr_text_is_unchanged():
    assert repr(GaussianRational(Fraction(1, 2), 3)) == (
        "GaussianRational(Fraction(1, 2), Fraction(3, 1))")
    assert repr(GaussianRational(0, -1)) == (
        "GaussianRational(Fraction(0, 1), Fraction(-1, 1))")


def test_parts_read_back_as_fractions_in_lowest_terms():
    value = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
    assert (value.re, value.im) == (Fraction(3, 4), Fraction(-5, 6))
    assert (value.re.denominator, value.im.denominator) == (4, 6)
    assert GaussianRational(re=2, im=Fraction(1, 2)) == GaussianRational(
        2, Fraction(1, 2))


@pytest.mark.parametrize("part", [0.1, "1/3", Decimal("0.1"), 1e300])
def test_a_part_that_is_not_an_int_or_fraction_raises(part):
    # Fraction() would take each of these, a float as its binary value and a
    # string by parsing it; the other scalar entry points refuse them too.
    for args, kwargs in (((part,), {}), ((1, part), {}), ((), {"re": part}),
                         ((), {"im": part})):
        with pytest.raises(TypeError, match="ints or Fractions"):
            GaussianRational(*args, **kwargs)
