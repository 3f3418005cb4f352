"""Core arithmetic: scalars, hbar polynomials, monomials, observables."""

import pickle
from fractions import Fraction

import pytest

from qcbracket import (
    ONE,
    ZERO,
    GaussianRational,
    HbarSeries,
    NotDivisibleError,
    Observable,
    divide_by_i_hbar,
    format_observable,
    from_scalar,
    generator,
    hbar_zero,
    monomial_observable,
    parse,
    reorder,
    scale,
    symbol_poisson,
)
import reference
from oracles import build, to_reference

X, K, Q, P = (generator(n) for n in "xkqp")
HBAR = generator("hbar")
I = generator("i")


# --- Gaussian rationals ------------------------------------------------------

def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert a + b == GaussianRational(1)
    assert a - a == GaussianRational(0)
    # (1/2 + 3i)(1/2 - 3i) = 1/4 + 9
    assert a * b == GaussianRational(Fraction(37, 4))
    assert -a == GaussianRational(Fraction(-1, 2), Fraction(-3))


def test_gaussian_rational_zero_and_equality():
    assert not GaussianRational(0)
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    assert GaussianRational(0, 1) != GaussianRational(1, 0)


def test_divided_by_i_inverts_multiplication_by_i():
    i = GaussianRational(0, 1)
    for value in (GaussianRational(3, 5), GaussianRational(Fraction(-2, 7), 0)):
        assert value.divided_by_i() * i == value


# --- hbar polynomials --------------------------------------------------------

def test_series_prunes_zero_coefficients():
    s = HbarSeries({0: GaussianRational(1), 2: GaussianRational(0)})
    assert list(s.terms) == [0]
    assert not HbarSeries(0)


def test_series_rejects_negative_degree():
    # A degree is a nonnegative int: 1.5 is not truncated, True is not 1.
    for degree in (-1, 1.5, True):
        with pytest.raises(ValueError):
            HbarSeries({degree: GaussianRational(1)})


def test_series_coerces_scalar_values():
    assert HbarSeries({0: 2}) == HbarSeries(2)
    assert HbarSeries({1: Fraction(1, 2), 2: 0}) == HbarSeries({1: Fraction(1, 2)})
    assert HbarSeries({0: 2}).terms == {0: GaussianRational(2)}
    for value in ("a", HbarSeries(1), 0.5):
        with pytest.raises(TypeError):
            HbarSeries({0: value})
    # A bare argument is a scalar or a mapping.
    for bare in ("a", [(0, 1)], 0.5, None):
        with pytest.raises(TypeError):
            HbarSeries(bare)
        with pytest.raises(TypeError):
            Observable(bare)


def test_series_ring_operations():
    h = HbarSeries({1: 1})
    assert h * h == HbarSeries({2: 1})
    assert h + h == HbarSeries({1: 2})
    assert h - h == HbarSeries(0)
    assert (h + HbarSeries(1)) * (h - HbarSeries(1)) == HbarSeries({2: 1}) - HbarSeries(1)


def test_constant_min_hbar_degree_and_hbar_zero():
    s = from_scalar(HbarSeries({1: GaussianRational(2), 3: GaussianRational(1)}))
    assert s.min_hbar_degree() == 1
    assert from_scalar(0).min_hbar_degree() is None
    assert hbar_zero(s) is ZERO
    assert hbar_zero(from_scalar(5)) == from_scalar(5)


def test_constant_divide_by_i_hbar():
    s = from_scalar(HbarSeries({2: GaussianRational(0, 2)}))
    assert divide_by_i_hbar(s) == from_scalar(HbarSeries({1: GaussianRational(2)}))
    with pytest.raises(NotDivisibleError):
        divide_by_i_hbar(from_scalar(1))


def test_series_times_observable_in_either_order():
    h = HbarSeries({2: GaussianRational(1, 3)})
    expected = build({(0, 0, 1, 0): {2: (1, 3)}})
    assert h * Q == Q * h == expected
    assert HbarSeries(2) * X == X * HbarSeries(2) == scale(2, X)
    with pytest.raises(TypeError):
        HbarSeries({1: 1}) * "q"


def test_series_is_immutable():
    s = HbarSeries(1)
    with pytest.raises(AttributeError):
        s.terms = {}
    with pytest.raises(AttributeError):
        del s.terms
    with pytest.raises(AttributeError):
        del generator("x").terms[(1, 0, 0, 0)].terms
    assert s == HbarSeries(1)
    assert format_observable(parse("x")) == "x"


# --- monomials ---------------------------------------------------------------

def test_monomial_degree_and_sectors():
    mixed = monomial_observable((1, 2, 3, 4))
    [m] = mixed.terms
    assert type(m) is tuple and sum(m) == 10
    assert not mixed.is_classical() and not mixed.is_quantum()
    assert monomial_observable((2, 1, 0, 0)).is_classical()
    assert monomial_observable((0, 0, 1, 1)).is_quantum()
    # the constant monomial belongs to both sectors
    assert ONE.is_classical() and ONE.is_quantum()


@pytest.mark.parametrize("monomial", [(-1, 0, 0, 0), (1,), (1, 0, 0, 0, 0),
                                      (0.5, 0, 0, 0), (True, 0, 0, 0), 5, None],
                         ids=["negative", "short", "long", "float", "bool", "int", "none"])
def test_observable_rejects_negative_exponents(monomial):
    # A key is exactly four nonnegative int exponents; a short one is not
    # padded, neither a float nor a bool is an exponent, and a key that is
    # not iterable is a ValueError too, not the TypeError of tuple().
    with pytest.raises(ValueError):
        Observable({monomial: HbarSeries(1)})
    with pytest.raises(ValueError):
        monomial_observable(monomial)


# --- generators and linear structure -----------------------------------------

def test_generator_q_is_the_basis_element():
    assert Q == build({(0, 0, 1, 0): {0: (1, 0)}})


def test_generator_one_is_the_identity():
    assert generator("one") == ONE
    assert ONE * Q == Q


def test_generator_hbar_is_a_degree_one_scalar():
    assert HBAR == build({(0, 0, 0, 0): {1: (1, 0)}})


def test_generator_i():
    assert I * I == scale(-1, ONE)


def test_generator_rejects_unknown_names():
    with pytest.raises(ValueError):
        generator("z")


def test_add_inverse_and_merge():
    assert X + scale(-1, X) == ZERO
    assert Q + P == build({(0, 0, 1, 0): {0: (1, 0)}, (0, 0, 0, 1): {0: (1, 0)}})
    xq = X * Q
    assert xq + xq == scale(2, xq)


@pytest.mark.parametrize("call", [
    lambda: X + 1, lambda: X - 1, lambda: X * "a", lambda: "a" * X,
    lambda: HbarSeries({1: 1}) + 1, lambda: HbarSeries({1: 1}) - 1,
    lambda: GaussianRational(1) + 1, lambda: GaussianRational(1) - 1,
    lambda: GaussianRational(1) / HbarSeries({1: 1}),
    lambda: GaussianRational(1) / GaussianRational(1)])
def test_observable_operators_reject_other_types(call):
    with pytest.raises(TypeError):
        call()


def test_observable_times_scalar_in_either_order():
    assert 2 * X == X * 2 == scale(2, X)
    assert X * Fraction(1, 2) == scale(Fraction(1, 2), X)
    assert HbarSeries({1: 1}) * X == X * HBAR == build({(1, 0, 0, 0): {1: (1, 0)}})


def test_scale_examples():
    assert scale(0, X * Q) == ZERO
    i_hbar = HbarSeries({1: GaussianRational(0, 1)})
    assert scale(i_hbar, ONE) == build({(0, 0, 0, 0): {1: (0, 1)}})
    hbar_sq = HBAR * HBAR
    assert scale(Fraction(1, 2), hbar_sq) == build({(0, 0, 0, 0): {2: ((1, 2), 0)}})


# --- reorder against the adjacent-swap oracle --------------------------------

def test_reorder_single_swap():
    assert reorder(1, 1) == build({
        (0, 0, 1, 1): {0: (1, 0)},
        (0, 0, 0, 0): {1: (0, -1)},
    })


def test_reorder_already_normal():
    for r in range(7):
        assert reorder(0, r) == build({(0, 0, r, 0): {0: (1, 0)}})
        assert reorder(r, 0) == build({(0, 0, 0, r): {0: (1, 0)}})


def test_reorder_2_1():
    expected = build({
        (0, 0, 1, 2): {0: (1, 0)},
        (0, 0, 0, 1): {1: (0, -2)},
    })
    assert reorder(2, 1) == expected
    assert reference.swaps(2, 1) == to_reference(expected)


def test_reorder_2_2():
    # Value computed with the swap oracle and frozen: q^2p^2 - 4i*hbar*qp - 2*hbar^2.
    expected = build({
        (0, 0, 2, 2): {0: (1, 0)},
        (0, 0, 1, 1): {1: (0, -4)},
        (0, 0, 0, 0): {2: (-2, 0)},
    })
    assert reference.swaps(2, 2) == to_reference(expected)
    assert reorder(2, 2) == expected


def test_reorder_matches_swap_oracle_up_to_degree_six():
    for t in range(7):
        for r in range(7):
            assert to_reference(reorder(t, r)) == reference.swaps(t, r), (t, r)


# --- products ----------------------------------------------------------------

def test_mul_defining_relation():
    assert P * Q == build({
        (0, 0, 1, 1): {0: (1, 0)},
        (0, 0, 0, 0): {1: (0, -1)},
    })


def test_mul_classical_variables_commute():
    xk = build({(1, 1, 0, 0): {0: (1, 0)}})
    assert X * K == xk
    assert K * X == xk


def test_mul_normal_ordered_fixed_point():
    assert Q * P == build({(0, 0, 1, 1): {0: (1, 0)}})


def test_mul_p2_q2():
    p2, q2 = P * P, Q * Q
    assert to_reference(p2 * q2) == reference.swaps(2, 2)


def test_mul_mixed_sectors_factorize():
    # x and k ride along untouched while the quantum word reorders
    lhs = (X * P) * (K * Q)
    expected = scale(1, (X * K) * reorder(1, 1))
    assert lhs == expected


def test_pow():
    assert Q ** 0 == ONE
    assert Q ** 3 == Q * (Q * Q)
    assert (Q + P) ** 2 == ((Q * Q) + scale(2, Q * P)) + ((P * P) + scale(-1, I * HBAR))
    with pytest.raises(ValueError):
        Q ** -1


# --- hbar structure ----------------------------------------------------------

def test_divide_by_i_hbar_examples():
    i_hbar = I * HBAR
    assert divide_by_i_hbar(i_hbar) == ONE
    two_h2_q = scale(2, (HBAR * HBAR) * Q)
    assert divide_by_i_hbar(two_h2_q) == scale(-2, I * (HBAR * Q))
    with pytest.raises(NotDivisibleError):
        divide_by_i_hbar(X)


def test_hbar_zero_examples():
    assert hbar_zero(reorder(1, 1)) == Q * P
    assert hbar_zero(scale(Fraction(1, 2), HBAR * HBAR)) == ZERO
    a = (X * Q) + scale(3, K * P)
    assert hbar_zero(a) == a


def test_min_hbar_degree():
    assert (HBAR * Q).min_hbar_degree() == 1
    assert (Q + HBAR * Q).min_hbar_degree() == 0
    assert ZERO.min_hbar_degree() is None


# --- commutative symbol bracket ----------------------------------------------

def test_symbol_poisson_canonical_pairs():
    assert symbol_poisson(X, K) == ONE
    assert symbol_poisson(Q, P) == ONE
    assert symbol_poisson(K, X) == scale(-1, ONE)


def test_symbol_poisson_hand_value():
    qp, q2 = Q * P, Q * Q
    assert symbol_poisson(qp, q2) == scale(-2, q2)


def test_symbol_poisson_rejects_hbar():
    with pytest.raises(ValueError):
        symbol_poisson(HBAR, X)


# --- canonical representation ------------------------------------------------

def test_construction_paths_agree():
    via_left = (Q * P) * Q
    via_right = Q * (P * Q)
    assert via_left == via_right
    assert (X + Q) + P == X + (Q + P)


def test_zero_is_the_empty_association():
    diff = (P * Q) + scale(-1, P * Q)
    assert diff == ZERO
    assert not diff.terms


def test_sector_predicates():
    assert (X * K).is_classical()
    assert (Q * P).is_quantum()
    assert not (X * Q).is_classical()
    assert ZERO.is_classical() and ZERO.is_quantum()


def test_observables_pickle():
    a = (X * reorder(2, 1)) + scale(Fraction(5, 3), K * HBAR)
    assert pickle.loads(pickle.dumps(a)) == a
    s = HbarSeries({2: GaussianRational(1, Fraction(1, 3))})
    assert pickle.loads(pickle.dumps(s)) == s


def test_observable_is_immutable():
    with pytest.raises(AttributeError):
        Q.terms = {}
    with pytest.raises(AttributeError):
        del parse("x").terms
    assert format_observable(parse("x")) == "x"


def test_values_cannot_be_initialized_again():
    generator("x").__init__({})
    HbarSeries.__init__(generator("x").terms[(1, 0, 0, 0)], {})
    assert format_observable(parse("x")) == "x"
    assert generator("x").terms == {(1, 0, 0, 0): HbarSeries(1)}


def test_observable_coerces_scalar_values():
    assert Observable({(1, 0, 0, 0): 5}) == parse("5*x")
    assert Observable({(0, 0, 1, 0): Fraction(1, 2), (0, 0, 0, 1): 0}) == parse("(1/2)*q")
    assert Observable({(0, 0, 0, 0): GaussianRational(0, 1)}) == I
    for value in ("a", X, 0.5):
        with pytest.raises(TypeError):
            Observable({(1, 0, 0, 0): value})


# pickle.dumps(parse("x*q - (1/2)*i*hbar*p")) as the trusted-constructor
# format wrote it: it names _observable, _series and _gr.
_OLD_PICKLE = (
    b"\x80\x04\x95\x88\x00\x00\x00\x00\x00\x00\x00\x8c\x11qcbracket.algebra"
    b"\x94\x8c\x0b_observable\x94\x93\x94}\x94((K\x01K\x00K\x01K\x00t\x94h\x00"
    b"\x8c\x07_series\x94\x93\x94}\x94K\x00h\x00\x8c\x03_gr\x94\x93\x94K\x01K\x00"
    b"K\x01\x87\x94R\x94s\x85\x94R\x94(K\x00K\x00K\x00K\x01t\x94h\x06}\x94K\x01h\t"
    b"K\x00J\xff\xff\xff\xffK\x02\x87\x94R\x94s\x85\x94R\x94u\x85\x94R\x94.")


def test_old_pickles_still_load():
    assert pickle.loads(_OLD_PICKLE) == parse("x*q - (1/2)*i*hbar*p")


def test_from_scalar():
    assert from_scalar(0) == ZERO
    assert from_scalar(Fraction(2, 3)) == scale(Fraction(2, 3), ONE)
