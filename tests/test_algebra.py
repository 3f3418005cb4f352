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
    QCMonomial,
    divide_by_i_hbar,
    from_scalar,
    generator,
    hbar_zero,
    partial_k,
    partial_p,
    partial_q,
    partial_x,
    reorder,
    scale,
    symbol_poisson,
)
from oracles import build, swap_normal_form

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


def test_gaussian_rational_division():
    a = GaussianRational(1, 1)
    assert a / GaussianRational(0, 1) == GaussianRational(1, -1)


# --- hbar polynomials --------------------------------------------------------

def test_series_prunes_zero_coefficients():
    s = HbarSeries({0: GaussianRational(1), 2: GaussianRational(0)})
    assert list(s.terms) == [0]
    assert not HbarSeries(0)


def test_series_rejects_negative_degree():
    with pytest.raises(ValueError):
        HbarSeries({-1: GaussianRational(1)})


def test_series_ring_operations():
    h = HbarSeries.hbar()
    assert h * h == HbarSeries.hbar(2)
    assert h + h == HbarSeries.hbar(1, 2)
    assert h - h == HbarSeries(0)
    assert (h + HbarSeries(1)) * (h - HbarSeries(1)) == HbarSeries.hbar(2) - HbarSeries(1)


def test_series_min_degree_and_constant_part():
    s = HbarSeries({1: GaussianRational(2), 3: GaussianRational(1)})
    assert s.min_degree() == 1
    assert HbarSeries(0).min_degree() is None
    assert s.constant_part() == HbarSeries(0)
    assert HbarSeries(5).constant_part() == HbarSeries(5)


def test_series_divided_by_i_hbar():
    s = HbarSeries({2: GaussianRational(0, 2)})
    assert s.divided_by_i_hbar() == HbarSeries({1: GaussianRational(2)})
    with pytest.raises(NotDivisibleError):
        HbarSeries(1).divided_by_i_hbar()


def test_series_is_immutable():
    s = HbarSeries(1)
    with pytest.raises(AttributeError):
        s.terms = {}


# --- monomials ---------------------------------------------------------------

def test_monomial_degree_and_sectors():
    m = QCMonomial(1, 2, 3, 4)
    assert m.degree == 10
    assert not m.is_classical and not m.is_quantum
    assert QCMonomial(2, 1, 0, 0).is_classical
    assert QCMonomial(0, 0, 1, 1).is_quantum
    # the constant monomial belongs to both sectors
    unit = QCMonomial(0, 0, 0, 0)
    assert unit.is_classical and unit.is_quantum


def test_observable_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Observable({QCMonomial(-1, 0, 0, 0): HbarSeries(1)})


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


def test_scale_examples():
    assert scale(0, X * Q) == ZERO
    i_hbar = HbarSeries.hbar(1, GaussianRational(0, 1))
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
    assert swap_normal_form(2, 1) == expected


def test_reorder_2_2():
    # Value computed with the swap oracle and frozen: q^2p^2 - 4i*hbar*qp - 2*hbar^2.
    expected = build({
        (0, 0, 2, 2): {0: (1, 0)},
        (0, 0, 1, 1): {1: (0, -4)},
        (0, 0, 0, 0): {2: (-2, 0)},
    })
    assert swap_normal_form(2, 2) == expected
    assert reorder(2, 2) == expected


def test_reorder_matches_swap_oracle_up_to_degree_six():
    for t in range(7):
        for r in range(7):
            assert reorder(t, r) == swap_normal_form(t, r), (t, r)


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
    assert p2 * q2 == swap_normal_form(2, 2)


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


# --- derivatives -------------------------------------------------------------

def test_partial_x_power_rule():
    x2kq = (X * X) * (K * Q)
    assert partial_x(x2kq) == scale(2, X * (K * Q))


def test_partials_of_missing_variables_vanish():
    assert partial_k(X * Q) == ZERO
    assert partial_x((K * K) * P) == ZERO


def test_quantum_partials():
    q2p = (Q * Q) * P
    assert partial_q(q2p) == scale(2, Q * P)
    assert partial_p(q2p) == Q * Q


def test_partials_commute():
    a = ((X * Q) * (K * P)) + scale(3, X * X)
    assert partial_x(partial_k(a)) == partial_k(partial_x(a))


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


def test_from_scalar():
    assert from_scalar(0) == ZERO
    assert from_scalar(Fraction(2, 3)) == scale(Fraction(2, 3), ONE)
