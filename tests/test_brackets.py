"""The four candidate brackets and their identity residuals."""

import re

import pytest

from qcbracket import (
    ONE,
    ZERO,
    BracketKind,
    InvalidSectorError,
    ResidualReport,
    aleksandrov_bracket,
    axiom_residuals,
    axiom_sweep,
    bracket,
    generator,
    hbar_zero,
    jacobi_residual,
    leibniz_residual,
    normal_bracket,
    ordered_poisson,
    parse,
    quantum_bracket,
    random_observable,
    scale,
)
from qcbracket import algebra
from oracles import build

X, K, Q, P = (generator(n) for n in "xkqp")

# The two triples whose Jacobi behavior the whole package is built around.
TRIPLE_CUBIC = (parse("x*q"), parse("x*q*p"), parse("k^2*p"))
TRIPLE_QUADRATIC = (parse("k*p"), parse("x*p"), parse("q^2"))

HALF_HBAR_SQ = build({(0, 0, 0, 0): {2: ((1, 2), 0)}})
MINUS_2_I_HBAR = build({(0, 0, 0, 0): {1: (0, -2)}})


# --- quantum_bracket ----------------------------------------------------------

def test_quantum_bracket_canonical_pair():
    assert quantum_bracket(Q, P) == ONE


def test_quantum_bracket_classical_commutes():
    assert quantum_bracket(X, P) == ZERO
    assert quantum_bracket(X * K, X * Q) == ZERO


def test_quantum_bracket_q2_p2():
    assert quantum_bracket(parse("q^2"), parse("p^2")) == parse("4*q*p - 2*i*hbar")


def test_quantum_bracket_antisymmetry():
    a, b = parse("x*q^2"), parse("k*p^2 + q")
    assert quantum_bracket(a, b) == scale(-1, quantum_bracket(b, a))


# --- ordered_poisson ----------------------------------------------------------

def test_ordered_poisson_canonical_classical_pair():
    assert ordered_poisson(X, K) == ONE


def test_ordered_poisson_hand_value():
    assert ordered_poisson(X * Q, K) == Q


def test_ordered_poisson_no_classical_dependence():
    assert ordered_poisson(Q, P) == ZERO


def test_ordered_poisson_operator_order_is_as_written():
    # Derivatives multiply in the written order, so the pair (xq, kp)
    # pins the convention: forward gives qp, reversed gives pq = qp - i*hbar
    # with an extra sign.  The functional is not antisymmetric off the
    # classical sector; eq. checks elsewhere restrict it accordingly.
    assert ordered_poisson(parse("x*q"), parse("k*p")) == parse("q*p")
    assert ordered_poisson(parse("k*p"), parse("x*q")) == parse("-q*p + i*hbar")


# --- aleksandrov_bracket ------------------------------------------------------

def test_aleksandrov_bracket_mixed_classical_pair():
    assert aleksandrov_bracket(X * Q, K) == Q


def test_aleksandrov_bracket_vanishes_on_equal_arguments():
    for seed in range(5):
        a = random_observable(seed, max_degree=3, max_terms=3)
        assert aleksandrov_bracket(a, a) == ZERO


# --- normal_bracket -----------------------------------------------------------

def test_normal_bracket_classical_part_examples():
    # The classical part is what the bracket adds to the commutator.
    def classical(a, b):
        return normal_bracket(a, b) - quantum_bracket(a, b)
    assert classical(parse("k*p"), parse("x*p")) == parse("-p^2")
    assert classical(Q, P) == ZERO
    assert classical(X * Q, K) == Q


def test_normal_bracket_display_values():
    assert normal_bracket(parse("k*p"), parse("x*p")) == parse("-p^2")
    assert normal_bracket(parse("x*p"), parse("q^2")) == parse("-2*x*q")
    assert normal_bracket(parse("q^2"), parse("k*p")) == parse("2*k*q")
    assert normal_bracket(parse("-p^2"), parse("q^2")) == parse("4*q*p - 2*i*hbar")


def test_normal_bracket_quadratic_triple_intermediates():
    # All six nested values for the quadratic triple, exactly as displayed.
    a, b, c = TRIPLE_QUADRATIC
    kind = BracketKind.NORMAL_ORDER
    ab = bracket(kind, a, b)
    bc = bracket(kind, b, c)
    ca = bracket(kind, c, a)
    assert ab == parse("-p^2")
    assert bracket(kind, ab, c) == parse("4*q*p - 2*i*hbar")
    assert bc == parse("-2*x*q")
    assert bracket(kind, bc, a) == parse("-2*x*k - 2*q*p")
    assert ca == parse("2*k*q")
    assert bracket(kind, ca, b) == parse("2*x*k - 2*q*p")


# --- dispatch -----------------------------------------------------------------

def test_bracket_dispatch():
    assert bracket(BracketKind.COMMUTATOR, Q, P) == ONE
    assert bracket(BracketKind.POISSON, X, K) == ONE
    assert bracket(BracketKind.NORMAL_ORDER, parse("k*p"), parse("x*p")) == parse("-p^2")
    assert bracket(BracketKind.ALEKSANDROV, X * Q, K) == Q


def test_a_kind_that_is_not_a_bracket_kind_raises_value_error():
    # CLI spellings, a member's value and an unhashable value are not kinds.
    c, q = parse("x*k"), parse("q*p")
    for kind in ("normal_order", "normal", "poisson", None, []):
        calls = (
            lambda: bracket(kind, X, K),
            lambda: jacobi_residual(kind, X, K, Q),
            # Not the zero of an antisymmetric kind's repeated argument.
            lambda: jacobi_residual(kind, X, X, X),
            lambda: leibniz_residual(kind, X, K, Q),
            lambda: axiom_residuals(kind, c, q, c, q),
            lambda: axiom_sweep(kind, 1, 0),
        )
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"BracketKind, not {kind!r}")):
                call()


# --- jacobi -------------------------------------------------------------------

def test_jacobi_residual_cubic_triple_aleksandrov():
    report = jacobi_residual(BracketKind.ALEKSANDROV, *TRIPLE_CUBIC)
    assert report.residual == HALF_HBAR_SQ
    assert not report.is_zero


def test_jacobi_residual_quadratic_triple_normal():
    report = jacobi_residual(BracketKind.NORMAL_ORDER, *TRIPLE_QUADRATIC)
    assert report.residual == MINUS_2_I_HBAR
    assert not report.is_zero


def test_jacobi_residual_cross_checks():
    assert jacobi_residual(BracketKind.NORMAL_ORDER, *TRIPLE_CUBIC).is_zero
    assert jacobi_residual(BracketKind.ALEKSANDROV, *TRIPLE_QUADRATIC).is_zero


def test_jacobi_residual_repeated_argument_vanishes():
    kinds = (BracketKind.COMMUTATOR, BracketKind.ALEKSANDROV,
             BracketKind.NORMAL_ORDER)
    for seed in range(4):
        a = random_observable(seed, max_degree=3, max_terms=3)
        b = random_observable(seed + 100, max_degree=3, max_terms=3)
        for kind in kinds:
            assert jacobi_residual(kind, a, a, b).is_zero, kind
    # the poisson functional is only antisymmetric on its classical domain
    for seed in range(4):
        c = random_observable(seed, max_degree=3, max_terms=3, sector="classical")
        d = random_observable(seed + 100, max_degree=3, max_terms=3, sector="classical")
        assert jacobi_residual(BracketKind.POISSON, c, c, d).is_zero


# --- leibniz ------------------------------------------------------------------

def test_leibniz_commutator_is_a_derivation():
    for seed in range(6):
        triple = [random_observable(seed * 3 + j, max_degree=3, max_terms=3,
                                    sector="quantum") for j in range(3)]
        assert leibniz_residual(BracketKind.COMMUTATOR, *triple).is_zero


def test_leibniz_poisson_is_a_derivation_on_classical_inputs():
    for seed in range(6):
        triple = [random_observable(seed * 3 + j, max_degree=3, max_terms=3,
                                    sector="classical") for j in range(3)]
        assert leibniz_residual(BracketKind.POISSON, *triple).is_zero


def test_leibniz_mixed_kind_witnesses():
    # (x, q, kp): the product rule fails already at degree two.
    kp = parse("k*p")
    normal = leibniz_residual(BracketKind.NORMAL_ORDER, X, Q, kp)
    assert normal.residual == parse("i*hbar")
    aleksandrov = leibniz_residual(BracketKind.ALEKSANDROV, X, Q, kp)
    assert aleksandrov.residual == parse("(1/2)*i*hbar")


# --- sector-factorization axioms ----------------------------------------------

def test_axiom_residuals_normal_order_example():
    first, second = axiom_residuals(BracketKind.NORMAL_ORDER, X, P, K, Q)
    assert first.is_zero
    assert second.is_zero


def test_axiom_residuals_aleksandrov_example():
    first, second = axiom_residuals(BracketKind.ALEKSANDROV, X, Q, K, P)
    assert first.residual == ZERO
    assert second.residual == ZERO


def test_axiom_residuals_trivial_classical_factor():
    for kind in (BracketKind.COMMUTATOR, BracketKind.ALEKSANDROV,
                 BracketKind.NORMAL_ORDER):
        for seed in (3, 4):
            q1 = random_observable(seed, max_degree=3, max_terms=3, sector="quantum")
            q2 = random_observable(seed + 50, max_degree=3, max_terms=3, sector="quantum")
            _, second = axiom_residuals(kind, ONE, q1, ONE, q2)
            assert second.is_zero, kind


def test_axiom_residuals_reject_mixed_inputs():
    with pytest.raises(InvalidSectorError):
        axiom_residuals(BracketKind.NORMAL_ORDER, X * Q, P, K, Q)
    with pytest.raises(InvalidSectorError):
        axiom_residuals(BracketKind.NORMAL_ORDER, X, X * P, K, Q)


# --- classical limit ----------------------------------------------------------

def test_classical_limit_mixed_kinds():
    # At hbar = 0 both mixed brackets are the commutative Poisson bracket in
    # both pairs.
    xq, kp = X * Q, K * P
    assert hbar_zero(bracket(BracketKind.ALEKSANDROV, xq, kp)) == X * K + Q * P
    assert hbar_zero(bracket(BracketKind.NORMAL_ORDER, xq, kp)) == X * K + Q * P


def test_classical_limit_commutator():
    # [q^2, p^2]/(i*hbar) = 4*q*p - 2*i*hbar: the q,p Poisson bracket at hbar = 0.
    value = bracket(BracketKind.COMMUTATOR, parse("q^2"), parse("p^2"))
    assert hbar_zero(value) == parse("4*q*p")


def test_word_tables_are_bounded():
    # Large powers meet about 11,000 distinct term pairs; the tables keyed on
    # whole pairs must not keep them all.
    bracket(BracketKind.COMMUTATOR, parse("(q+p)^20"), parse("(q-p+x)^12"))
    for table in (algebra._symmetrized, algebra._commuted, algebra._reorder_terms):
        info = table.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


# --- reports ------------------------------------------------------------------

def test_residual_report_zero_flag():
    assert ResidualReport(ZERO).is_zero
    assert not ResidualReport(ONE).is_zero
