"""Randomized algebraic laws: ring structure, bracket identities, limits."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from qcbracket import (
    ZERO,
    BracketKind,
    GaussianRational,
    HbarSeries,
    Observable,
    aleksandrov_bracket,
    axiom_residuals,
    bracket,
    classical_limit_residual,
    enumerate_monomials,
    format_observable,
    hbar_zero,
    jacobi_residual,
    normal_bracket,
    ordered_poisson,
    parse,
    quantum_bracket,
    random_observable,
    scale,
)

MIXED = (BracketKind.ALEKSANDROV, BracketKind.NORMAL_ORDER)

rationals = st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                         max_denominator=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def observables(draw, max_degree=3, max_terms=3, sector="all"):
    pool = enumerate_monomials(max_degree)
    if sector == "classical":
        pool = [m for m in pool if not (m[2] or m[3])]
    elif sector == "quantum":
        pool = [m for m in pool if not (m[0] or m[1])]
    monomials = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=max_terms, unique=True))
    terms = {}
    for monomial in monomials:
        degrees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2,
                                unique=True))
        series = HbarSeries({
            d: GaussianRational(draw(rationals), draw(rationals))
            for d in degrees})
        if series:
            terms[monomial] = series
    return Observable(terms)


# --- ring laws ---------------------------------------------------------------

@settings(deadline=None)
@given(observables(), observables(), observables())
def test_mul_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(deadline=None)
@given(observables(), observables(), observables())
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == (a * b) + (a * c)
    assert (a + b) * c == (a * c) + (b * c)


@settings(deadline=None)
@given(observables(sector="classical"), observables())
def test_classical_factors_commute(c, a):
    assert c * a == a * c


@settings(deadline=None)
@given(observables(), observables())
def test_commutators_are_order_hbar(a, b):
    gap = (a * b) + scale(-1, b * a)
    assert gap == ZERO or gap.min_hbar_degree() >= 1


@settings(deadline=None)
@given(observables(), observables())
def test_hbar_grading_of_products(a, b):
    assume(a and b)
    # no zero divisors: the lowest hbar layers multiply like commutative
    # polynomials over a field
    assert (a * b).min_hbar_degree() == a.min_hbar_degree() + b.min_hbar_degree()


@settings(deadline=None)
@given(observables(), observables())
def test_hbar_zero_is_multiplicative(a, b):
    assert hbar_zero(a * b) == hbar_zero(hbar_zero(a) * hbar_zero(b))


# --- bracket linearity and symmetry ------------------------------------------

@settings(deadline=None)
@given(st.sampled_from(MIXED + (BracketKind.COMMUTATOR, BracketKind.POISSON)),
       rationals, rationals, observables(), observables(), observables())
def test_brackets_are_bilinear(kind, r, s, a, b, c):
    combined = scale(r, a) + scale(s, b)
    left = bracket(kind, combined, c)
    assert left == scale(r, bracket(kind, a, c)) + scale(s, bracket(kind, b, c))
    right = bracket(kind, c, combined)
    assert right == scale(r, bracket(kind, c, a)) + scale(s, bracket(kind, c, b))


@settings(deadline=None)
@given(st.sampled_from(MIXED + (BracketKind.COMMUTATOR,)),
       observables(), observables())
def test_brackets_are_antisymmetric(kind, a, b):
    assert bracket(kind, a, b) == scale(-1, bracket(kind, b, a))


@settings(deadline=None)
@given(observables(sector="classical"), observables(sector="classical"))
def test_poisson_is_antisymmetric_on_classical_pairs(a, b):
    assert ordered_poisson(a, b) == scale(-1, ordered_poisson(b, a))


# --- sector reductions --------------------------------------------------------

@settings(deadline=None)
@given(observables(sector="quantum"), observables(sector="quantum"))
def test_mixed_brackets_reduce_to_commutator_on_quantum_pairs(a, b):
    expected = quantum_bracket(a, b)
    assert aleksandrov_bracket(a, b) == expected
    assert normal_bracket(a, b) == expected


@settings(deadline=None)
@given(observables(sector="classical"), observables(sector="classical"))
def test_mixed_brackets_reduce_to_poisson_on_classical_pairs(a, b):
    expected = ordered_poisson(a, b)
    assert aleksandrov_bracket(a, b) == expected
    assert normal_bracket(a, b) == expected


# --- identities at and away from hbar = 0 -------------------------------------

@settings(deadline=None)
@given(st.sampled_from(MIXED + (BracketKind.COMMUTATOR, BracketKind.POISSON)),
       observables(), observables(), observables())
def test_jacobi_violations_vanish_at_hbar_zero(kind, a, b, c):
    residual = jacobi_residual(kind, a, b, c).residual
    assert hbar_zero(residual) == ZERO


@settings(deadline=None)
@given(observables(sector="classical", max_degree=4),
       observables(sector="classical", max_degree=4),
       observables(sector="classical", max_degree=4))
def test_jacobi_holds_for_poisson_on_classical_triples(a, b, c):
    assert jacobi_residual(BracketKind.POISSON, a, b, c).is_zero


@settings(deadline=None)
@given(observables(sector="quantum", max_degree=4),
       observables(sector="quantum", max_degree=4),
       observables(sector="quantum", max_degree=4))
def test_jacobi_holds_for_commutator_on_quantum_triples(a, b, c):
    assert jacobi_residual(BracketKind.COMMUTATOR, a, b, c).is_zero


@settings(deadline=None)
@given(st.sampled_from(MIXED), observables(), observables())
def test_classical_limit_matches_symbol_poisson(kind, a, b):
    assert classical_limit_residual(kind, a, b).is_zero


@settings(deadline=None)
@given(st.sampled_from(MIXED),
       observables(sector="classical"), observables(sector="quantum"),
       observables(sector="classical"), observables(sector="quantum"))
def test_sector_factorization_axioms(kind, c, q, c2, q2):
    first, second = axiom_residuals(kind, c, q, c2, q2)
    assert first.is_zero
    assert second.is_zero


# --- grading and charges --------------------------------------------------------

def _grades(a):
    """The grades n_x + n_k + n_q + n_p + 2*hbar of the terms of ``a``."""
    return {sum(m) + 2 * h for m, series in a.terms.items() for h in series.terms}


def _charges(a):
    """The charges (n_x - n_k, n_q - n_p) of the monomials of ``a``."""
    return {(m[0] - m[1], m[2] - m[3]) for m in a.terms}


@st.composite
def graded(draw, max_terms=3):
    """A nonzero observable whose terms, of degree <= 3 and hbar-degree <= 2,
    all have one grade; with max_terms=1, a monomial."""
    grade = draw(st.integers(0, 6))
    pool = [m for m in enumerate_monomials(3)
            if sum(m) <= grade and (grade - sum(m)) % 2 == 0 and grade - sum(m) <= 4]
    monomials = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=max_terms, unique=True))
    nonzero = rationals.filter(bool)
    return Observable({m: HbarSeries({(grade - sum(m)) // 2: GaussianRational(
        draw(nonzero), draw(rationals))}) for m in monomials})


@settings(deadline=None)
@given(graded(), graded())
def test_products_and_brackets_add_grades(a, b):
    (grade,) = {g + h for g in _grades(a) for h in _grades(b)}
    assert _grades(a * b) == {grade}
    for kind in BracketKind:
        assert _grades(bracket(kind, a, b)) <= {grade - 2}, kind


@settings(deadline=None)
@given(graded(max_terms=1), graded(max_terms=1))
def test_products_and_brackets_add_charges(a, b):
    (charge,) = {(c1 + c2, d1 + d2) for c1, d1 in _charges(a) for c2, d2 in _charges(b)}
    assert _charges(a * b) == {charge}
    for kind in BracketKind:
        assert _charges(bracket(kind, a, b)) <= {charge}, kind


# --- text round-trip -----------------------------------------------------------

@settings(deadline=None)
@given(observables(max_degree=4, max_terms=4))
def test_parse_format_round_trip(a):
    assert parse(format_observable(a)) == a


@settings(deadline=None)
@given(seeds)
def test_round_trip_of_generated_observables(seed):
    a = random_observable(seed, max_degree=4, max_terms=5)
    assert parse(format_observable(a)) == a
