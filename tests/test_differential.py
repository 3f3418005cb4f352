"""The bracket kernels and the operator product against independent oracles.

The package computes every classical part in one term-pair loop and the
commutator in one pass of the product kernel; the oracles compute the same
brackets from partial derivatives and both full operator products, and the
product from the standard-ordered star product on symbols.
"""

import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qcbracket import (
    BracketKind,
    HbarSeries,
    Observable,
    ScanConfig,
    aleksandrov_bracket,
    jacobi_residual,
    monomial_observable,
    normal_bracket,
    normal_bracket_classical,
    ordered_poisson,
    quantum_bracket,
    random_observable,
    scan,
)
from qcbracket import algebra, brackets, explorer
from qcbracket.explorer import SECTORS
import oracles
from oracles import build


@st.composite
def observables(draw, sector=None):
    # random_observable draws non-unit Gaussian coefficients of hbar-degree <= 2.
    if sector is None:
        sector = draw(st.sampled_from(SECTORS))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_observable(seed, max_degree=3, max_terms=4, sector=sector)


# --- brackets ------------------------------------------------------------------

@settings(deadline=None, max_examples=300)
@given(observables(), observables())
def test_brackets_equal_the_partials_and_products_oracle(a, b):
    assert quantum_bracket(a, b) == oracles.quantum_bracket(a, b)
    assert ordered_poisson(a, b) == oracles.ordered_poisson(a, b)
    assert aleksandrov_bracket(a, b) == oracles.aleksandrov_bracket(a, b)
    assert normal_bracket_classical(a, b) == oracles.normal_bracket_classical(a, b)
    assert normal_bracket(a, b) == oracles.normal_bracket(a, b)


def _reordering_terms(t, r):
    """{j: coefficient} of every term of p^t q^r, j = 0 included, by literal swaps."""
    word = oracles.swap_normal_form(t, r)
    return {r - m[2]: c for m, c in word.terms.items()}


def test_word_tables_match_the_swap_oracle():
    # Every table lists its terms with j ascending; a j = 0 term has weight 1.
    assert algebra._concatenated(3, 1, 2, 4) == ((0, HbarSeries(1)),)
    for t1, r2 in product(range(5), repeat=2):
        written = _reordering_terms(t1, r2)
        assert algebra._reordered(t1, 3, 2, r2) == tuple(sorted(written.items()))
        for t2, r1 in product(range(4), repeat=2):
            reverse = _reordering_terms(t2, r1)
            mean = {j: (written.get(j, HbarSeries()) + reverse.get(j, HbarSeries()))
                    * Fraction(1, 2) for j in written.keys() | reverse.keys()}
            assert algebra._symmetrized(t1, r1, t2, r2) == tuple(sorted(mean.items()))
            difference = {j: written.get(j, HbarSeries()) - reverse.get(j, HbarSeries())
                          for j in written.keys() | reverse.keys()}
            commuted = algebra._commuted(t1, r1, t2, r2)
            assert commuted == tuple(sorted((j, w) for j, w in difference.items() if w))
            assert all(j for j, _ in commuted)


# The bracket functions with no pair table in front of them.
_ORACLES = {
    BracketKind.POISSON: oracles.ordered_poisson,
    BracketKind.COMMUTATOR: oracles.quantum_bracket,
    BracketKind.ALEKSANDROV: oracles.aleksandrov_bracket,
    BracketKind.NORMAL_ORDER: oracles.normal_bracket,
}


def _oracle_jacobi(kind, a, b, c):
    """Jacobi from the oracle brackets, with no shortcut for repeated arguments."""
    return brackets.ResidualReport(oracles.jacobi(_ORACLES[kind], a, b, c))


def _oracle_scan(monkeypatch, config):
    with monkeypatch.context() as patch:
        for kind, fn in _ORACLES.items():
            patch.setitem(brackets._DISPATCH, kind, fn)
        patch.setattr(explorer, "jacobi_residual", _oracle_jacobi)
        return scan(config, jobs=1)


def _assert_scans_equal_the_oracle_scan(monkeypatch, config):
    serial = scan(config, jobs=1)
    parallel = scan(config, jobs=2)
    expected = _oracle_scan(monkeypatch, config)
    assert serial == expected
    assert parallel == expected


@pytest.mark.parametrize("kind", [BracketKind.ALEKSANDROV, BracketKind.NORMAL_ORDER,
                                  BracketKind.COMMUTATOR, BracketKind.POISSON])
@pytest.mark.parametrize("identity", ["jacobi", "leibniz"])
def test_scan_records_equal_the_oracle_scan(monkeypatch, kind, identity):
    # A triple missing from both violation lists has a zero residual on both
    # sides, so equal lists mean equal residuals on every triple.
    for sector in SECTORS:
        config = ScanConfig(kind=kind, identity=identity, max_degree=2, sector=sector)
        _assert_scans_equal_the_oracle_scan(monkeypatch, config)


@pytest.mark.parametrize("kind", [BracketKind.ALEKSANDROV, BracketKind.NORMAL_ORDER])
def test_degree_3_jacobi_scans_equal_the_oracle_scan(monkeypatch, kind):
    config = ScanConfig(kind=kind, identity="jacobi", max_degree=3)
    _assert_scans_equal_the_oracle_scan(monkeypatch, config)


def test_the_pair_table_holds_only_pairs_of_scanned_monomials(monkeypatch):
    # Leibniz brackets a*b, a monomial of up to twice the scanned degree,
    # with c: those pairs are computed each time, never stored.
    config = ScanConfig(kind=BracketKind.NORMAL_ORDER, identity="leibniz", max_degree=2)
    expected = _oracle_scan(monkeypatch, config)
    monos = explorer._sector_monomials(config.max_degree, config.sector)
    states, scanned = [], []
    pair_table, leibniz = explorer._pair_table, explorer.leibniz_residual

    def pair_table_and_keep(kind, observables):
        scanned.append(observables)
        return pair_table(kind, observables)

    def leibniz_and_keep(*args):
        states.append(brackets._PAIR_TABLE.get())
        return leibniz(*args)

    monkeypatch.setattr(explorer, "_pair_table", pair_table_and_keep)
    monkeypatch.setattr(explorer, "leibniz_residual", leibniz_and_keep)
    assert scan(config, jobs=1) == expected
    # One table, entered once, live for every one of the 15^3 triples.
    assert len(scanned) == 1 and len(states) == len(monos) ** 3 == 3375
    state, observables = states[-1], scanned[-1]
    assert state is not None and all(s is state for s in states)
    # The scanned objects are the coefficient-1 monomials, in scan order.
    assert [o.terms for o in observables] == [{m: algebra._SERIES_ONE} for m in monos]
    kind, table = state
    assert kind is config.kind
    assert list(table) == list(product(map(id, observables), repeat=2))
    values = iter(table.values())
    for a, b in product(observables, repeat=2):
        assert next(values) == _ORACLES[kind](a, b)


def test_no_pair_table_is_live_outside_a_scan(monkeypatch):
    config = ScanConfig(kind=BracketKind.COMMUTATOR, max_degree=1)
    assert brackets._PAIR_TABLE.get() is None
    scan(config)
    assert brackets._PAIR_TABLE.get() is None
    seen = []

    def failing_product(a, b, word=algebra._reordered):
        seen.append(brackets._PAIR_TABLE.get())
        raise ZeroDivisionError("kernel failed")

    monkeypatch.setattr(brackets, "_product", failing_product)
    with pytest.raises(ZeroDivisionError):
        scan(config)
    assert len(seen) == 1 and seen[0][0] is config.kind
    assert len(seen[0][1]) == 5 ** 2 and not any(seen[0][1].values())
    assert brackets._PAIR_TABLE.get() is None


def test_scans_in_threads_each_have_their_own_table(monkeypatch):
    # More threads than cores, switching often: a table shared between two
    # scans would show as one table seen from two threads.
    configs = [ScanConfig(kind=kind, identity="leibniz", max_degree=1)
               for kind in BracketKind] * 2
    expected = [scan(config) for config in configs]
    tables = {}
    leibniz = explorer.leibniz_residual

    def leibniz_and_note(*args):
        table = brackets._PAIR_TABLE.get()
        tables.setdefault(id(table), (table, set()))[1].add(threading.get_ident())
        return leibniz(*args)

    monkeypatch.setattr(explorer, "leibniz_residual", leibniz_and_note)
    results = [None] * len(configs)

    def run(i):
        results[i] = scan(configs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert len(tables) == len(configs)
    assert all(len(idents) == 1 for _, idents in tables.values())


@pytest.mark.parametrize("kind", list(BracketKind))
def test_jacobi_on_a_repeated_argument_equals_the_oracle_jacobi(kind):
    # One object in two places, in each of the three ways, and an equal copy
    # that is another object; on random observables and on unit monomials as
    # a scan has them.  Poisson is not antisymmetric on mixed inputs, so its
    # residual must be computed, and some are nonzero.
    rng = random.Random(kind.value)
    monos = explorer.enumerate_monomials(3)
    nonzero = 0
    for seed in range(12):
        pairs = [(random_observable(seed, 3, 3), random_observable(seed + 100, 3, 3)),
                 tuple(monomial_observable(m) for m in rng.sample(monos, 2))]
        for a, c in pairs:
            copy = Observable(a.terms)
            assert copy == a and copy is not a
            for triple in ((a, a, c), (c, a, a), (a, c, a),
                           (a, copy, c), (c, a, copy), (copy, c, a)):
                residual = jacobi_residual(kind, *triple).residual
                assert residual == oracles.jacobi(_ORACLES[kind], *triple)
                nonzero += bool(residual)
    assert bool(nonzero) == (kind is BracketKind.POISSON)


# --- the operator product ----------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(observables(), observables())
def test_product_equals_the_star_product(f, g):
    assert f * g == oracles.star_product(f, g)


def test_star_product_hand_values():
    q = build({(0, 0, 1, 0): {0: (1, 0)}})
    p = build({(0, 0, 0, 1): {0: (1, 0)}})
    qp = build({(0, 0, 1, 1): {0: (1, 0)}})
    assert oracles.star_product(q, p) == qp
    # p q = q p - i*hbar;  p^2 q^2 = q^2 p^2 - 4i*hbar q p - 2*hbar^2.
    assert oracles.star_product(p, q) == build({
        (0, 0, 1, 1): {0: (1, 0)}, (0, 0, 0, 0): {1: (0, -1)}})
    p2, q2 = oracles.star_product(p, p), oracles.star_product(q, q)
    assert oracles.star_product(p2, q2) == build({
        (0, 0, 2, 2): {0: (1, 0)}, (0, 0, 1, 1): {1: (0, -4)},
        (0, 0, 0, 0): {2: (-2, 0)}})
