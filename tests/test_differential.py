"""The bracket kernel, the scans and the operator product against the reference.

The package computes the product, the commutator, every classical part and
the symbol Poisson bracket in one term-pair kernel over its word tables, and
scans behind a pair table with known answers skipped.  ``tests/reference.py``,
which imports nothing from the package, computes the same brackets from
partial derivatives and both star products, and the oracle scan below
enumerates its own triples and computes every residual there.
"""

import random
import sys
import threading
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from qcbracket import (
    BracketKind,
    HbarSeries,
    Observable,
    ScanConfig,
    ViolationRecord,
    aleksandrov_bracket,
    hbar_zero,
    jacobi_residual,
    monomial_observable,
    normal_bracket,
    normal_bracket_classical,
    ordered_poisson,
    quantum_bracket,
    random_observable,
    scan,
    symbol_poisson,
)
from qcbracket import algebra, brackets, explorer
from qcbracket.explorer import SECTORS
import reference
from oracles import from_reference, to_reference


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
    ra, rb = to_reference(a), to_reference(b)
    assert to_reference(quantum_bracket(a, b)) == reference.commutator(ra, rb)
    assert to_reference(ordered_poisson(a, b)) == reference.poisson(ra, rb)
    assert to_reference(aleksandrov_bracket(a, b)) == reference.aleksandrov(ra, rb)
    assert to_reference(normal_bracket_classical(a, b)) == reference.normal_classical(ra, rb)
    assert to_reference(normal_bracket(a, b)) == reference.normal(ra, rb)


def _symbol_poisson(ra, rb):
    """dA/dx dB/dk - dA/dk dB/dx + dA/dq dB/dp - dA/dp dB/dq, all products commutative."""
    def half(u, v):
        return reference.sub(
            reference.symbol_product(reference.derivative(ra, u), reference.derivative(rb, v)),
            reference.symbol_product(reference.derivative(ra, v), reference.derivative(rb, u)))
    return reference.add(half(0, 1), half(2, 3))


@settings(deadline=None, max_examples=300)
@given(observables(), observables())
def test_symbol_poisson_equals_the_derivatives_oracle(a, b):
    a, b = hbar_zero(a), hbar_zero(b)
    assert to_reference(symbol_poisson(a, b)) == _symbol_poisson(to_reference(a),
                                                                 to_reference(b))


def _reordering_terms(t, r):
    """{j: coefficient} of every term of p^t q^r, j = 0 included, by literal swaps."""
    out = {}
    for (_, _, n_q, _, h), c in reference.swaps(t, r).items():
        out.setdefault(r - n_q, {})[(0, 0, 0, 0, h)] = c
    return out


def _table(terms):
    return [(j, to_reference(w)) for j, w in terms]


def test_word_tables_match_the_swap_oracle():
    # Every table lists its terms with j ascending; a j = 0 term has weight 1.
    assert algebra._concatenated(3, 1, 2, 4) == ((0, HbarSeries(1)),)
    for t1, r2 in product(range(5), repeat=2):
        written = _reordering_terms(t1, r2)
        assert _table(algebra._reordered(t1, 3, 2, r2)) == sorted(written.items())
        for t2, r1 in product(range(4), repeat=2):
            reverse = _reordering_terms(t2, r1)
            js = sorted(written.keys() | reverse.keys())
            mean = [(j, reference.divided(reference.add(written.get(j, {}),
                                                        reverse.get(j, {})), 2)) for j in js]
            assert _table(algebra._symmetrized(t1, r1, t2, r2)) == mean
            difference = [(j, reference.sub(written.get(j, {}), reverse.get(j, {})))
                          for j in js]
            commuted = _table(algebra._commuted(t1, r1, t2, r2))
            assert commuted == [(j, w) for j, w in difference if w]
            assert all(j for j, _ in commuted)
    # The q,p half of the symbol Poisson bracket of two words: j = 1 alone.
    for t1, r1, t2, r2 in product(range(5), repeat=4):
        words = [{(0, 0, r, t, 0): (1, 0)} for r, t in ((r1, t1), (r2, t2))]
        poisson = _symbol_poisson(*words)
        assert all(key == (0, 0, r1 + r2 - 1, t1 + t2 - 1, 0) for key in poisson)
        assert _table(algebra._qp_poisson(t1, r1, t2, r2)) == [
            (1, {(0, 0, 0, 0, 0): c}) for c in poisson.values()]


def _oracle_scan(config):
    """The records of ``config`` with every triple enumerated and evaluated here.

    Jacobi of an antisymmetric bracket is unchanged by a cyclic shift of its
    arguments and changes sign under a swap, so one sorted triple stands for
    its orbit.  Poisson is antisymmetric on the classical sector alone.
    """
    in_sector = reference.IN_SECTOR[config.sector]
    monos = [m for m in reference.monomials(config.max_degree) if in_sector(m)]
    values = [{m + (0,): (1, 0)} for m in monos]
    bracket = reference.BRACKETS[config.kind.value]
    if config.identity == "leibniz":
        identity, triples = reference.leibniz, product(range(len(monos)), repeat=3)
    else:
        identity = reference.jacobi
        if config.kind is BracketKind.POISSON and config.sector != "classical":
            triples = product(range(len(monos)), repeat=3)
        else:
            triples = combinations_with_replacement(range(len(monos)), 3)
    records = []
    for i, j, k in triples:
        residual = identity(bracket, values[i], values[j], values[k])
        if residual:
            records.append(((monos[i], monos[j], monos[k]), residual))
    # Grouped by total degree, in enumeration order within each degree.
    records.sort(key=lambda rec: sum(map(sum, rec[0])))
    return records


def _as_reference(records):
    return [(rec.triple, to_reference(rec.residual)) for rec in records]


def _assert_scans_equal_the_oracle_scan(config):
    expected = _oracle_scan(config)
    assert _as_reference(scan(config, jobs=1)) == expected
    assert _as_reference(scan(config, jobs=2)) == expected


@pytest.mark.parametrize("kind", [BracketKind.ALEKSANDROV, BracketKind.NORMAL_ORDER,
                                  BracketKind.COMMUTATOR, BracketKind.POISSON])
@pytest.mark.parametrize("identity", ["jacobi", "leibniz"])
def test_scan_records_equal_the_oracle_scan(kind, identity):
    # A triple missing from both violation lists has a zero residual on both
    # sides, so equal lists mean equal residuals on every triple.
    for sector in SECTORS:
        config = ScanConfig(kind=kind, identity=identity, max_degree=2, sector=sector)
        _assert_scans_equal_the_oracle_scan(config)


@pytest.mark.parametrize("kind", [BracketKind.ALEKSANDROV, BracketKind.NORMAL_ORDER])
def test_degree_3_jacobi_scans_equal_the_oracle_scan(kind):
    config = ScanConfig(kind=kind, identity="jacobi", max_degree=3)
    _assert_scans_equal_the_oracle_scan(config)


@pytest.mark.parametrize("kind", list(BracketKind))
def test_the_pair_table_holds_only_pairs_of_scanned_monomials(monkeypatch, kind):
    # Leibniz brackets a*b, a monomial of up to twice the scanned degree,
    # with c: those pairs are computed each time, never stored.
    config = ScanConfig(kind=kind, identity="leibniz", max_degree=2)
    expected = [ViolationRecord(triple, from_reference(residual))
                for triple, residual in _oracle_scan(config)]
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
    table_kind, table = state
    assert table_kind is kind
    # Every ordered pair of scanned monomials, and no other, holds its bracket.
    assert list(table) == list(product(map(id, observables), repeat=2))
    values = iter(table.values())
    for a, b in product(observables, repeat=2):
        expected = reference.BRACKETS[kind.value](to_reference(a), to_reference(b))
        assert to_reference(next(values)) == expected


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
    with pytest.raises(ZeroDivisionError, match="kernel failed"):
        scan(config)
    # The table fills before it goes live, so the first bracket of the fill
    # raised with no table live, and the error left none behind.
    assert seen == [None]
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
                expected = reference.jacobi(reference.BRACKETS[kind.value],
                                            *map(to_reference, triple))
                assert to_reference(residual) == expected
                nonzero += bool(residual)
    assert bool(nonzero) == (kind is BracketKind.POISSON)


# --- the operator product ----------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(observables(), observables())
def test_product_equals_the_star_product(f, g):
    assert to_reference(f * g) == reference.star(to_reference(f), to_reference(g))


def test_star_product_hand_values():
    q, p = {(0, 0, 1, 0, 0): (1, 0)}, {(0, 0, 0, 1, 0): (1, 0)}
    assert reference.star(q, p) == {(0, 0, 1, 1, 0): (1, 0)}
    # p q = q p - i*hbar;  p^2 q^2 = q^2 p^2 - 4i*hbar q p - 2*hbar^2.
    assert reference.star(p, q) == {(0, 0, 1, 1, 0): (1, 0), (0, 0, 0, 0, 1): (0, -1)}
    p2, q2 = reference.star(p, p), reference.star(q, q)
    assert reference.star(p2, q2) == {
        (0, 0, 2, 2, 0): (1, 0), (0, 0, 1, 1, 1): (0, -4), (0, 0, 0, 0, 2): (-2, 0)}
