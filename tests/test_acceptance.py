"""Acceptance suite: one test per promised behavior, all comparisons exact.

Each test prints its own "criterion NN PASS/FAIL" line directly to the
terminal (bypassing capture), so a plain ``pytest tests/test_acceptance.py``
shows the scoreboard alongside the usual pytest status.  Criteria with a
stated runtime budget assert wall time too.
"""

import random
import time
from fractions import Fraction

from qcbracket import (
    ZERO,
    BracketKind,
    ScanConfig,
    aleksandrov_bracket,
    axiom_sweep,
    bracket,
    format_observable,
    hbar_zero,
    jacobi_residual,
    normal_bracket,
    ordered_poisson,
    parse,
    quantum_bracket,
    random_observable,
    reorder,
    scale,
    scan,
)
import reference
from oracles import build, to_reference

ALEKSANDROV = BracketKind.ALEKSANDROV
NORMAL = BracketKind.NORMAL_ORDER
MIXED = (ALEKSANDROV, NORMAL)

CUBIC = ("x*q", "x*q*p", "k^2*p")
QUADRATIC = ("k*p", "x*p", "q^2")

HALF_HBAR_SQ = build({(0, 0, 0, 0): {2: ((1, 2), 0)}})
MINUS_2_I_HBAR = build({(0, 0, 0, 0): {1: (0, -2)}})


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_cubic_triple_residual(capsys):
    start = time.perf_counter()
    report = jacobi_residual(ALEKSANDROV, *(parse(s) for s in CUBIC))
    elapsed = time.perf_counter() - start
    ok = report.residual == HALF_HBAR_SQ and elapsed < 1.0
    _report(capsys, 1, "symmetrized bracket: cubic triple leaves (1/2)*hbar^2", ok)


def test_criterion_02_quadratic_triple_walkthrough(capsys):
    start = time.perf_counter()
    a, b, c = (parse(s) for s in QUADRATIC)
    ab = bracket(NORMAL, a, b)
    bc = bracket(NORMAL, b, c)
    ca = bracket(NORMAL, c, a)
    checks = (
        ab == parse("-p^2"),
        bracket(NORMAL, ab, c) == parse("4*q*p - 2*i*hbar"),
        bc == parse("-2*x*q"),
        bracket(NORMAL, bc, a) == parse("-2*x*k - 2*q*p"),
        ca == parse("2*k*q"),
        bracket(NORMAL, ca, b) == parse("2*x*k - 2*q*p"),
        jacobi_residual(NORMAL, a, b, c).residual == MINUS_2_I_HBAR,
    )
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _report(capsys, 2, "normal-order bracket: quadratic triple leaves -2*i*hbar"
            " with all six intermediates exact", ok)


def test_criterion_03_cross_checks(capsys):
    ok = (jacobi_residual(NORMAL, *(parse(s) for s in CUBIC)).is_zero
          and jacobi_residual(ALEKSANDROV, *(parse(s) for s in QUADRATIC)).is_zero)
    _report(capsys, 3, "each triple passes under the other bracket", ok)


def test_criterion_04_quadratic_preservation(capsys):
    start = time.perf_counter()
    records = scan(ScanConfig(kind=ALEKSANDROV, identity="jacobi", max_degree=2))
    elapsed = time.perf_counter() - start
    ok = records == [] and elapsed < 10.0
    _report(capsys, 4, "symmetrized bracket satisfies Jacobi on all"
            " degree <= 2 monomial triples", ok)


def test_criterion_05_scan_completeness(capsys):
    start = time.perf_counter()
    cubic_records = scan(ScanConfig(kind=ALEKSANDROV, identity="jacobi",
                                    max_degree=3))
    elapsed = time.perf_counter() - start
    want_cubic = frozenset([(1, 0, 1, 0), (1, 0, 1, 1), (0, 2, 0, 1)])
    found_cubic = any(frozenset(tuple(m) for m in r.triple) == want_cubic
                      for r in cubic_records)

    quadratic_records = scan(ScanConfig(kind=NORMAL, identity="jacobi",
                                        max_degree=2))
    want_quadratic = frozenset([(0, 1, 0, 1), (1, 0, 0, 1), (0, 0, 2, 0)])
    found_quadratic = any(frozenset(tuple(m) for m in r.triple) == want_quadratic
                          for r in quadratic_records)

    ok = found_cubic and found_quadratic and elapsed < 60.0
    _report(capsys, 5, "exhaustive scans rediscover both counterexample triples", ok)


def test_criterion_06_axiom_sweeps(capsys):
    ok = (axiom_sweep(ALEKSANDROV, 200, 2024) == []
          and axiom_sweep(NORMAL, 200, 2024) == [])
    _report(capsys, 6, "sector-factorization rules hold on 200 random"
            " quadruples per mixed bracket", ok)


def test_criterion_07_pure_sector_reduction(capsys):
    ok = True
    for case in range(200):
        q1 = random_observable(3000 + case, 3, 3, sector="quantum")
        q2 = random_observable(4000 + case, 3, 3, sector="quantum")
        expected = quantum_bracket(q1, q2)
        ok = ok and aleksandrov_bracket(q1, q2) == expected
        ok = ok and normal_bracket(q1, q2) == expected
        c1 = random_observable(5000 + case, 3, 3, sector="classical")
        c2 = random_observable(6000 + case, 3, 3, sector="classical")
        expected = ordered_poisson(c1, c2)
        ok = ok and aleksandrov_bracket(c1, c2) == expected
        ok = ok and normal_bracket(c1, c2) == expected
    _report(capsys, 7, "both mixed brackets collapse to the pure brackets"
            " on 200 sector-pure pairs each", ok)


def test_criterion_08_classical_limit(capsys):
    ok = True
    for kind in MIXED:
        for case in range(200):
            a = random_observable(7000 + case, 3, 3)
            b = random_observable(8000 + case, 3, 3)
            expected = reference.symbol_poisson(reference.hbar_zero(to_reference(a)),
                                                reference.hbar_zero(to_reference(b)))
            ok = ok and to_reference(hbar_zero(bracket(kind, a, b))) == expected
    _report(capsys, 8, "hbar -> 0 limit of each mixed bracket is the"
            " commutative Poisson bracket on 200 random pairs", ok)


def test_criterion_09_violations_are_order_hbar(capsys):
    ok = True
    for kind in MIXED:
        for case in range(200):
            triple = (random_observable(9000 + case, 3, 3),
                      random_observable(10000 + case, 3, 3),
                      random_observable(11000 + case, 3, 3))
            residual = jacobi_residual(kind, *triple).residual
            ok = ok and hbar_zero(residual) == ZERO
    _report(capsys, 9, "every Jacobi residual vanishes at hbar = 0"
            " on 200 random triples per mixed bracket", ok)


def test_criterion_10_leibniz_no_go(capsys):
    mixed_hit = all(
        scan(ScanConfig(kind=kind, identity="leibniz", max_degree=3)) != []
        for kind in MIXED)
    pure_clean = (
        scan(ScanConfig(kind=BracketKind.POISSON, identity="leibniz",
                        max_degree=3, sector="classical")) == []
        and scan(ScanConfig(kind=BracketKind.COMMUTATOR, identity="leibniz",
                            max_degree=3, sector="quantum")) == [])
    ok = mixed_hit and pure_clean
    _report(capsys, 10, "product rule fails for both mixed brackets but"
            " holds for the pure ones on their own sectors", ok)


def test_criterion_11_property_suite(capsys):
    start = time.perf_counter()
    rng = random.Random(12021)
    kinds = (BracketKind.POISSON, BracketKind.COMMUTATOR) + MIXED
    ok = True

    for case in range(1000):
        a = random_observable(20000 + case, 3, 3)
        b = random_observable(21000 + case, 3, 3)
        c = random_observable(22000 + case, 3, 3)
        ok = ok and (a * b) * c == a * (b * c)

    for case in range(1000):
        kind = kinds[case % 4]
        sector = "classical" if kind is BracketKind.POISSON else "all"
        a = random_observable(23000 + case, 3, 3, sector=sector)
        b = random_observable(24000 + case, 3, 3, sector=sector)
        c = random_observable(25000 + case, 3, 3, sector=sector)
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        left = bracket(kind, scale(r, a) + scale(s, b), c)
        ok = ok and left == scale(r, bracket(kind, a, c)) + scale(s, bracket(kind, b, c))

    for case in range(1000):
        kind = kinds[case % 4]
        sector = "classical" if kind is BracketKind.POISSON else "all"
        a = random_observable(26000 + case, 3, 3, sector=sector)
        b = random_observable(27000 + case, 3, 3, sector=sector)
        ok = ok and bracket(kind, a, b) == scale(-1, bracket(kind, b, a))

    for t in range(7):
        for r_exp in range(7):
            ok = ok and to_reference(reorder(t, r_exp)) == reference.swaps(t, r_exp)

    for case in range(1000):
        a = random_observable(28000 + case, 4, 5)
        ok = ok and parse(format_observable(a)) == a

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(capsys, 11, "1000-case associativity, bilinearity, antisymmetry,"
            " reorder oracle, and text round-trip all exact", ok)
