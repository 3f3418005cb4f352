"""Exhaustive scans, their canonicalization, and the random generators."""

import concurrent.futures
import dataclasses
import pickle
from itertools import permutations, product

import pytest

from qcbracket import (
    BracketKind,
    ResidualReport,
    ScanConfig,
    ViolationRecord,
    axiom_sweep,
    enumerate_monomials,
    jacobi_residual,
    monomial_observable,
    parse,
    random_observable,
    scan,
)
from qcbracket import explorer
from qcbracket.explorer import (
    IDENTITIES, RANDOM_POOL_CAP, SCAN_TRIPLE_CAP, SECTORS, _index_triples,
    _sector_monomials, _sector_size, _triple_count)
from oracles import build

ALEKSANDROV = BracketKind.ALEKSANDROV
NORMAL = BracketKind.NORMAL_ORDER

CUBIC_TRIPLE = frozenset([(1, 0, 1, 0), (1, 0, 1, 1), (0, 2, 0, 1)])   # xq, xqp, k^2p
QUADRATIC_TRIPLE = frozenset([(0, 1, 0, 1), (1, 0, 0, 1), (0, 0, 2, 0)])  # kp, xp, q^2


# --- enumeration ---------------------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_monomials(0)) == 1
    assert len(enumerate_monomials(1)) == 5
    assert len(enumerate_monomials(3)) == 35


def test_enumeration_order_and_uniqueness():
    monos = enumerate_monomials(3)
    assert monos[0] == (0, 0, 0, 0)
    assert set(monos[1:5]) == {(0, 0, 0, 1), (0, 0, 1, 0),
                               (0, 1, 0, 0), (1, 0, 0, 0)}
    assert len(set(monos)) == len(monos)
    keys = [(sum(m), m) for m in monos]
    assert keys == sorted(keys)


def test_enumeration_respects_degree_cap():
    assert all(sum(m) <= 2 for m in enumerate_monomials(2))


# --- configuration --------------------------------------------------------------

def test_scan_config_validation():
    fields = [f.name for f in dataclasses.fields(ScanConfig)]
    assert fields == ["kind", "identity", "max_degree", "sector"]
    with pytest.raises(ValueError):
        ScanConfig(kind=NORMAL, identity="associativity")
    with pytest.raises(ValueError):
        ScanConfig(kind=NORMAL, sector="bosonic")
    with pytest.raises(ValueError):
        ScanConfig(kind=NORMAL, max_degree=-1)
    # Caught here, not later as a KeyError in the dispatch or a TypeError in comb.
    for kind in ("normal", "normal_order", None):
        with pytest.raises(ValueError, match="kind"):
            ScanConfig(kind=kind)
    for max_degree in (1.5, 2.0, "3", True, None):
        with pytest.raises(ValueError, match="max_degree"):
            ScanConfig(kind=NORMAL, max_degree=max_degree)


def test_sector_monomials_are_the_enumeration_filtered():
    # A pure sector is listed directly, in the order of the full enumeration.
    keep = {"all": lambda m: True, "classical": lambda m: not (m[2] or m[3]),
            "quantum": lambda m: not (m[0] or m[1])}
    for degree, sector in product(range(6), SECTORS):
        expected = [m for m in enumerate_monomials(degree) if keep[sector](m)]
        assert _sector_monomials(degree, sector) == expected, (degree, sector)


def test_triple_count_matches_the_enumeration():
    for kind, identity, sector, degree in product(
            BracketKind, IDENTITIES, SECTORS, range(4)):
        config = ScanConfig(kind=kind, identity=identity, max_degree=degree,
                            sector=sector)
        count = len(_sector_monomials(degree, sector))
        assert _sector_size(degree, sector) == count, config
        walked = sum(1 for _ in _index_triples(config, count))
        assert _triple_count(config, count) == walked, config


def test_scan_triple_cap():
    assert SCAN_TRIPLE_CAP == 10**7
    leibniz_6 = ScanConfig(kind=NORMAL, identity="leibniz", max_degree=6)
    assert _triple_count(leibniz_6, _sector_size(6, "all")) == 210 ** 3 <= SCAN_TRIPLE_CAP
    # The largest monomial count is never enumerated: the cap comes first.
    for degree, identity in ((7, "leibniz"), (10, "leibniz"), (10**6, "jacobi")):
        config = ScanConfig(kind=NORMAL, identity=identity, max_degree=degree)
        with pytest.raises(ValueError, match="exceeds the cap of 10000000"):
            scan(config)


# --- jacobi scans ----------------------------------------------------------------

def test_aleksandrov_scan_is_empty_below_cubic():
    records = scan(ScanConfig(kind=ALEKSANDROV, identity="jacobi", max_degree=2))
    assert records == []


def test_aleksandrov_scan_finds_the_cubic_triple():
    records = scan(ScanConfig(kind=ALEKSANDROV, identity="jacobi", max_degree=3))
    hits = [r for r in records
            if frozenset(tuple(m) for m in r.triple) == CUBIC_TRIPLE]
    assert len(hits) == 1
    # Canonical storage order is enumeration order (xq, k^2p, xqp), an odd
    # permutation of the headline ordering, so the stored residual is the
    # negative of the hbar^2/2 value asserted for that ordering elsewhere.
    assert hits[0].residual == build({(0, 0, 0, 0): {2: ((-1, 2), 0)}})
    assert hits[0].residual.min_hbar_degree() == 2


def test_normal_scan_finds_the_quadratic_triple():
    records = scan(ScanConfig(kind=NORMAL, identity="jacobi", max_degree=2))
    hits = [r for r in records
            if frozenset(tuple(m) for m in r.triple) == QUADRATIC_TRIPLE]
    assert len(hits) == 1
    assert hits[0].residual == parse("-2*i*hbar")
    assert hits[0].residual.min_hbar_degree() == 1


def test_scan_records_are_sound():
    records = scan(ScanConfig(kind=NORMAL, identity="jacobi", max_degree=2))
    for record in records:
        rerun = jacobi_residual(
            NORMAL, *(monomial_observable(m) for m in record.triple))
        assert rerun.residual == record.residual
        assert record.residual
        assert record.residual.min_hbar_degree() >= 1


def test_scan_results_are_sorted_and_deterministic():
    config = ScanConfig(kind=NORMAL, identity="jacobi", max_degree=2)
    records = scan(config)
    degrees = [sum(map(sum, r.triple)) for r in records]
    assert degrees == sorted(degrees)
    assert scan(config) == records


def test_canonicalization_loses_no_violations():
    # Orbit closure at degree 2: rescanning every ordered triple directly
    # must find exactly the permutations of the canonicalized findings.
    config = ScanConfig(kind=NORMAL, identity="jacobi", max_degree=2)
    canonical = scan(config)
    closure = set()
    for record in canonical:
        closure.update(permutations(record.triple))
    monos = enumerate_monomials(2)
    direct = set()
    for triple in product(monos, repeat=3):
        report = jacobi_residual(NORMAL, *(monomial_observable(m) for m in triple))
        if not report.is_zero:
            direct.add(triple)
    assert direct == closure


def test_scan_rejects_nonpositive_jobs():
    config = ScanConfig(kind=NORMAL, identity="jacobi", max_degree=1)
    with pytest.raises(ValueError, match="jobs must be positive"):
        scan(config, jobs=0)
    # Not truncated: a float or a bool is not a worker count.
    for jobs in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="jobs must be an int"):
            scan(config, jobs=jobs)


def test_parallel_scan_matches_sequential():
    config = ScanConfig(kind=NORMAL, identity="jacobi", max_degree=2)
    assert scan(config, jobs=2) == scan(config, jobs=1)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, workers", [(3, [3]), (None, [])])
def test_scan_jobs_are_clamped_to_the_cpu_count(monkeypatch, cpus, workers):
    # No real pool is started: the fake records the size it was asked for.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "started", [])
    config = ScanConfig(kind=NORMAL, identity="jacobi", max_degree=2)
    assert scan(config, jobs=10_000) == scan(config, jobs=1)
    assert _SerialPool.started == workers


def test_a_record_holds_its_triple_and_residual_only():
    assert [f.name for f in dataclasses.fields(ViolationRecord)] == ["triple", "residual"]
    # Nothing is derived from them on the class either.
    assert not [name for name in vars(ViolationRecord) if not name.startswith("_")]
    records = scan(ScanConfig(kind=ALEKSANDROV, identity="jacobi", max_degree=3))
    assert records
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert copy.residual.min_hbar_degree() == record.residual.min_hbar_degree() == 2


@pytest.mark.parametrize("residual", ["x", "x + hbar*q"])
def test_an_hbar_free_residual_is_an_internal_failure(monkeypatch, residual):
    # Every violation is at least O(hbar); a residual with an hbar^0 term
    # means the algebra is broken, and the scan says so instead of recording it.
    monkeypatch.setattr(explorer, "jacobi_residual",
                        lambda *args: ResidualReport(parse(residual)))
    with pytest.raises(RuntimeError, match="hbar-free content"):
        scan(ScanConfig(kind=NORMAL, max_degree=0))


# --- leibniz scans ----------------------------------------------------------------

def test_commutator_leibniz_scan_is_empty_on_quantum_monomials():
    config = ScanConfig(kind=BracketKind.COMMUTATOR, identity="leibniz",
                        max_degree=3, sector="quantum")
    assert scan(config) == []


def test_poisson_leibniz_scan_is_empty_on_classical_monomials():
    config = ScanConfig(kind=BracketKind.POISSON, identity="leibniz",
                        max_degree=3, sector="classical")
    assert scan(config) == []


def test_mixed_leibniz_scans_find_witnesses_at_low_degree():
    for kind in (ALEKSANDROV, NORMAL):
        config = ScanConfig(kind=kind, identity="leibniz", max_degree=2)
        records = scan(config)
        assert records, kind
        # ordered triples: leibniz has no permutation symmetry to exploit
        triples = {tuple(tuple(m) for m in r.triple) for r in records}
        assert ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)) in triples


# --- random generation ---------------------------------------------------------

def test_random_observable_degree_zero_is_a_nonzero_constant():
    a = random_observable(11, 0, 1)
    assert a
    assert list(a.terms) == [(0, 0, 0, 0)]


def test_random_observable_is_deterministic():
    assert random_observable(99) == random_observable(99)
    assert random_observable(99) != random_observable(100)


def test_random_observable_respects_bounds():
    for seed in range(20):
        a = random_observable(seed, 3, 4)
        assert 1 <= len(a.terms) <= 4
        assert all(sum(m) <= 3 for m in a.terms)


def test_random_observable_sectors():
    for seed in range(10):
        assert random_observable(seed, 3, 3, sector="classical").is_classical()
        assert random_observable(seed, 3, 3, sector="quantum").is_quantum()


def test_random_observable_rejects_empty_budget():
    with pytest.raises(ValueError):
        random_observable(0, 3, 0)
    # No monomial has a negative degree, so nothing could be drawn.
    with pytest.raises(ValueError, match="max_degree"):
        random_observable(0, max_degree=-1)
    assert random_observable(0, max_degree=0) == random_observable(0, 0, 1)
    # Not truncated and not read as "all": the same checks as ScanConfig.
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="max_degree"):
            random_observable(0, max_degree=bad)
        with pytest.raises(ValueError, match="max_terms"):
            random_observable(0, max_terms=bad)
    with pytest.raises(ValueError, match="unknown sector 'bosonic'"):
        random_observable(0, sector="bosonic")


def test_random_observable_pool_cap(monkeypatch):
    # Every draw under the cap is unchanged: the same seed gives the same value.
    assert random_observable(7) == build({(0, 1, 0, 0): {0: ((8, 7), -4)},
                                          (0, 1, 1, 0): {2: (-1, 9)},
                                          (1, 0, 0, 2): {0: (-1, 2)}})
    assert random_observable(3, 2, 2, sector="quantum") == build(
        {(0, 0, 1, 1): {1: (3, (-9, 8))}})
    assert RANDOM_POOL_CAP == 10**6
    # The largest pools allowed, counted without listing them.
    assert _sector_size(67, "all") <= RANDOM_POOL_CAP < _sector_size(68, "all")
    assert _sector_size(1412, "quantum") <= RANDOM_POOL_CAP < _sector_size(1413, "quantum")

    def no_listing(max_degree, sector):
        raise AssertionError("monomials listed past the cap")

    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_sector_monomials", no_listing)
        for degree, sector in ((68, "all"), (1413, "classical"), (600, "all")):
            size = _sector_size(degree, sector)
            with pytest.raises(ValueError, match=f"pool of {size} monomials exceeds "
                                                 "the cap of 1000000"):
                random_observable(0, degree, sector=sector)
    # At the edge of a smaller cap: a pool of exactly the cap draws as before.
    for cap, degree, sector in ((35, 3, "all"), (28, 6, "quantum")):
        expected = random_observable(5, degree, sector=sector)
        with monkeypatch.context() as patch:
            patch.setattr(explorer, "RANDOM_POOL_CAP", cap)
            assert _sector_size(degree, sector) == cap
            assert random_observable(5, degree, sector=sector) == expected
            with pytest.raises(ValueError, match=f"exceeds the cap of {cap}"):
                random_observable(5, degree + 1, sector=sector)


# --- axiom sweeps ----------------------------------------------------------------

def test_axiom_sweep_mixed_kinds_hold():
    assert axiom_sweep(ALEKSANDROV, 60, 5) == []
    assert axiom_sweep(NORMAL, 60, 5) == []


def test_axiom_sweep_zero_samples():
    # An empty sweep would read as "no violations", so it is refused.
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be positive"):
            axiom_sweep(NORMAL, samples, 5)
    # True would run one sample and 2.5 would fail inside range().
    for samples in (2.5, True):
        with pytest.raises(ValueError, match="samples must be an int"):
            axiom_sweep(NORMAL, samples, 0)


def test_axiom_sweep_detects_violations():
    # the plain commutator kills every classical factor, so the classical
    # half of the factorization rule fails almost surely
    violations = axiom_sweep(BracketKind.COMMUTATOR, 10, 1)
    assert violations
    assert all(not report.is_zero for report in violations)
