"""Search for bracket-identity violations over bounded-degree monomials.

Exhaustive scans enumerate every monomial triple up to a degree cap and
report the triples whose Jacobi or Leibniz residual is nonzero.  Scanning
monomials with coefficient 1 loses nothing: every bracket is bilinear, so a
violation on polynomial observables restricts to one on a monomial triple.

Scans are deterministic for a given configuration, independent of the worker
count used to parallelize them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from math import comb
from typing import Iterable

from .algebra import (
    GaussianRational,
    HbarSeries,
    Monomial,
    Observable,
    monomial_observable,
)
from .brackets import (
    _pair_table,
    ANTISYMMETRIC_KINDS,
    BracketKind,
    ResidualReport,
    axiom_residuals,
    jacobi_residual,
    leibniz_residual,
)

IDENTITIES = ("jacobi", "leibniz")
SECTORS = ("all", "classical", "quantum")
# A scan past this many triples is refused before any work starts; degree-6
# Leibniz (9.26 million triples) is the largest full-sector scan allowed.
SCAN_TRIPLE_CAP = 10**7
# An axiom sweep past this many quadruples is refused before any is drawn;
# at about 1.1 ms a quadruple that is an 18-minute run.
AXIOM_SAMPLE_CAP = 10**6
# random_observable refuses a monomial pool past this size before drawing, which
# bounds the grade walk in _monomial.
RANDOM_POOL_CAP = 10**6


def _check_count(name: str, value: int, least: int) -> None:
    """Refuse a count that is not an int (a bool is not one) or is below ``least``, 0 or 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}")


def _check_cap(what: str, count: int, cap: int) -> None:
    """Refuse ``count`` past ``cap``; ``what``, say "scan of {} triples", takes the count."""
    if count > cap:
        try:
            text = str(count)
        except ValueError:  # past the int-to-str digit limit
            text = f"at least 2**{count.bit_length() - 1}"
        raise ValueError(f"{what.format(text)} exceeds the cap of {cap}")


@dataclass(frozen=True)
class ScanConfig:
    """What to scan: which identity, which bracket, over which monomials."""

    kind: BracketKind
    identity: str = "jacobi"
    max_degree: int = 3
    sector: str = "all"

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BracketKind):
            raise ValueError(f"kind must be a BracketKind, not {self.kind!r}")
        if self.identity not in IDENTITIES:
            raise ValueError(f"unknown identity {self.identity!r}")
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        _check_count("max_degree", self.max_degree, 0)


@dataclass(frozen=True)
class ViolationRecord:
    """A triple whose identity residual did not vanish, with the exact residual."""

    triple: tuple[Monomial, Monomial, Monomial]
    residual: Observable


def _monomial(index: int, sector: str) -> Monomial:
    """The ``index``-th monomial of ``sector`` in graded-lexicographic order.

    Grade ascending, then (n_x, n_k, n_q, n_p) lexicographically ascending;
    a pure sector keeps that order.  Each exponent is found by counting the
    monomials before it, so none is listed.
    """
    variables = 4 if sector == "all" else 2
    degree = 0
    while index >= (size := comb(degree + variables - 1, variables - 1)):
        index -= size
        degree += 1
    exponents = []
    for rest in range(variables - 1, 0, -1):
        # C(degree - e + rest - 1, rest - 1) monomials of this grade lead with e.
        e = 0
        while index >= (size := comb(degree - e + rest - 1, rest - 1)):
            index -= size
            e += 1
        exponents.append(e)
        degree -= e
    exponents.append(degree)
    if sector == "all":
        return tuple(exponents)
    return (*exponents, 0, 0) if sector == "classical" else (0, 0, *exponents)


def _sector_monomials(max_degree: int, sector: str) -> list[Monomial]:
    return [_monomial(i, sector) for i in range(_sector_size(max_degree, sector))]


def _sector_size(max_degree: int, sector: str) -> int:
    """How many monomials ``_sector_monomials`` lists, without listing them."""
    variables = 4 if sector == "all" else 2
    return comb(max_degree + variables, variables)


def _triples(config: ScanConfig, count: int) -> tuple[int, Iterable[tuple[int, int, int]]]:
    """The number of index triples over ``count`` monomials, and a lazy walk of them.

    Jacobi's cyclic/anticyclic symmetry lets one sorted triple stand for its
    orbit where the bracket is antisymmetric, which ordered_poisson is only on
    the classical sector.  itertools copies range(count) when called, so only
    a started walk does: reading the count lists nothing.
    """
    canonical = config.identity == "jacobi" and (
        config.kind in ANTISYMMETRIC_KINDS or config.sector == "classical")
    def walk():
        yield from (combinations_with_replacement(range(count), 3) if canonical
                    else product(range(count), repeat=3))
    return (comb(count + 2, 3) if canonical else count ** 3), walk()


def _scan_range(config: ScanConfig, lo: int, hi: int) -> list[ViolationRecord]:
    # Workers re-derive their span of the triple enumeration; only
    # (config, lo, hi) crosses the process boundary on the way in.
    monos = _sector_monomials(config.max_degree, config.sector)
    observables = [monomial_observable(m) for m in monos]
    # Looked up when the range runs, so a rebinding of these module globals holds.
    residual_of = jacobi_residual if config.identity == "jacobi" else leibniz_residual
    out = []
    with _pair_table(config.kind, observables):
        for i, j, k in islice(_triples(config, len(monos))[1], lo, hi):
            a, b, c = observables[i], observables[j], observables[k]
            residual = residual_of(config.kind, a, b, c).residual
            if not residual:
                continue
            if not residual.min_hbar_degree():
                # The classical limit guarantees violations are O(hbar);
                # anything else means the algebra itself is broken.
                raise RuntimeError(
                    f"residual for {(i, j, k)} has hbar-free content; internal failure")
            out.append(ViolationRecord((monos[i], monos[j], monos[k]), residual))
    return out


def scan(config: ScanConfig, jobs: int = 1) -> list[ViolationRecord]:
    """Evaluate the configured identity on every monomial triple.

    Jacobi triples are canonicalized up to their cyclic/anticyclic symmetry
    where that is sound (see _triples); Leibniz has no such
    symmetry, so its triples are ordered.  Records come back sorted by
    (total triple degree, enumeration order) regardless of ``jobs``, which is
    clamped to the CPU count and must be a positive int.  A scan of more than
    ``SCAN_TRIPLE_CAP`` triples raises ValueError up front.
    """
    _check_count("jobs", jobs, 1)
    total, _ = _triples(config, _sector_size(config.max_degree, config.sector))
    _check_cap("scan of {} triples", total, SCAN_TRIPLE_CAP)
    # The pool starts every worker at once; more than one per core only
    # costs processes.
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1 or total < 256:
        records = _scan_range(config, 0, total)
    else:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-total // jobs)
        spans = [(i, min(i + step, total)) for i in range(0, total, step)]
        records = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_scan_range, *zip(*((config, lo, hi) for lo, hi in spans))):
                records.extend(chunk)
    # The spans are contiguous and map keeps their order, so records are in
    # enumeration order; the stable sort only groups them by degree.
    records.sort(key=lambda rec: sum(map(sum, rec.triple)))
    return records


def _random_gaussian(rng: random.Random) -> GaussianRational:
    while True:
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if re or im:
            return GaussianRational(re, im)


def _random_series(rng: random.Random) -> HbarSeries:
    degrees = rng.sample((0, 1, 2), rng.randint(1, 2))
    return HbarSeries({d: _random_gaussian(rng) for d in degrees})


def _random_from(rng: random.Random, max_degree: int, max_terms: int,
                 sector: str) -> Observable:
    # sample picks positions only, so drawing them from a range and unranking
    # each gives what a listed pool would, without listing it.
    size = _sector_size(max_degree, sector)
    count = min(rng.randint(1, max_terms), size)
    monos = [_monomial(i, sector) for i in rng.sample(range(size), count)]
    # Distinct monomials with nonzero coefficients: the result cannot cancel.
    return Observable({m: _random_series(rng) for m in monos})


def random_observable(seed: int, max_degree: int = 3, max_terms: int = 4,
                      sector: str = "all") -> Observable:
    """Deterministic pseudo-random observable; same seed, same value.

    Monomials of degree <= max_degree, coefficients with numerators and
    denominators bounded by 9 and hbar-degree <= 2.  Raises ValueError for a
    sector not in SECTORS, unless max_degree >= 0 and max_terms >= 1 are ints
    (not bools), or for more than RANDOM_POOL_CAP monomials to draw from.
    """
    if sector not in SECTORS:
        raise ValueError(f"unknown sector {sector!r}")
    _check_count("max_degree", max_degree, 0)
    _check_count("max_terms", max_terms, 1)
    _check_cap("pool of {} monomials", _sector_size(max_degree, sector), RANDOM_POOL_CAP)
    return _random_from(random.Random(seed), max_degree, max_terms, sector)


def axiom_sweep(kind: BracketKind, samples: int, seed: int) -> list[ResidualReport]:
    """Check the sector-factorization axioms on random pure quadruples.

    Draws ``samples`` quadruples (C, Q, C', Q') of degree <= 3 and returns
    every nonzero axiom residual.  Expected empty for the aleksandrov and
    normal-order kinds.  Raises ValueError unless samples is an int (not a
    bool) with 1 <= samples <= AXIOM_SAMPLE_CAP.
    """
    _check_count("samples", samples, 1)
    _check_cap("axiom sweep of {} samples", samples, AXIOM_SAMPLE_CAP)
    rng = random.Random(seed)
    violations: list[ResidualReport] = []
    for _ in range(samples):
        c = _random_from(rng, 3, 3, "classical")
        q = _random_from(rng, 3, 3, "quantum")
        c2 = _random_from(rng, 3, 3, "classical")
        q2 = _random_from(rng, 3, 3, "quantum")
        violations.extend(report for report in axiom_residuals(kind, c, q, c2, q2)
                          if not report.is_zero)
    return violations
