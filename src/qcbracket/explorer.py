"""Search for bracket-identity violations over bounded-degree monomials.

Exhaustive scans enumerate every monomial triple up to a degree cap and
report the triples whose Jacobi or Leibniz residual is nonzero.  Scanning
monomials with coefficient 1 loses nothing: every bracket is bilinear, so a
violation on polynomial observables restricts to one on a monomial triple.

Scans are deterministic for a given configuration, independent of the worker
count used to parallelize them.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from typing import Iterable, Sequence

from .algebra import (
    GaussianRational,
    HbarSeries,
    Observable,
    QCMonomial,
    monomial_observable,
)
from .brackets import (
    BracketKind,
    ResidualReport,
    axiom_residuals,
    jacobi_residual,
    leibniz_residual,
)

IDENTITIES = ("jacobi", "leibniz")
SECTORS = ("all", "classical", "quantum")


@dataclass(frozen=True)
class ScanConfig:
    """What to scan: which identity, which bracket, over which monomials."""

    kind: BracketKind
    identity: str = "jacobi"
    max_degree: int = 3
    sector: str = "all"
    include_zero: bool = False

    def __post_init__(self) -> None:
        if self.identity not in IDENTITIES:
            raise ValueError(f"unknown identity {self.identity!r}")
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")


@dataclass(frozen=True)
class ViolationRecord:
    """A triple whose identity residual did not vanish, with the exact residual."""

    triple: tuple[QCMonomial, QCMonomial, QCMonomial]
    residual: Observable
    residual_min_hbar_degree: int


def enumerate_monomials(max_degree: int) -> list[QCMonomial]:
    """All exponent vectors of total degree <= max_degree.

    Graded-lexicographic: grade ascending, then (n_x, n_k, n_q, n_p)
    lexicographically ascending within each grade.
    """
    out: list[QCMonomial] = []
    for d in range(max_degree + 1):
        for n_x in range(d + 1):
            for n_k in range(d - n_x + 1):
                for n_q in range(d - n_x - n_k + 1):
                    out.append(QCMonomial(n_x, n_k, n_q, d - n_x - n_k - n_q))
    return out


def _sector_monomials(config: ScanConfig) -> list[QCMonomial]:
    monos = enumerate_monomials(config.max_degree)
    if config.sector == "classical":
        return [m for m in monos if m.is_classical]
    if config.sector == "quantum":
        return [m for m in monos if m.is_quantum]
    return monos


def _canonicalize_triples(config: ScanConfig) -> bool:
    # Jacobi's cyclic/anticyclic symmetry needs an antisymmetric bracket.
    # ordered_poisson is antisymmetric only on the classical sector.
    if config.identity != "jacobi":
        return False
    if config.kind is BracketKind.POISSON:
        return config.sector == "classical"
    return True


def _index_triples(config: ScanConfig, count: int) -> Iterable[tuple[int, int, int]]:
    if _canonicalize_triples(config):
        return combinations_with_replacement(range(count), 3)
    return product(range(count), repeat=3)


def _evaluate(config: ScanConfig, monos: Sequence[QCMonomial],
              idx: tuple[int, int, int]):
    a, b, c = (monomial_observable(monos[i]) for i in idx)
    if config.identity == "jacobi":
        report = jacobi_residual(config.kind, a, b, c)
    else:
        report = leibniz_residual(config.kind, a, b, c)
    residual = report.residual
    if not residual:
        if not config.include_zero:
            return None
        min_deg = 0
    else:
        min_deg = residual.min_hbar_degree()
        if min_deg is None or min_deg < 1:
            # The classical limit guarantees violations are O(hbar); anything
            # else means the algebra itself is broken.
            raise RuntimeError(
                f"residual for {idx} has hbar-free content; internal failure")
    triple = tuple(monos[i] for i in idx)
    record = ViolationRecord(triple, residual, min_deg)
    degree = sum(m.degree for m in triple)
    return (degree, idx, record)


def _scan_range(config: ScanConfig, lo: int, hi: int):
    # Workers re-derive their span of the triple enumeration; only
    # (config, lo, hi) crosses the process boundary on the way in.
    monos = _sector_monomials(config)
    out = []
    for idx in islice(_index_triples(config, len(monos)), lo, hi):
        hit = _evaluate(config, monos, idx)
        if hit is not None:
            out.append(hit)
    return out


def scan(config: ScanConfig, jobs: int = 1) -> list[ViolationRecord]:
    """Evaluate the configured identity on every monomial triple.

    Jacobi triples are canonicalized up to their cyclic/anticyclic symmetry
    where that is sound (see _canonicalize_triples); Leibniz has no such
    symmetry, so its triples are ordered.  Records come back sorted by
    (total triple degree, enumeration order) regardless of ``jobs``.
    """
    monos = _sector_monomials(config)
    total = sum(1 for _ in _index_triples(config, len(monos)))
    if jobs <= 1 or total < 256:
        keyed = _scan_range(config, 0, total)
    else:
        step = -(-total // jobs)
        spans = [(i, min(i + step, total)) for i in range(0, total, step)]
        keyed = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_scan_range, *zip(*((config, lo, hi) for lo, hi in spans))):
                keyed.extend(chunk)
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [record for _, _, record in keyed]


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
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    pool = enumerate_monomials(max_degree)
    if sector == "classical":
        pool = [m for m in pool if m.is_classical]
    elif sector == "quantum":
        pool = [m for m in pool if m.is_quantum]
    count = min(rng.randint(1, max_terms), len(pool))
    monos = rng.sample(pool, count)
    # Distinct monomials with nonzero coefficients: the result cannot cancel.
    return Observable({m: _random_series(rng) for m in monos})


def random_observable(seed: int, max_degree: int = 3, max_terms: int = 4,
                      sector: str = "all") -> Observable:
    """Deterministic pseudo-random observable; same seed, same value.

    Monomials of degree <= max_degree, coefficients with numerators and
    denominators bounded by 9 and hbar-degree <= 2.
    """
    return _random_from(random.Random(seed), max_degree, max_terms, sector)


def axiom_sweep(kind: BracketKind, samples: int, seed: int) -> list[ResidualReport]:
    """Check the sector-factorization axioms on random pure quadruples.

    Draws ``samples`` quadruples (C, Q, C', Q') of degree <= 3 and returns
    every nonzero axiom residual.  Expected empty for the aleksandrov and
    normal-order kinds.
    """
    rng = random.Random(seed)
    violations: list[ResidualReport] = []
    for _ in range(samples):
        c = _random_from(rng, 3, 3, "classical")
        q = _random_from(rng, 3, 3, "quantum")
        c2 = _random_from(rng, 3, 3, "classical")
        q2 = _random_from(rng, 3, 3, "quantum")
        for report in axiom_residuals(kind, c, q, c2, q2):
            if not report.is_zero:
                violations.append(report)
    return violations
