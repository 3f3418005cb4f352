"""The four dynamical brackets and their identity residuals.

Four candidate brackets act on mixed observables:

* ``poisson``      {A,B} on the classical pair only, operator products taken
                   in written order,
* ``commutator``   [A,B]/(i*hbar),
* ``aleksandrov``  commutator plus the symmetrized classical part
                   ([A,B]/(i*hbar) + ({A,B} - {B,A})/2),
* ``normal_order`` commutator plus a classical part that Poisson-brackets the
                   x,k coefficient functions and concatenates the q,p words
                   without reordering.

The commutator is one pass of ``algebra._product`` over the antisymmetrized
word table ``_commuted``, divided by i*hbar; the hbar-free terms of AB and BA
are never built.  The classical parts of ``poisson``, ``aleksandrov`` and
``normal_order`` are the same kernel with ``poisson=True``, with the q,p words
joined in written order (``_reordered``), as the mean of both orders
(``_symmetrized``), or concatenated (``_concatenated``).  This module only
defines brackets and residuals; the tables and the kernel live in ``algebra``.

Residual functionals (Jacobi, Leibniz, the sector-factorization axioms) return
a ``ResidualReport`` holding the full residual observable, so that violation
magnitudes are inspectable exactly, not just as booleans.

In a scan, whose monomials carry the unit coefficient series, products with it
are free (``HbarSeries.__mul__``), an antisymmetric kind's Jacobi residual is
zero uncomputed when an argument repeats, and ``_pair_table`` brackets each
ordered pair of the N scanned observables once, through the dispatch, when a
scan range starts.  Inside it the dispatch reads that table, keyed by the ids
of the observables, which the context keeps alive.  It holds no kind: a scan
runs one kind's residual, and the mixed brackets call ``quantum_bracket``
directly.  Any other pair, an equal but distinct observable included, computes.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import product

from .algebra import (
    Observable,
    ZERO,
    _commuted,
    _concatenated,
    _product,
    _reordered,
    _symmetrized,
    divide_by_i_hbar,
)


class InvalidSectorError(ValueError):
    """An input violated a purity requirement (classical-only or quantum-only)."""


class BracketKind(enum.Enum):
    POISSON = "poisson"
    COMMUTATOR = "commutator"
    ALEKSANDROV = "aleksandrov"
    NORMAL_ORDER = "normal_order"


MIXED_KINDS = (BracketKind.ALEKSANDROV, BracketKind.NORMAL_ORDER)
# The kinds antisymmetric on every input; ordered_poisson is so only on
# classical ones.  A tuple, so ``in`` matches by identity with no enum hash.
ANTISYMMETRIC_KINDS = (BracketKind.COMMUTATOR, *MIXED_KINDS)


@dataclass(frozen=True)
class ResidualReport:
    """One identity check: the exact residual, zero when the identity holds."""

    residual: Observable

    @property
    def is_zero(self) -> bool:
        return not self.residual


def quantum_bracket(a: Observable, b: Observable) -> Observable:
    """(A,B)_q = (AB - BA)/(i*hbar).

    One pass of the product kernel over the antisymmetrized word table: the
    hbar-free terms of AB and BA, which would cancel, are never built.
    """
    return divide_by_i_hbar(_product(a, b, _commuted))


def ordered_poisson(a: Observable, b: Observable) -> Observable:
    """{A,B} on the classical pair, with operator products in written order.

    dA/dx * dB/dk - dA/dk * dB/dx.  On purely classical inputs this is the
    ordinary Poisson bracket; on mixed inputs the written-order products make
    it non-antisymmetric, which is why the symmetrized combination below
    exists.
    """
    return _product(a, b, _reordered, poisson=True)


def aleksandrov_bracket(a: Observable, b: Observable) -> Observable:
    """Commutator part plus the explicitly symmetrized classical part.

    The pair weight flips sign under a <-> b, so ({A,B} - {B,A})/2 is the
    classical part with each word replaced by the mean of its two orders.
    """
    return quantum_bracket(a, b) + _product(a, b, _symmetrized, poisson=True)


def normal_bracket(a: Observable, b: Observable) -> Observable:
    """Normal-ordered bracket: quantum part plus the coefficient-Poisson part.

    For terms a_nm(x,k) q^n p^m and b_rt(x,k) q^r p^t the classical part is
    {a_nm, b_rt} q^(n+r) p^(m+t): the x,k coefficients are Poisson-bracketed
    and the quantum words concatenate with no reordering, so no hbar is
    generated.
    """
    return quantum_bracket(a, b) + _product(a, b, _concatenated, poisson=True)


# None outside ``_pair_table``.  Inside, a dict with a key (id(a), id(b)) for
# each ordered pair of scanned observables, its value their bracket.
_PAIR_TABLE: ContextVar[dict | None] = ContextVar("pair_table", default=None)


@contextmanager
def _pair_table(kind: BracketKind, observables):
    """Bracket each ordered pair of ``observables``, then remember them in this context."""
    # Scans do not nest, so no table is live yet and the dispatch computes each pair.
    fn = _DISPATCH[kind]
    table = {(id(a), id(b)): fn(a, b) for a, b in product(observables, repeat=2)}
    token = _PAIR_TABLE.set(table)
    try:
        yield
    finally:
        _PAIR_TABLE.reset(token)


def _tabled(fn):
    """``fn``, read from the live pair table for two scanned observables."""
    def tabled(a: Observable, b: Observable) -> Observable:
        table = _PAIR_TABLE.get()
        value = table.get((id(a), id(b))) if table else None
        return fn(a, b) if value is None else value
    return tabled


_DISPATCH = {BracketKind.POISSON: _tabled(ordered_poisson),
             BracketKind.COMMUTATOR: _tabled(quantum_bracket),
             BracketKind.ALEKSANDROV: _tabled(aleksandrov_bracket),
             BracketKind.NORMAL_ORDER: _tabled(normal_bracket)}


def _dispatch(kind: BracketKind):
    """The dispatched bracket function of ``kind``; ValueError for a non-kind."""
    try:
        return _DISPATCH[kind]
    except (KeyError, TypeError):
        raise ValueError(f"kind must be a BracketKind, not {kind!r}") from None


def bracket(kind: BracketKind, a: Observable, b: Observable) -> Observable:
    """Evaluate the bracket of the chosen kind."""
    return _dispatch(kind)(a, b)


def jacobi_residual(kind: BracketKind, a: Observable, b: Observable,
                    c: Observable) -> ResidualReport:
    """((A,B),C) + ((B,C),A) + ((C,A),B); zero exactly when Jacobi holds."""
    fn = _dispatch(kind)
    if kind in ANTISYMMETRIC_KINDS and (a is b or b is c or c is a):
        return ResidualReport(ZERO)
    return ResidualReport(fn(fn(a, b), c) + fn(fn(b, c), a) + fn(fn(c, a), b))


def leibniz_residual(kind: BracketKind, a: Observable, b: Observable,
                     c: Observable) -> ResidualReport:
    """(AB,C) - (A,C)B - A(B,C), operator products in written order."""
    fn = _dispatch(kind)
    return ResidualReport(fn(a * b, c) - (fn(a, c) * b + a * fn(b, c)))


def axiom_residuals(kind: BracketKind, c: Observable, q: Observable,
                    c2: Observable, q2: Observable) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of the two sector-factorization axioms.

    With C, C' purely classical and Q, Q' purely quantum:

        (CQ, C') - {C, C'} Q
        (CQ, Q') - ([Q, Q']/(i*hbar)) C

    Mixed inputs are rejected rather than silently projected.
    """
    for label, obs in (("C", c), ("C'", c2)):
        if not obs.is_classical():
            raise InvalidSectorError(f"{label} must be purely classical")
    for label, obs in (("Q", q), ("Q'", q2)):
        if not obs.is_quantum():
            raise InvalidSectorError(f"{label} must be purely quantum")
    cq = c * q
    first = bracket(kind, cq, c2) - ordered_poisson(c, c2) * q
    second = bracket(kind, cq, q2) - quantum_bracket(q, q2) * c
    return ResidualReport(first), ResidualReport(second)
