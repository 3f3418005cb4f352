"""Exact brackets on mixed quantum-classical polynomial observables.

Observables are polynomials in a classical pair (x, k) and a quantum pair
(q, p) with [q, p] = i*hbar, kept in normal-ordered canonical form with
exact Gaussian-rational coefficients graded by powers of hbar.  The package
evaluates four candidate hybrid brackets, measures how far each is from
satisfying the Jacobi identity and the Leibniz rule, and scans bounded
degree observables for violations.
"""

from .algebra import (
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
    monomial_observable,
    partial_k,
    partial_p,
    partial_q,
    partial_x,
    reorder,
    scale,
    symbol_poisson,
)
from .brackets import (
    MIXED_KINDS,
    BracketKind,
    InvalidSectorError,
    ResidualReport,
    aleksandrov_bracket,
    axiom_residuals,
    bracket,
    classical_limit_residual,
    jacobi_residual,
    leibniz_residual,
    normal_bracket,
    normal_bracket_classical,
    ordered_poisson,
    quantum_bracket,
)
from .cli import (
    ExponentError,
    OutputRecord,
    format_observable,
    parse,
    run,
)
from .explorer import (
    ScanConfig,
    ViolationRecord,
    axiom_sweep,
    enumerate_monomials,
    random_observable,
    scan,
)

__all__ = [
    "GaussianRational",
    "HbarSeries",
    "QCMonomial",
    "Observable",
    "NotDivisibleError",
    "ZERO",
    "ONE",
    "generator",
    "from_scalar",
    "scale",
    "reorder",
    "partial_x",
    "partial_k",
    "partial_q",
    "partial_p",
    "divide_by_i_hbar",
    "hbar_zero",
    "symbol_poisson",
    "monomial_observable",
    "BracketKind",
    "ResidualReport",
    "InvalidSectorError",
    "MIXED_KINDS",
    "quantum_bracket",
    "ordered_poisson",
    "aleksandrov_bracket",
    "normal_bracket_classical",
    "normal_bracket",
    "bracket",
    "jacobi_residual",
    "leibniz_residual",
    "axiom_residuals",
    "classical_limit_residual",
    "ScanConfig",
    "ViolationRecord",
    "enumerate_monomials",
    "scan",
    "random_observable",
    "axiom_sweep",
    "ExponentError",
    "OutputRecord",
    "parse",
    "format_observable",
    "run",
]

__version__ = "0.1.0"
