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
    divide_by_i_hbar,
    from_scalar,
    generator,
    hbar_zero,
    monomial_observable,
    reorder,
    scale,
)
from .brackets import (
    MIXED_KINDS,
    BracketKind,
    InvalidSectorError,
    ResidualReport,
    aleksandrov_bracket,
    axiom_residuals,
    bracket,
    jacobi_residual,
    leibniz_residual,
    normal_bracket,
    ordered_poisson,
    quantum_bracket,
)
from .explorer import (
    ScanConfig,
    ViolationRecord,
    axiom_sweep,
    random_observable,
    scan,
)
from .syntax import (
    ExponentError,
    OutputRecord,
    format_observable,
    parse,
)

__all__ = [
    "GaussianRational",
    "HbarSeries",
    "Observable",
    "NotDivisibleError",
    "ZERO",
    "ONE",
    "generator",
    "from_scalar",
    "scale",
    "reorder",
    "divide_by_i_hbar",
    "hbar_zero",
    "monomial_observable",
    "BracketKind",
    "ResidualReport",
    "InvalidSectorError",
    "MIXED_KINDS",
    "quantum_bracket",
    "ordered_poisson",
    "aleksandrov_bracket",
    "normal_bracket",
    "bracket",
    "jacobi_residual",
    "leibniz_residual",
    "axiom_residuals",
    "ScanConfig",
    "ViolationRecord",
    "scan",
    "random_observable",
    "axiom_sweep",
    "ExponentError",
    "OutputRecord",
    "parse",
    "format_observable",
]

__version__ = "0.1.0"
