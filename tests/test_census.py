"""The violation census: exact violation counts, cell by cell.

A cell is (kind, identity, sector, total triple degree, min-hbar degree)
within one exhaustive scan to a degree bound.  ``CENSUS`` maps each scan to
its nonempty cells, so ``{}`` is a scan with no violation.  The counts were
recorded from scans that computed every bracket afresh, with no pair table;
any mismatch is a bug, never a count to update.
"""

from collections import Counter
from itertools import product

import pytest

from qcbracket import BracketKind, ScanConfig, scan
from qcbracket.explorer import IDENTITIES, SECTORS

_EMPTY_CELLS = {(kind, identity, sector, 2): {}
                for kind, identity, sector in product(BracketKind, IDENTITIES, SECTORS)}
# No bracket violates either identity on one sector alone to degree 3.
_PURE_SECTOR_CELLS = {(kind, identity, sector, 3): {}
                      for kind, identity, sector in product(
                          BracketKind, IDENTITIES, ("classical", "quantum"))}

# (kind, identity, sector, max degree) -> {(total degree, min-hbar degree): count}
CENSUS = {
    **_EMPTY_CELLS,
    **_PURE_SECTOR_CELLS,
    (BracketKind.POISSON, "jacobi", "all", 2): {(6, 1): 24},
    (BracketKind.POISSON, "leibniz", "all", 2): {(4, 1): 4, (5, 1): 32, (6, 1): 64},
    (BracketKind.ALEKSANDROV, "leibniz", "all", 2): {(4, 1): 8, (5, 1): 64, (6, 1): 120},
    (BracketKind.NORMAL_ORDER, "jacobi", "all", 2): {(6, 1): 2},
    (BracketKind.NORMAL_ORDER, "leibniz", "all", 2): {(4, 1): 4, (5, 1): 32, (6, 1): 64},
    (BracketKind.POISSON, "jacobi", "all", 3):
        {(6, 1): 48, (7, 1): 408, (8, 1): 1068, (9, 1): 1224},
    (BracketKind.COMMUTATOR, "jacobi", "all", 3): {},
    # Every Aleksandrov Jacobi violation here is of order hbar^2.
    (BracketKind.ALEKSANDROV, "jacobi", "all", 3): {(8, 2): 16, (9, 2): 32},
    (BracketKind.NORMAL_ORDER, "jacobi", "all", 3):
        {(6, 1): 2, (7, 1): 24, (8, 1): 94, (9, 1): 118},
    # 4,020 violations, all of order hbar.
    (BracketKind.POISSON, "leibniz", "all", 3):
        {(4, 1): 4, (5, 1): 48, (6, 1): 264, (7, 1): 840, (8, 1): 1504, (9, 1): 1360},
    (BracketKind.COMMUTATOR, "leibniz", "all", 3): {},
    # 7,304 violations of order hbar and 76 of order hbar^2.
    (BracketKind.ALEKSANDROV, "leibniz", "all", 3):
        {(4, 1): 8, (5, 1): 96, (6, 1): 520, (7, 1): 1592, (8, 1): 2712, (9, 1): 2376,
         (7, 2): 8, (8, 2): 32, (9, 2): 36},
    # 4,210 violations, all of order hbar.
    (BracketKind.NORMAL_ORDER, "leibniz", "all", 3):
        {(4, 1): 4, (5, 1): 48, (6, 1): 268, (7, 1): 866, (8, 1): 1576, (9, 1): 1448},
}


@pytest.mark.parametrize("kind, identity, sector, max_degree", list(CENSUS),
                         ids=lambda v: getattr(v, "value", v))
def test_violation_counts_per_cell(kind, identity, sector, max_degree):
    records = scan(ScanConfig(kind=kind, identity=identity,
                              max_degree=max_degree, sector=sector))
    cells = Counter((sum(map(sum, rec.triple)), rec.residual_min_hbar_degree)
                    for rec in records)
    assert cells == CENSUS[kind, identity, sector, max_degree]
