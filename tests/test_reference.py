"""The reference algebra stands apart from the package it checks.

``tests/reference.py`` may import ``fractions`` and ``math`` alone, and
``tests/oracles.py`` only the three value types its converters, ``build``
and ``assert_canonical`` construct or read.  The converters round-trip, and
the reference reproduces the paper's two witnesses on its own.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

from qcbracket import HbarSeries, random_observable
from qcbracket.explorer import SECTORS
import reference
from oracles import build, from_reference, to_reference

HERE = Path(__file__).parent


def _imports(name):
    """(module, imported names) of every import statement in tests/``name``."""
    out = []
    for node in ast.walk(ast.parse((HERE / name).read_text())):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out.append((module, tuple(alias.name for alias in node.names)))
    return out


def _stdlib(module):
    top = module.split(".")[0]
    return top in sys.stdlib_module_names and top != "importlib"


def test_the_reference_imports_nothing_from_the_package():
    imports = _imports("reference.py")
    assert {module for module, _ in imports} == {"fractions", "math"}, imports
    assert "__import__" not in (HERE / "reference.py").read_text()


def test_oracles_import_only_the_value_types_from_the_package():
    imports = _imports("oracles.py")
    package = [entry for entry in imports if not _stdlib(entry[0])]
    assert package == [("qcbracket", ("GaussianRational", "HbarSeries", "Observable"))]


def test_converters_round_trip():
    for seed in range(60):
        a = random_observable(seed, 3, 4, sector=SECTORS[seed % 3])
        assert from_reference(to_reference(a)) == a
    value = build({(1, 0, 2, 0): {0: (3, (1, 2)), 2: (0, -1)}, (0, 0, 0, 0): {1: (2, 0)}})
    expected = {(1, 0, 2, 0, 0): (3, Fraction(1, 2)), (1, 0, 2, 0, 2): (0, -1),
                (0, 0, 0, 0, 1): (2, 0)}
    assert to_reference(value) == expected
    assert all(type(part) is int for key in ((1, 0, 2, 0, 2), (0, 0, 0, 0, 1))
               for part in expected[key])
    assert to_reference(HbarSeries({0: 5, 3: Fraction(-1, 3)})) == {
        (0, 0, 0, 0, 0): (5, 0), (0, 0, 0, 0, 3): (Fraction(-1, 3), 0)}
    assert to_reference(HbarSeries()) == {} == to_reference(from_reference({}))


def test_the_reference_reproduces_the_witnesses():
    def mono(n_x, n_k, n_q, n_p):
        return {(n_x, n_k, n_q, n_p, 0): (1, 0)}

    cubic = (mono(1, 0, 1, 0), mono(1, 0, 1, 1), mono(0, 2, 0, 1))      # xq, xqp, k^2p
    quadratic = (mono(0, 1, 0, 1), mono(1, 0, 0, 1), mono(0, 0, 2, 0))  # kp, xp, q^2
    assert reference.jacobi(reference.aleksandrov, *cubic) == {
        (0, 0, 0, 0, 2): (Fraction(1, 2), 0)}
    assert reference.jacobi(reference.normal, *quadratic) == {(0, 0, 0, 0, 1): (0, -2)}
    # [q, p]/(i*hbar) = 1, and the commutator kills the classical pair.
    assert reference.commutator(mono(0, 0, 1, 0), mono(0, 0, 0, 1)) == mono(0, 0, 0, 0)
    assert reference.commutator(mono(1, 0, 0, 0), mono(0, 1, 0, 0)) == {}
    assert reference.poisson(mono(1, 0, 0, 0), mono(0, 1, 0, 0)) == mono(0, 0, 0, 0)


def test_the_reference_symbol_poisson_hand_values():
    def mono(n_x, n_k, n_q, n_p, h=0, c=1):
        return {(n_x, n_k, n_q, n_p, h): (c, 0)}

    x, k, q, p = mono(1, 0, 0, 0), mono(0, 1, 0, 0), mono(0, 0, 1, 0), mono(0, 0, 0, 1)
    qp, q2 = mono(0, 0, 1, 1), mono(0, 0, 2, 0)
    assert reference.symbol_poisson(x, k) == mono(0, 0, 0, 0)
    assert reference.symbol_poisson(q, p) == mono(0, 0, 0, 0)
    assert reference.symbol_poisson(k, x) == mono(0, 0, 0, 0, c=-1)
    assert reference.symbol_poisson(qp, q2) == mono(0, 0, 2, 0, c=-2)
    # {x*q, k*p} = x*k + q*p
    assert reference.symbol_poisson(mono(1, 0, 1, 0), mono(0, 1, 0, 1)) == {
        **mono(1, 1, 0, 0), **qp}
    # hbar_zero keeps the hbar-free terms: q*p - i*hbar -> q*p.
    assert reference.hbar_zero({**qp, (0, 0, 0, 0, 1): (0, -1)}) == qp
