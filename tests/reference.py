"""A reference algebra for the tests that shares no code with ``qcbracket``.

A value is a dict from ``(n_x, n_k, n_q, n_p, hbar)`` to a nonzero
``(re, im)`` pair of ints or ``Fraction``s, the coefficient of
x^n_x k^n_k q^n_q p^n_p times hbar to the power ``hbar``, every q left of
every p.  Each operation is written from its definition.  The operator
product is the standard-ordered star product of Agarwal & Wolf (Phys. Rev.
D 2, 2161, 1970), on top of partial derivatives and the commutative symbol
product.  The brackets are built from those, as is ``symbol_poisson``, the
commutative Poisson bracket that the mixed brackets reduce to at hbar = 0.
Jacobi and Leibniz compute all their terms whatever the arguments.
``swaps`` normal-orders p^t q^r by literal rewrites, knowing nothing of a
closed form.  A part stays an int while it is integral, which keeps
exhaustive scans affordable.
"""

from fractions import Fraction
from math import factorial


def _put(out, key, re, im):
    """Add re + im*i at ``key``; a sum that cancels leaves no key."""
    old_re, old_im = out.pop(key, (0, 0))
    re, im = old_re + re, old_im + im
    if re or im:
        out[key] = (re, im)


def add(*values):
    out = {}
    for value in values:
        for key, (re, im) in value.items():
            _put(out, key, re, im)
    return out


def scale(a, re, im=0):
    """Every coefficient times re + im*i."""
    if not (re or im):
        return {}
    return {key: (a_re * re - a_im * im, a_re * im + a_im * re)
            for key, (a_re, a_im) in a.items()}


def sub(a, b):
    return add(a, scale(b, -1))


def divided(a, n):
    """Every coefficient divided by the positive int ``n``; an int quotient stays an int."""
    return {key: tuple(x // n if type(x) is int and not x % n else Fraction(x, n) for x in c)
            for key, c in a.items()}


def derivative(a, axis, times=1):
    """The ``times``-th partial derivative along exponent ``axis`` (x, k, q, p = 0..3)."""
    out = {}
    for key, (re, im) in a.items():
        e = key[axis]
        if e >= times:
            f = factorial(e) // factorial(e - times)
            _put(out, key[:axis] + (e - times,) + key[axis + 1:], re * f, im * f)
    return out


def symbol_product(a, b):
    """The commutative product: exponents and hbar degrees add, nothing reorders."""
    out = {}
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3], k1[4] + k2[4])
            _put(out, key, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    return out


def star(f, g):
    """f*g = sum_j (-i*hbar)^j/j! d_p^j f d_q^j g; the sum stops where a derivative vanishes."""
    total, j, weight = {}, 0, (1, 0)  # weight = (-i)^j
    while True:
        df, dg = derivative(f, 3, j), derivative(g, 2, j)
        if not (df and dg):
            return total
        term = symbol_product(symbol_product(df, dg), {(0, 0, 0, 0, j): weight})
        total = add(total, divided(term, factorial(j)))
        j, weight = j + 1, (weight[1], -weight[0])


def hbar_zero(a):
    """The hbar-free terms of ``a``."""
    return {key: c for key, c in a.items() if key[4] == 0}


def divided_by_i_hbar(a):
    """Each coefficient c*hbar^h becomes (c/i)*hbar^(h-1): (re, im) -> (im, -re)."""
    if any(key[4] == 0 for key in a):
        raise ArithmeticError("an hbar-free coefficient is not divisible by i*hbar")
    return {key[:4] + (key[4] - 1,): (im, -re) for key, (re, im) in a.items()}


def swaps(t, r):
    """p^t q^r normal-ordered by rewriting the first pq to qp - i*hbar until none is left."""
    pending, done = {("p" * t + "q" * r, 0): (1, 0)}, {}
    while pending:
        successors = {}
        for (word, h), (re, im) in pending.items():
            spot = word.find("pq")
            if spot < 0:
                _put(done, (0, 0, word.count("q"), word.count("p"), h), re, im)
                continue
            _put(successors, (word[:spot] + "qp" + word[spot + 2:], h), re, im)
            _put(successors, (word[:spot] + word[spot + 2:], h + 1), im, -re)
        pending = successors
    return done


# --- the four brackets and the two identities ---------------------------------

def commutator(a, b):
    """[A,B]/(i*hbar), from both star products."""
    return divided_by_i_hbar(sub(star(a, b), star(b, a)))


def poisson(a, b):
    """dA/dx dB/dk - dA/dk dB/dx, star products in written order."""
    return sub(star(derivative(a, 0), derivative(b, 1)),
               star(derivative(a, 1), derivative(b, 0)))


def aleksandrov(a, b):
    """[A,B]/(i*hbar) + ({A,B} - {B,A})/2."""
    return add(commutator(a, b), divided(sub(poisson(a, b), poisson(b, a)), 2))


def normal_classical(a, b):
    """dA/dx dB/dk - dA/dk dB/dx, symbol products: the q,p words concatenate unreordered."""
    return sub(symbol_product(derivative(a, 0), derivative(b, 1)),
               symbol_product(derivative(a, 1), derivative(b, 0)))


def normal(a, b):
    return add(commutator(a, b), normal_classical(a, b))


def symbol_poisson(a, b):
    """dA/dx dB/dk - dA/dk dB/dx + dA/dq dB/dp - dA/dp dB/dq, all products commutative."""
    def half(u, v):
        return sub(symbol_product(derivative(a, u), derivative(b, v)),
                   symbol_product(derivative(a, v), derivative(b, u)))
    return add(half(0, 1), half(2, 3))


# Keyed by the values of ``qcbracket.BracketKind``.
BRACKETS = {"poisson": poisson, "commutator": commutator,
            "aleksandrov": aleksandrov, "normal_order": normal}


def jacobi(bracket, a, b, c):
    """((A,B),C) + ((B,C),A) + ((C,A),B)."""
    return add(bracket(bracket(a, b), c), bracket(bracket(b, c), a),
               bracket(bracket(c, a), b))


def leibniz(bracket, a, b, c):
    """(AB,C) - (A,C)B - A(B,C), star products in written order."""
    return sub(bracket(star(a, b), c), add(star(bracket(a, c), b), star(a, bracket(b, c))))


def monomials(max_degree):
    """Exponent vectors of degree <= max_degree: degree ascending, then lexicographic."""
    return [(n_x, n_k, n_q, d - n_x - n_k - n_q) for d in range(max_degree + 1)
            for n_x in range(d + 1) for n_k in range(d - n_x + 1)
            for n_q in range(d - n_x - n_k + 1)]


# Whether an exponent vector lies in each sector of ``qcbracket.explorer.SECTORS``.
IN_SECTOR = {"all": lambda m: True, "classical": lambda m: not (m[2] or m[3]),
             "quantum": lambda m: not (m[0] or m[1])}
