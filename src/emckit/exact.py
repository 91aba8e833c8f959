"""Exact rationals: :class:`Rational`, a gcd-reduced int numerator over a
positive int denominator.

Every side of the proof chain's inequalities that is not an integer is a
``Rational``: the weights, the audits and the transversal bounds compute
with it.  It stands in for ``fractions.Fraction``, whose import also loads
``decimal`` and ``numbers``, and it has only what the package uses:
construction from ints, ``+ - * /`` with ints and rationals in either
order, int powers, the six comparisons, hashing, truth, negation and
``math.ceil``.  Sums, products and quotients reduce by the gcds of the
operands' parts, as ``Fraction`` does, so the integers stay small.

An operand with int ``numerator`` and ``denominator`` in lowest terms, a
``Fraction`` among them, mixes in exactly.  ``Fraction`` returns
``NotImplemented`` for an operand it does not know, so Python calls the
reflected method here; a ``Rational`` equals, and hashes like, the equal
``int`` and ``Fraction``.  Floats are refused: constructing from one, or
computing or ordering with one, raises ``TypeError``, and none is equal
to a ``Rational``.  ``Fraction`` is the oracle in ``tests/test_exact.py``.
"""

import sys
from math import gcd
from operator import ge, gt, le, lt

from .core import exact_parts as _parts

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Rational:
    """numerator / denominator in lowest terms, the denominator positive."""

    __slots__ = ("_numerator", "_denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if not isinstance(numerator, int) or not isinstance(denominator, int):
            raise TypeError(
                "Rational takes int parts, not "
                f"{type(numerator).__name__} and {type(denominator).__name__}"
            )
        if denominator == 0:
            raise ZeroDivisionError(f"Rational({numerator}, 0)")
        g = gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        self._numerator = numerator // g
        self._denominator = denominator // g

    @property
    def numerator(self) -> int:
        return self._numerator

    @property
    def denominator(self) -> int:
        return self._denominator

    def __repr__(self) -> str:
        return f"Rational({self._numerator}, {self._denominator})"

    def __reduce__(self):  # pickles under every protocol, as records do
        return Rational, (self._numerator, self._denominator)

    # int and Rational operands take the first branches; any other exact
    # operand goes through _parts, and anything else is NotImplemented

    def __add__(a, b):
        if type(b) is Rational:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return _new(a._numerator + b * a._denominator, a._denominator)
        parts = _parts(b)
        return NotImplemented if parts is None else _add(a._numerator, a._denominator, *parts)

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Rational:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if type(b) is int:
            return _new(a._numerator - b * a._denominator, a._denominator)
        parts = _parts(b)
        if parts is None:
            return NotImplemented
        return _add(a._numerator, a._denominator, -parts[0], parts[1])

    def __rsub__(b, a):  # a - b
        return (-b).__add__(a)

    def __mul__(a, b):
        if type(b) is Rational:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            g = gcd(b, a._denominator)
            return _new(a._numerator * (b // g), a._denominator // g)
        parts = _parts(b)
        return NotImplemented if parts is None else _mul(a._numerator, a._denominator, *parts)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Rational:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        parts = (b, 1) if type(b) is int else _parts(b)
        return NotImplemented if parts is None else _div(a._numerator, a._denominator, *parts)

    def __rtruediv__(b, a):  # a / b
        parts = (a, 1) if type(a) is int else _parts(a)
        return NotImplemented if parts is None else _div(*parts, b._numerator, b._denominator)

    def __pow__(a, power):
        if not isinstance(power, int):
            return NotImplemented
        n, d = a._numerator, a._denominator
        if power >= 0:
            return _new(n**power, d**power)
        if n == 0:
            raise ZeroDivisionError(f"Rational({d ** -power}, 0)")
        if n < 0:
            n, d = -n, -d
        return _new(d**-power, n**-power)

    def __neg__(a):
        return _new(-a._numerator, a._denominator)

    def __bool__(a) -> bool:
        return a._numerator != 0

    def __ceil__(a) -> int:
        return -(-a._numerator // a._denominator)

    def __eq__(a, b):
        if type(b) is Rational:
            return a._numerator == b._numerator and a._denominator == b._denominator
        parts = _parts(b)
        if parts is None:
            return NotImplemented
        return a._numerator == parts[0] and a._denominator == parts[1]

    def _compare(a, b, op):
        if type(b) is Rational:
            return op(a._numerator * b._denominator, b._numerator * a._denominator)
        parts = _parts(b)
        if parts is None:
            return NotImplemented
        return op(a._numerator * parts[1], parts[0] * a._denominator)

    def __lt__(a, b):
        return a._compare(b, lt)

    def __le__(a, b):
        return a._compare(b, le)

    def __gt__(a, b):
        return a._compare(b, gt)

    def __ge__(a, b):
        return a._compare(b, ge)

    def __hash__(self) -> int:
        # the hash of every equal number, int or Fraction (the numeric hash
        # of the Python docs): |n| / d modulo the hash modulus, signed as n
        try:
            inverse = pow(self._denominator, -1, _HASH_MODULUS)
        except ValueError:  # d is a multiple of the modulus
            h = _HASH_INF
        else:
            h = hash(hash(abs(self._numerator)) * inverse)
        h = h if self._numerator >= 0 else -h
        return -2 if h == -1 else h


def _new(numerator: int, denominator: int) -> Rational:
    """A Rational from parts already in lowest terms, the denominator positive."""
    r = object.__new__(Rational)
    r._numerator = numerator
    r._denominator = denominator
    return r


# Knuth, TAOCP vol. 2, 4.5.1, as in ``fractions``: with the operands in
# lowest terms, dividing out the gcds below leaves the result in lowest
# terms, and the products are of the smaller integers.


def _add(na: int, da: int, nb: int, db: int) -> Rational:
    g = gcd(da, db)
    if g == 1:
        return _new(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _new(t, s * db)
    return _new(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> Rational:
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _new(na * nb, da * db)


def _div(na: int, da: int, nb: int, db: int) -> Rational:
    if nb == 0:
        raise ZeroDivisionError(f"Rational({na * db}, 0)")
    if nb < 0:
        nb, db = -nb, -db
    return _mul(na, da, db, nb)
