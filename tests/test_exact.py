"""``emckit.exact.Rational`` against its oracle, ``fractions.Fraction``."""

from __future__ import annotations

import math
import pickle
import sys
from fractions import Fraction
from operator import add, eq, ge, gt, le, lt, mul, ne, sub, truediv

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from emckit.audit import audit_all, min_window_n
from emckit.exact import Rational
from emckit.transversals import bad_pair_stats

BIG = 2**64
# 0, small values of either sign, and values on both sides of 2^64
INTS = (
    st.integers(-6, 6)
    | st.integers(-(BIG**2), BIG**2)
    | st.sampled_from([BIG - 1, BIG, BIG + 1, -BIG, -BIG - 1])
)
NONZERO = INTS.filter(bool)
FRACTIONS = st.builds(Fraction, INTS, NONZERO)
RATIONALS = st.builds(Rational, INTS, NONZERO)
# every kind of operand a Rational meets: int, Fraction and Rational
OPERANDS = INTS | FRACTIONS | RATIONALS


def oracle(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    return Fraction(x)


def assert_same(got, want: Fraction) -> None:
    assert type(got) is Rational
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int


@given(INTS, NONZERO)
@example(0, -5)
@example(-6, -4)
@example(BIG + 1, -(BIG + 1))
def test_construction_reduces_like_fraction(n, d):
    assert_same(Rational(n, d), Fraction(n, d))
    assert_same(Rational(n), Fraction(n))


def test_construction_refuses_floats_and_a_zero_denominator():
    for parts in ((0.5,), (1, 2.0), (Fraction(1, 2),), (1, Rational(2))):
        with pytest.raises(TypeError):
            Rational(*parts)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


@given(RATIONALS, OPERANDS)
@example(Rational(0), BIG + 1)
@example(Rational(-3, 4), Fraction(BIG, 3))
@example(Rational(BIG + 1, BIG), Rational(-(BIG - 1), BIG))
@example(Rational(5, 6), True)
def test_arithmetic_equals_fraction_in_both_orders(a, b):
    fa, fb = oracle(a), oracle(b)
    for op in (add, sub, mul):
        assert_same(op(a, b), op(fa, fb))
        assert_same(op(b, a), op(fb, fa))
    for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
        if fy:
            assert_same(truediv(x, y), fx / fy)
        else:
            with pytest.raises(ZeroDivisionError):
                truediv(x, y)


@given(RATIONALS, OPERANDS)
@example(Rational(2), 2)
@example(Rational(BIG + 1), Fraction(BIG + 1))
@example(Rational(-1, 3), Fraction(-1, 3))
def test_comparisons_equal_fraction_in_both_orders(a, b):
    fa, fb = oracle(a), oracle(b)
    for op in (eq, ne, lt, le, gt, ge):
        assert op(a, b) is op(fa, fb)
        assert op(b, a) is op(fb, fa)


@given(RATIONALS)
@example(Rational(0))
@example(Rational(-1))
@example(Rational(BIG + 1, 3))
@example(Rational(1, sys.hash_info.modulus))
@example(Rational(-2, sys.hash_info.modulus))
def test_hash_truth_negation_and_ceil_equal_fraction(a):
    fa = oracle(a)
    assert hash(a) == hash(fa)
    if fa.denominator == 1:
        assert a == fa.numerator and hash(a) == hash(fa.numerator)
    assert bool(a) is bool(fa)
    assert_same(-a, -fa)
    assert math.ceil(a) == math.ceil(fa) and type(math.ceil(a)) is int


@given(RATIONALS, st.integers(-5, 5))
@example(Rational(0), -1)
@example(Rational(-2, 3), -3)
def test_int_powers_equal_fraction(a, power):
    fa = oracle(a)
    if fa == 0 and power < 0:
        with pytest.raises(ZeroDivisionError):
            a**power
    else:
        assert_same(a**power, fa**power)


def test_sum_starts_from_the_int_zero():
    terms = [Rational(1, d) for d in range(1, 20)]
    assert_same(sum(terms), sum(Fraction(1, d) for d in range(1, 20)))


@pytest.mark.parametrize("a", [Rational(1, 2), Rational(0), Rational(-3)])
def test_floats_are_refused(a):
    for op in (add, sub, mul, truediv, lt, le, gt, ge):
        with pytest.raises(TypeError):
            op(a, 0.5)
        with pytest.raises(TypeError):
            op(0.5, a)
    with pytest.raises(TypeError):
        a**0.5
    assert a != float(oracle(a)) and not a == float(oracle(a))


def test_records_that_hold_rationals_pickle():
    k, s = 5, 101 * 5**3 + 1
    records = [*audit_all(k, s, min_window_n(k, s)), bad_pair_stats(k)]
    assert any(isinstance(field, Rational) for record in records for field in record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(records, protocol)) == records
