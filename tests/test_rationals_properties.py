"""Property tests for the Q scalar layer, which builds its Fraction results by
setting Fraction's private slots: every Rationals operator must give exactly
what the public Fraction operator gives on the same inputs, as a reduced
Fraction with a positive denominator that hashes like one."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

BIG = 2 ** 70  # past 2^64, so no fixed-width shortcut can hide
numerators = st.one_of(st.sampled_from([0, 0, 1, -1, 2, -3, BIG, -BIG - 1]),
                       st.integers(-BIG * BIG, BIG * BIG))
denominators = st.one_of(st.sampled_from([1, 1, 2, 6, BIG + 1, 3 * BIG]),
                         st.integers(1, BIG * BIG))
rationals = st.builds(Fraction, numerators, denominators)


def assert_same(got, want):
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want)
    n, d = got.numerator, got.denominator
    assert type(n) is int and type(d) is int
    assert (n, d) == (want.numerator, want.denominator)
    assert d > 0 and gcd(n, d) == 1


@PROPERTY
@given(a=rationals, b=rationals)
def test_binary_ops_match_the_fraction_operators(a, b):
    assert_same(QQ.add(a, b), a + b)
    assert_same(QQ.sub(a, b), a - b)
    assert_same(QQ.mul(a, b), a * b)
    if b:
        assert_same(QQ.div(a, b), a / b)


@PROPERTY
@given(a=rationals)
def test_unary_ops_match_the_fraction_operators(a):
    assert_same(QQ.neg(a), -a)
    assert QQ.is_zero(a) is (a == 0)
    if a:
        assert_same(QQ.inv(a), 1 / a)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


@PROPERTY
@given(pairs=st.lists(st.tuples(rationals, rationals), max_size=6))
def test_dot_matches_the_sum_of_fraction_products(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert_same(QQ.dot(xs, ys), sum((x * y for x, y in pairs), Fraction(0)))


@PROPERTY
@given(a=rationals)
def test_results_are_fully_usable_fractions(a):
    # results go on into Fraction's own operators, str and the int/Fraction
    # comparisons that payload readers use
    r = QQ.add(a, QQ.neg(a))
    assert r == 0 and hash(r) == hash(0) and str(r) == "0"
    s = QQ.mul(a, QQ.one.value)
    assert s == a and str(s) == str(a) and s + 1 == a + 1


def test_zero_has_no_inverse():
    for zero in (Fraction(0), QQ.sub(Fraction(1, 3), Fraction(1, 3)), QQ.zero.value):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)
        with pytest.raises(ZeroDivisionError):
            QQ.div(Fraction(1), zero)
