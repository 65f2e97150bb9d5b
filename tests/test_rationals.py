"""Exact arithmetic, triple order, and the minimal-denominator search."""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_lspace.rationals import (INF, farey_neighbours, format_rational,
                                      is_finite, make_rational, parse_rational,
                                      parse_slope, simplest_between,
                                      sorted_triple, triple_lt)

fractions_1e6 = st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6),
                             max_denominator=10 ** 6)
unit_fractions = st.fractions(min_value=Fraction(1, 10 ** 4), max_value=Fraction(1),
                              max_denominator=10 ** 4)


def test_make_rational_normalizes():
    assert make_rational(25, -6) == Fraction(-25, 6)
    assert make_rational(4, 2) == Fraction(2, 1)
    assert make_rational(0, 7) == Fraction(0, 1)
    q = make_rational(25, -6)
    assert q.denominator == 6 and q.numerator == -25


def test_make_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        make_rational(1, 0)


def test_infinity_is_a_singleton():
    assert parse_slope("1/0") is INF
    assert parse_slope("-1/0") is INF
    assert parse_slope("inf") is INF
    assert parse_slope("1/00") is INF
    assert parse_slope("-7/000") is INF
    assert not is_finite(INF)
    assert repr(INF) == "inf"


def test_parse_rational_grammar():
    assert parse_rational("-25/6") == Fraction(-25, 6)
    assert parse_rational("7") == Fraction(7)
    for bad in ("1/0", "x", "1.5", "--1", "1/-2", "1/00", "-3/000", "0/0", "00/0"):
        with pytest.raises(ValueError, match="not a finite rational"):
            parse_rational(bad)
    for bad in ("0/0", "00/0", "-00/000"):
        with pytest.raises(ValueError, match="0/0"):
            parse_slope(bad)


def test_format_round_trip():
    for text in ("-25/6", "7", "0", "2/3"):
        assert format_rational(parse_rational(text)) == text if "/" in text else True
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(INF) == "inf"


def test_sorted_triple_examples():
    a, b, c = Fraction(2, 3), Fraction(1, 3), Fraction(1, 2)
    assert sorted_triple(a, b, c) == (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    t = (Fraction(1, 3),) * 3
    assert sorted_triple(*t) == t
    assert sorted_triple(Fraction(1, 7), Fraction(1, 2), Fraction(1, 3)) == \
        (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2))


def test_triple_lt_examples():
    third = (Fraction(1, 3),) * 3
    half = (Fraction(1, 2),) * 3
    assert triple_lt(third, half)
    assert not triple_lt(third, (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)))
    assert not triple_lt((Fraction(2, 5), Fraction(1, 2), Fraction(2, 3)),
                         (Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)))


@given(fractions_1e6, fractions_1e6)
def test_arithmetic_round_trips(x, y):
    assert (x + y) - y == x
    assert (x * y == y * x)


@given(fractions_1e6, fractions_1e6, fractions_1e6)
def test_order_total_and_transitive(x, y, z):
    assert (x < y) or (y < x) or (x == y)
    if x < y and y < z:
        assert x < z


@given(st.tuples(fractions_1e6, fractions_1e6, fractions_1e6))
def test_sorted_triple_idempotent(t):
    s = sorted_triple(*t)
    assert sorted_triple(*s) == s
    assert s[0] <= s[1] <= s[2]


@given(st.tuples(unit_fractions, unit_fractions, unit_fractions),
       st.tuples(unit_fractions, unit_fractions, unit_fractions),
       st.tuples(unit_fractions, unit_fractions, unit_fractions))
def test_triple_lt_transitive(a, b, c):
    x, y, z = sorted_triple(*a), sorted_triple(*b), sorted_triple(*c)
    if triple_lt(x, y) and triple_lt(y, z):
        assert triple_lt(x, z)


def _no_smaller_denominator(lo, hi, den):
    for d in range(1, den):
        lowest = lo.numerator * d // lo.denominator + 1
        if lowest * hi.denominator < hi.numerator * d:
            return False
    return True


@settings(max_examples=300)
@given(unit_fractions, unit_fractions)
def test_simplest_between_is_minimal(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    q = simplest_between(lo, hi)
    assert lo < q < hi
    assert _no_smaller_denominator(lo, hi, q.denominator)


def test_simplest_between_deep_stern_brocot_neighbours():
    # convergents h1/k1, h0/k0 of a long continued fraction are Stern-Brocot
    # neighbours; the simplest fraction between them is their mediant.  At
    # 4096 bits the descent takes thousands of steps.
    rng = random.Random(4096)
    h1, k1, h0, k0 = 0, 1, 1, 0
    a = 2
    while k1.bit_length() < 4096:
        h1, k1, h0, k0 = a * h1 + h0, a * k1 + k0, h1, k1
        a = rng.randint(1, 5)
    lo, hi = sorted((Fraction(h1, k1), Fraction(h0, k0)))
    assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1
    assert simplest_between(lo, hi) == Fraction(h1 + h0, k1 + k0)


def test_simplest_between_known_values():
    assert simplest_between(Fraction(2, 5), Fraction(1, 2)) == Fraction(3, 7)
    assert simplest_between(Fraction(499, 1000), Fraction(1, 2)) == Fraction(250, 501)
    assert simplest_between(Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert simplest_between(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        simplest_between(Fraction(1, 2), Fraction(1, 2))


def test_farey_neighbours_match_brute_force():
    rng = random.Random(1001)
    top = Fraction(10 ** 9)  # stands in for 1/0, above every grid point
    grids = {n: sorted({Fraction(i, k) for k in range(1, n + 1) for i in range(4 * k + 1)}
                       | {top}) for n in range(1, 41)}
    for _ in range(1500):
        q = rng.randint(1, 300)
        x = Fraction(rng.randint(1, 3 * q), q)
        n = rng.randint(1, 40)
        grid = grids[n]
        below = grid[bisect_left(grid, x) - 1]
        above = grid[bisect_right(grid, x)]
        a, b, c, d = farey_neighbours(x.numerator, x.denominator, n)
        assert Fraction(a, b) == below, (x, n)
        assert (c, d) == ((1, 0) if above == top else (above.numerator, above.denominator))


def test_farey_neighbours_at_1e18():
    # the neighbours of 1/3 with denominators <= n are K'/(3K'+1) and
    # K/(3K-1) for the largest K', K that fit; n = 1 mod 3
    n = 10 ** 18
    a, b, c, d = farey_neighbours(1, 3, n)
    assert (b, d) == (n, n - 2) and (3 * a + 1, 3 * c - 1) == (b, d)
