"""Exact arithmetic and the minimal-denominator search."""

import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_lspace import rationals
from seifert_lspace.rationals import (_BATCH_BITS, INF, _batches, format_rational, int_text,
                                      is_finite, parse_rational, simplest_between, simplest_pair)

from oracles import cf_simplest_between, farey_neighbours, walk_simplest_pair

fractions_1e6 = st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6),
                             max_denominator=10 ** 6)
unit_fractions = st.fractions(min_value=Fraction(1, 10 ** 4), max_value=Fraction(1),
                              max_denominator=10 ** 4)


def test_infinity_is_a_singleton():
    assert type(INF)() is INF
    assert not is_finite(INF)
    assert repr(INF) == "inf"


def test_parse_rational_grammar():
    assert parse_rational("-25/6") == Fraction(-25, 6)
    assert parse_rational("7") == Fraction(7)
    for bad in ("1/0", "x", "1.5", "--1", "1/-2", "1/00", "-3/000", "0/0", "00/0"):
        with pytest.raises(ValueError, match="not a finite rational"):
            parse_rational(bad)


def test_format_round_trip():
    for text in ("-25/6", "7", "0", "2/3"):
        assert format_rational(parse_rational(text)) == text if "/" in text else True
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(INF) == "inf"


def test_int_text_past_the_conversion_limit():
    rng = random.Random(4300)
    limit = sys.get_int_max_str_digits()
    values = [0, 7, -7, 10 ** 4299, 10 ** 4300, 10 ** 4300 - 1, -(10 ** 9000) + 1,
              10 ** 20000 + 1, *(rng.getrandbits(rng.randint(1, 70000)) * rng.choice((1, -1))
                                 for _ in range(40))]
    texts = [int_text(n) for n in values]
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [str(n) for n in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert int_text(10 ** 5000) == "1" + "0" * 5000
    assert format_rational(Fraction(-(10 ** 5000), 3)) == "-1" + "0" * 5000 + "/3"


@given(fractions_1e6, fractions_1e6)
def test_arithmetic_round_trips(x, y):
    assert (x + y) - y == x
    assert (x * y == y * x)


@given(fractions_1e6, fractions_1e6, fractions_1e6)
def test_order_total_and_transitive(x, y, z):
    assert (x < y) or (y < x) or (x == y)
    if x < y and y < z:
        assert x < z


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


def _neighbours(rng, bits, quotients=()):
    """Convergents h1/k1, h0/k0 of [0; *quotients, a, a, ...], the a drawn
    from 1..5 until k1 has ``bits`` bits: Stern-Brocot neighbours."""
    h1, k1, h0, k0 = 0, 1, 1, 0
    quotients = iter(quotients)
    while k1.bit_length() < bits:
        a = next(quotients, None) or rng.randint(1, 5)
        h1, k1, h0, k0 = a * h1 + h0, a * k1 + k0, h1, k1
    return h1, k1, h0, k0


@pytest.mark.parametrize("bits", [4096, 30000])
def test_simplest_between_deep_stern_brocot_neighbours(bits):
    # convergents h1/k1, h0/k0 of a long continued fraction are Stern-Brocot
    # neighbours; the simplest fraction between them is their mediant.  At
    # 4096 bits the descent takes thousands of steps.
    h1, k1, h0, k0 = _neighbours(random.Random(bits), bits, [2])
    lo, hi = sorted((Fraction(h1, k1), Fraction(h0, k0)))
    assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1
    assert simplest_between(lo, hi) == Fraction(h1 + h0, k1 + k0)


def _wide(rng, bits):
    """A random integer of exactly ``bits`` bits."""
    return rng.getrandbits(bits - 1) | 1 << (bits - 1)


def _descent_cases():
    """Seeded (p, q, r, s) from 8 to 30,000 bits for ``simplest_pair``,
    with the edges of its batches: ends that agree past the batch width, q
    or s within a bit of it, an infinite upper end, a lower end of 0, one
    that turns integral mid-descent, a cut p of 0 and a quotient wider than
    the batch."""
    rng, w = random.Random(30000), _BATCH_BITS
    cases = []
    for bits, deep in ((8, 40), (60, 40), (w - 1, 20), (w, 20), (w + 1, 20), (200, 20),
                       (1000, 10), (4000, 3), (12000, 1), (30000, 1)):
        for _ in range(deep):
            # random ends, and ends that agree past the batch width
            p, q, r, s = (rng.getrandbits(bits), _wide(rng, bits),
                          rng.getrandbits(bits), _wide(rng, bits))
            if p * s > r * q:
                p, q, r, s = r, s, p, q
            cases.append((p, q, r + (p * s == r * q), s))
            gap = rng.choice((w - 1, w, w + 1, 2 * w))
            cases.append((p, q, p * 2 ** gap + 1, q * 2 ** gap))
            # Stern-Brocot neighbours, and a lower end whose continued
            # fraction is a prefix of the upper end's
            h1, k1, h0, k0 = _neighbours(rng, bits)
            cases.append((h1, k1, h0, k0) if h1 * k0 < h0 * k1 else (h0, k0, h1, k1))
            m = rng.randint(1, 9)
            cases.append((m * h1 + h0, m * k1 + k0, h1, k1) if h1 * k0 > h0 * k1
                         else (h1, k1, m * h1 + h0, m * k1 + k0))
        q, s = _wide(rng, bits), _wide(rng, bits)
        cases += [(rng.getrandbits(bits), q, 1, 0), (0, q, 1, s), (1, max(q, s) + 1, 1, min(q, s)),
                  (rng.randrange(8), q, q, s)]
    for bits, huge in ((w - 1, w), (w + 2, 2 * w), (2000, 3 * w), (2000, 200)):
        h1, k1, h0, k0 = _neighbours(rng, huge + bits, [2, rng.randint(1, 9), 2 ** huge + 1])
        cases.append((h1, k1, h0, k0) if h1 * k0 < h0 * k1 else (h0, k0, h1, k1))
    # q and s on either side of the batch width, apart
    for bq, bs in ((w, w + 1), (w + 1, w), (w + 1, w + 1), (w, w), (w + 1, 3000), (3000, w)):
        for _ in range(10):
            q, s = _wide(rng, bq), _wide(rng, bs)
            p = rng.randrange(q)
            r = p * s // q + rng.randint(1, 3)
            cases.append((p, q, r, s))
    return cases


@cache
def _descent_answers():
    """Each of ``_descent_cases`` with its answer from the textbook descent."""
    return [(p, q, r, s, cf_simplest_between(Fraction(p, q), Fraction(r, s) if s else None))
            for p, q, r, s in _descent_cases()]


def test_simplest_pair_matches_the_continued_fraction_oracle():
    # the batched descent against the textbook one on Fractions
    for p, q, r, s, x in _descent_answers():
        assert simplest_pair(p, q, r, s, q + s)[:2] == (x.numerator, x.denominator), (p, q, r, s)


def test_simplest_between_known_values():
    assert simplest_between(Fraction(2, 5), Fraction(1, 2)) == Fraction(3, 7)
    assert simplest_between(Fraction(499, 1000), Fraction(1, 2)) == Fraction(250, 501)
    assert simplest_between(Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert simplest_between(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        simplest_between(Fraction(1, 2), Fraction(1, 2))


def _parents(a, b):
    """The Stern-Brocot parents (num, den) of a/b: the right one is e/g with
    e b - a g = 1 and 0 <= g < b, so 1/0 for an integer, the left one their
    difference."""
    g = -pow(a, -1, b) % b
    e = (1 + a * g) // b
    return (a - e, b - g), (e, g)


def _check_capped(p, q, r, s, n, x):
    """simplest_pair capped at n against x, the simplest fraction in (p/q,
    r/s): x itself if its denominator is at most n, and otherwise a node
    past n whose parents, within n, bracket the interval (so it is on the
    path, and the first node there past n); and the parent it returns is
    one of the node's two."""
    a, b, c, d = simplest_pair(p, q, r, s, n)
    left, right = _parents(a, b)
    assert (c, d) in (left, right) and (a - c, b - d) in (left, right), (p, q, r, s, n)
    if x.denominator <= n:
        assert (a, b) == (x.numerator, x.denominator), (p, q, r, s, n)
        return
    (c, d), (e, g) = left, right
    assert b > n >= max(d, g), (p, q, r, s, n)
    assert c * q <= p * d and r * g <= e * s, (p, q, r, s, n)


def _capped_neighbours(p, q, n):
    """(a, b, c, d) with a/b < p/q < c/d the closest fractions on either side
    with denominators at most n: the right parent of the first node past n
    towards (x, x + 1/(qn)), and the left parent of the one towards
    (x - 1/(qn), x); no fraction within n lies in either interval."""
    (a, b), _ = _parents(*simplest_pair(p * n - 1, q * n, p, q, n)[:2])
    _, (c, d) = _parents(*simplest_pair(p, q, p * n + 1, q * n, n)[:2])
    return a, b, c, d


def test_capped_descent_matches_the_node_walk():
    # short paths, walked one node at a time, every cap up to past the answer
    rng = random.Random(257)
    for _ in range(400):
        q, s = rng.randint(1, 60), rng.randint(0, 60)
        p = rng.randrange(3 * q)
        r = p * s // q + rng.randint(1, 3) if s else 1
        x = cf_simplest_between(Fraction(p, q), Fraction(r, s) if s else None)
        for n in range(1, x.denominator + 2):
            node, left, right = walk_simplest_pair(p, q, r, s, n)
            a, b, c, d = simplest_pair(p, q, r, s, n)
            assert (a, b) == node and {(c, d), (a - c, b - d)} == {left, right}, (p, q, r, s, n)
            assert _parents(a, b) == (left, right)


def test_capped_descent_contract(monkeypatch):
    # caps below, at and above the answer's denominator, from 8 to 30,000
    # bits.  On wide operands, a cap under 2^128 stops the descent within
    # about 128 bits of quotients, so it is stepped singly, not batched; and
    # a cap of 2^128 or more inside the batches' range stops them before
    # the batch that would pass it
    def no_batches(*args):
        raise AssertionError("batched under a narrow cap")

    rng = random.Random(128)
    batched = 0
    for p, q, r, s, x in _descent_answers():
        den = x.denominator
        for n in {1, den - 1, den, den + 1, rng.randint(1, den), den >> rng.randint(1, 64)} - {0}:
            _check_capped(p, q, r, s, n, x)
        if min(q, s) < 2 ** _BATCH_BITS:
            continue
        with monkeypatch.context() as m:
            m.setattr(rationals, "_batches", no_batches)
            _check_capped(p, q, r, s, rng.randrange(1, 2 ** _BATCH_BITS), x)
        past = sum(_batches(p, q, r, s, q + s)[6:])  # k + k0 after every batch
        if past > 2 ** (_BATCH_BITS + 1):
            n = rng.randrange(2 ** _BATCH_BITS, past)
            assert sum(_batches(p, q, r, s, n)[6:]) <= n
            _check_capped(p, q, r, s, n, x)
            batched += 1
    assert batched > 20


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
        a, b, c, d = _capped_neighbours(x.numerator, x.denominator, n)
        assert (a, b, c, d) == farey_neighbours(x.numerator, x.denominator, n)
        assert Fraction(a, b) == below, (x, n)
        assert (c, d) == ((1, 0) if above == top else (above.numerator, above.denominator))


def test_farey_neighbours_at_1e18():
    # the neighbours of 1/3 with denominators <= n are K'/(3K'+1) and
    # K/(3K-1) for the largest K', K that fit; n = 1 mod 3
    n = 10 ** 18
    a, b, c, d = _capped_neighbours(1, 3, n)
    assert (b, d) == (n, n - 2) and (3 * a + 1, 3 * c - 1) == (b, d)
