"""Exact slope arithmetic: rationals, a single point at infinity, sorted triples.

Every number in this package is an exact ``fractions.Fraction``; nothing is
ever rounded and integers are arbitrary precision.  The slope of a degenerate
fiber is the single value ``INF`` -- the inputs 1/0 and -1/0 deliberately
collapse to the same point, since the classification of a space containing a
degenerate fiber does not depend on that sign.
"""

from __future__ import annotations

import re
from fractions import Fraction


class _Infinity:
    """The infinite slope (and the order of an infinite first homology)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

ExtRational = Fraction | _Infinity


def is_finite(x) -> bool:
    return not isinstance(x, _Infinity)


def make_rational(num: int, den: int = 1) -> Fraction:
    """Reduced fraction with positive denominator.

    A zero denominator is rejected: the infinite slope must be passed
    explicitly as ``INF``.
    """
    if den == 0:
        raise ZeroDivisionError("denominator is zero; use INF for an infinite slope")
    return Fraction(num, den)


def sorted_triple(a, b, c) -> tuple:
    """The three values in nondecreasing order."""
    return tuple(sorted((a, b, c)))


def triple_lt(x, y) -> bool:
    """Strict componentwise order on sorted triples: x_i < y_i in every slot."""
    return x[0] < y[0] and x[1] < y[1] and x[2] < y[2]


def triple_le(x, y) -> bool:
    return x[0] <= y[0] and x[1] <= y[1] and x[2] <= y[2]


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The unique fraction of minimal denominator in the open interval (lo, hi).

    Stern-Brocot / continued-fraction descent.  Requires lo < hi and lo >= 0.
    Each step writes the answer as f + 1/y with f = floor(lo) and y the
    simplest fraction in (1/(hi - f), 1/(lo - f)); the steps are composed as
    the matrix (h, h0; k, k0) acting on y, so the descent is a loop on integer
    numerators and denominators and its depth is not bounded by recursion.
    """
    if lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo < 0:
        raise ValueError("negative endpoints are not needed here")
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    h, h0, k, k0 = 1, 0, 0, 1
    while True:
        f = p // q
        # is f + 1 inside (p/q, r/s)?  s = 0 stands for an infinite r/s,
        # which is where an integer lo sends the next step
        if (f + 1) * s < r:
            break
        h, h0, k, k0 = f * h + h0, h, f * k + k0, k
        p, q, r, s = s, r - f * s, q, p - f * q
    return Fraction(h * (f + 1) + h0, k * (f + 1) + k0)


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``-?d+`` or ``-?d+/d+`` into a reduced fraction."""
    m = _RAT_RE.match(text.strip())
    if not m or m.group(2) == "0":
        raise ValueError(f"not a finite rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def parse_slope(text: str) -> ExtRational:
    """Like parse_rational, but 'inf' and nonzero/0 both give INF."""
    s = text.strip()
    if s == "inf":
        return INF
    m = _RAT_RE.match(s)
    if m and m.group(2) == "0":
        if int(m.group(1)) == 0:
            raise ValueError("0/0 is not a slope")
        return INF
    return parse_rational(s)


def format_rational(x) -> str:
    if not is_finite(x):
        return "inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
