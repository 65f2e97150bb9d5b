"""Exact slope arithmetic: rationals and a single point at infinity.

Every number in this package is exact: a form's slopes are reduced integer
pairs, all other slopes ``fractions.Fraction``s; nothing is ever rounded and
integers are arbitrary precision.  The slope of a degenerate fiber is the
single value ``INF`` -- the inputs 1/0 and -1/0 deliberately collapse to the
same point, since the classification of a space containing a degenerate
fiber does not depend on that sign.
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


def is_finite(x) -> bool:
    return not isinstance(x, _Infinity)


_BATCH_BITS = 128  # wider operands take their partial quotients in batches
_WIDE = 1 << _BATCH_BITS


def simplest_pair(p: int, q: int, r: int, s: int) -> tuple[int, int]:
    """(a, k) with a/k the fraction of minimal denominator in (p/q, r/s).

    Stern-Brocot / continued-fraction descent on integers: needs q > 0,
    0 <= p/q < r/s, and s >= 0, where s = 0 stands for an infinite r/s.
    Each step writes the answer as f + 1/y with f = floor(p/q) and y the
    simplest fraction in (1/(r/s - f), 1/(p/q - f)); the steps are composed
    as the matrix (h, h0; k, k0) acting on y, so the descent is a loop and
    its depth is not bounded by recursion.  While q and s are wider than
    ``_BATCH_BITS``, ``_batches`` takes the steps.
    """
    h, h0, k, k0 = 1, 0, 0, 1
    if q >= _WIDE and s >= _WIDE:
        p, q, r, s, h, h0, k, k0 = _batches(p, q, r, s)
    while True:
        f = p // q
        # is f + 1 inside (p/q, r/s)?  an integer p/q sends the next step's
        # r/s to infinity
        if (f + 1) * s < r:
            return h * (f + 1) + h0, k * (f + 1) + k0
        h, h0, k, k0 = f * h + h0, h, f * k + k0, k
        p, q, r, s = s, r - f * s, q, p - f * q


def _batches(p: int, q: int, r: int, s: int) -> tuple:
    """``simplest_pair``'s steps while q and s are wider than ``_BATCH_BITS``:
    (p, q, r, s, h, h0, k, k0) after them.  As in Lehmer's gcd (Knuth, TAOCP
    2, 4.5.2), the operands cut by sh bits give the wider interval
    ((p>>sh)/((q>>sh)+1), ((r>>sh)+1)/(s>>sh)), stepped until it would end.
    Its steps are the exact interval's: with F the floor of its lower end
    and its upper end at most F + 1, the exact ends lie in [F, F + 1] too,
    so floor(p/q) = F and F + 1 is not inside, and y -> 1/(y - F), monotone
    on (F, F + 1], keeps the exact interval inside the wider one.  The
    batch's quotient matrix then moves the operands, swapping the ends at
    determinant -1, and (h, h0; k, k0).  A quotient too wide for the cut
    operands is taken alone.  Apart from ``simplest_pair`` so that narrow
    operands pay for none of this.
    """
    h, h0, k, k0 = 1, 0, 0, 1
    while q >= _WIDE and s >= _WIDE:
        sh = min(q.bit_length(), s.bit_length()) - _BATCH_BITS
        P, Q, R, S = p >> sh, (q >> sh) + 1, (r >> sh) + 1, s >> sh
        u, u0, v, v0 = 1, 0, 0, 1
        while True:
            F, rem = divmod(P, Q)
            T = R - F * S
            if T > S:  # F + 1 < R/S, or S = 0 and R/S is infinite
                break
            u, u0, v, v0 = F * u + u0, u, F * v + v0, v
            P, Q, R, S = S, T, Q, rem
        if not v:  # a quotient too large for the cut operands: one exact step
            f = p // q
            if (f + 1) * s < r:
                break
            u, u0, v, v0 = f, 1, 1, 0
        if u * v0 > u0 * v:
            p, q, r, s = v0 * p - u0 * q, u * q - v * p, v0 * r - u0 * s, u * s - v * r
        else:
            p, q, r, s = u0 * s - v0 * r, v * r - u * s, u0 * q - v0 * p, v * p - u * q
        h, h0, k, k0 = h * u + h0 * v, h * u0 + h0 * v0, k * u + k0 * v, k * u0 + k0 * v0
    return p, q, r, s, h, h0, k, k0


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The unique fraction of minimal denominator in the open interval (lo, hi).

    Requires lo < hi and lo >= 0; see ``simplest_pair``.
    """
    if lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo < 0:
        raise ValueError("negative endpoints are not needed here")
    return Fraction(*simplest_pair(lo.numerator, lo.denominator,
                                   hi.numerator, hi.denominator))


def farey_neighbours(p: int, q: int, n: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) with a/b < p/q < c/d the closest fractions on either side
    whose denominators are at most n; p/q > 0 and n >= 1.

    Stern-Brocot walk from 0/1 and 1/0 towards p/q: a/b and c/d stay
    neighbours (bc - ad = 1) with their mediant the next node, and each step
    makes a whole run of moves to one side at once (a partial quotient of
    p/q), so the number of steps grows with the bit length.  If the walk
    meets p/q itself, its neighbours lie on the two chains (a + j(a+c)) /
    (b + j(b+d)) and (c + j(a+c)) / (d + j(b+d)) converging to it.
    """
    a, b, c, d = 0, 1, 1, 0
    while True:
        m, e = a + c, b + d
        if e > n:
            return a, b, c, d
        if m * q == p * e:
            i, j = (n - b) // e, (n - d) // e
            return a + i * m, b + i * e, c + j * m, d + j * e
        if m * q < p * e:
            # a/b moves up while it stays below p/q and within the bound
            t = (p * b - a * q - 1) // (c * q - p * d)
            if d:
                t = min(t, (n - b) // d)
            a, b = a + t * c, b + t * d
        else:
            t = min((c * q - p * d - 1) // (p * b - a * q), (n - d) // b)
            c, d = c + t * a, d + t * b


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``-?d+`` or ``-?d+/d+`` into a reduced fraction."""
    m = _RAT_RE.match(text.strip())
    if m:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    if not m or not den:
        raise ValueError(f"not a finite rational: {text!r}")
    return Fraction(num, den)


def int_text(n: int) -> str:
    """Decimal text of n, also past sys.get_int_max_str_digits(); a str passes."""
    try:
        return f"{n}"
    except ValueError:  # too many digits: convert the halves of n
        return ("-" if n < 0 else "") + _digits(abs(n), 0)


def _digits(n: int, width: int) -> str:
    """Decimal text of n >= 0, padded with zeros to ``width`` digits."""
    try:
        return int.__repr__(n).zfill(width)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits of n
        hi, lo = divmod(n, 10 ** k)
        return _digits(hi, width - k) + _digits(lo, k)


def pair_text(p: int, q: int) -> str:
    """Text of the reduced fraction p/q, q > 0: p alone when q = 1."""
    return int_text(p) if q == 1 else f"{int_text(p)}/{int_text(q)}"


def format_rational(x) -> str:
    return "inf" if not is_finite(x) else pair_text(x.numerator, x.denominator)
