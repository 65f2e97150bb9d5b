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


def simplest_pair(p: int, q: int, r: int, s: int, n: int) -> tuple[int, int, int, int]:
    """(a, k, c, d): a/k is the fraction of minimal denominator in (p/q, r/s)
    if k <= n, and otherwise the first node past n on the Stern-Brocot path
    towards it, whose parents (det 1) are within n and bracket the interval.
    c/d is one of a/k's two parents, and (a - c)/(k - d) the other.

    Stern-Brocot / continued-fraction descent on integers: needs n >= 1,
    q > 0, 0 <= p/q < r/s, and s >= 0, where s = 0 stands for an infinite
    r/s.  Each step writes the answer as f + 1/y with f = floor(p/q) and y the
    simplest fraction in (1/(r/s - f), 1/(p/q - f)); the steps are composed
    as the matrix (h, h0; k, k0) acting on y, so the descent is a loop and
    its depth is not bounded by recursion.  A step passes the nodes
    (h j + h0)/(k j + k0), j = 1, ..., f + 1, of increasing denominator and
    each with the parent h/k.  While q, s and n are wider than
    ``_BATCH_BITS``, ``_batches`` takes the steps.
    """
    h, h0, k, k0 = 1, 0, 0, 1
    if n >= _WIDE and q >= _WIDE and s >= _WIDE:
        p, q, r, s, h, h0, k, k0 = _batches(p, q, r, s, n)
    while True:
        f = p // q
        # is f + 1 inside (p/q, r/s)?  an integer p/q sends the next step's
        # r/s to infinity
        if (f + 1) * s < r:
            break
        kf = f * k + k0
        if kf + k > n:  # node f + 1 is past n
            break
        h, h0, k, k0 = f * h + h0, h, kf, k
        p, q, r, s = s, r - f * s, q, p - f * q
    f += 1
    den = k * f + k0
    if den > n:  # so k > 0: the first step's nodes f/1 are within n
        f = (n - k0) // k + 1
        den = k * f + k0
    return h * f + h0, den, h, k


def _batches(p: int, q: int, r: int, s: int, n: int) -> tuple:
    """``simplest_pair``'s steps while q and s are wider than ``_BATCH_BITS``:
    (p, q, r, s, h, h0, k, k0) after them.  As in Lehmer's gcd (Knuth, TAOCP
    2, 4.5.2), each end cut to ``_BATCH_BITS``-bit denominators, by sh bits
    below and sk above, gives the wider interval ((p>>sh)/((q>>sh)+1),
    ((r>>sk)+1)/(s>>sk)), stepped until it would end.
    Its steps are the exact interval's: with F the floor of its lower end
    and its upper end at most F + 1, the exact ends lie in [F, F + 1] too,
    so floor(p/q) = F and F + 1 is not inside, and y -> 1/(y - F), monotone
    on (F, F + 1], keeps the exact interval inside the wider one.  The
    batch's quotient matrix then moves the operands, swapping the ends at
    determinant -1, and (h, h0; k, k0).  A quotient too wide for the cut
    operands is taken alone, and a batch whose last node (of denominator
    the new k + k0) is past n is left to the single steps.  Apart from
    ``simplest_pair`` so that narrow operands pay for none of this.
    """
    h, h0, k, k0 = 1, 0, 0, 1
    while q >= _WIDE and s >= _WIDE:
        sh, sk = q.bit_length() - _BATCH_BITS, s.bit_length() - _BATCH_BITS
        P, Q, R, S = p >> sh, (q >> sh) + 1, (r >> sk) + 1, s >> sk
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
        K, K0 = k * u + k0 * v, k * u0 + k0 * v0
        if K + K0 > n:
            break
        if u * v0 > u0 * v:
            p, q, r, s = v0 * p - u0 * q, u * q - v * p, v0 * r - u0 * s, u * s - v * r
        else:
            p, q, r, s = u0 * s - v0 * r, v * r - u * s, u0 * q - v0 * p, v * p - u * q
        h, h0, k, k0 = h * u + h0 * v, h * u0 + h0 * v0, K, K0
    return p, q, r, s, h, h0, k, k0


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The unique fraction of minimal denominator in the open interval (lo, hi).

    Requires lo < hi and lo >= 0; see ``simplest_pair``, whose cap is the
    mediant's denominator, which bounds the answer's.
    """
    if lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo < 0:
        raise ValueError("negative endpoints are not needed here")
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    a, k, _, _ = simplest_pair(p, q, r, s, q + s)
    return Fraction(a, k)


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
