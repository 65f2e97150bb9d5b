"""Independent oracles the test suite checks the library against.

Nothing here shares code with the package: the witness enumerator walks a
precomputed table of every coprime pair up to a fixed k with no pruning, and
the homology oracle evaluates an integer presentation-matrix determinant
directly from raw (unnormalized) slope data.  ``loop_witness`` and
``loop_not_lspace_sup`` are the package's former witness search and
third-slot supremum, which walk every k below 1/s1 (linear in that
denominator); they are the references for the Stern-Brocot versions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import numpy as np

_TABLES = {}


def _pair_table(kmax: int):
    """All (k, a) with 2 <= k <= kmax, 0 < a <= k/2, gcd(a, k) = 1, in
    lexicographic order, plus reusable work buffers."""
    if kmax not in _TABLES:
        ks, aa = [], []
        for k in range(2, kmax + 1):
            for a in range(1, k // 2 + 1):
                if gcd(a, k) == 1:
                    ks.append(k)
                    aa.append(a)
        K = np.array(ks, dtype=np.int32)
        A = np.array(aa, dtype=np.int32)
        bufs = (np.empty_like(K), np.empty_like(K),
                np.empty(K.shape, dtype=bool), np.empty(K.shape, dtype=bool))
        _TABLES[kmax] = (K, A, K - A, bufs)
    return _TABLES[kmax]


def naive_witness(triple, kmax=1000):
    """First (k, a) dominating the sorted triple, scanning every pair up to
    kmax with no early termination; None if there is none."""
    s1, s2, s3 = triple
    K, A, KmA, (w1, w2, mask, tmp) = _pair_table(kmax)
    assert max(s.denominator for s in triple) * kmax < 2 ** 31
    np.multiply(K, s1.numerator, out=w1)
    np.less(w1, s1.denominator, out=mask)
    np.multiply(A, s2.denominator, out=w1)
    np.multiply(K, s2.numerator, out=w2)
    np.greater(w1, w2, out=tmp)
    mask &= tmp
    np.multiply(KmA, s3.denominator, out=w1)
    np.multiply(K, s3.numerator, out=w2)
    np.greater(w1, w2, out=tmp)
    mask &= tmp
    if not mask.any():
        return None
    i = int(mask.argmax())
    return int(K[i]), int(A[i])


def naive_is_lspace(b: int, triple, kmax=1000):
    """Triple-slope L-space oracle straight from the case split."""
    if b >= 0 or b <= -3:
        return True
    if b == -1:
        t = tuple(sorted(triple))
    else:
        t = tuple(sorted(1 - r for r in triple))
    if sum(triple) + b == 0:
        return False  # infinite first homology
    return naive_witness(t, kmax) is None


def loop_witness(p1, q1, p2, q2, p3, q3):
    """Smallest (k, a) dominating the sorted triple (p1/q1, p2/q2, p3/q3),
    by walking every k with k * p1 < q1; None if there is none."""
    # a/k <= 1/2 can never strictly exceed s2 >= 1/2
    if 2 * p2 >= q2:
        return None
    # a/k + (k-a)/k = 1 can never strictly exceed s2 + s3 >= 1
    if p2 * q3 + p3 * q2 >= q2 * q3:
        return None
    k = 2
    while k * p1 < q1:
        lo = k * p2 // q2 + 1
        hi = (k * (q3 - p3) - 1) // q3
        half = k >> 1
        if hi > half:
            hi = half
        a = lo
        while a <= hi:
            if gcd(a, k) == 1:
                return k, a
            a += 1
        k += 1
    return None


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Fraction of least denominator in (lo, hi), by trying every denominator."""
    k = 1
    while True:
        a = lo.numerator * k // lo.denominator + 1
        if a * hi.denominator < hi.numerator * k:
            return Fraction(a, k)
        k += 1


def loop_not_lspace_sup(u: Fraction, v: Fraction) -> Fraction:
    """sup { r in (0,1) : S2(-1; u, v, r) is not an L-space }, or 0, from the
    witness endpoints (k-a)/k, a/k and 1/k, walking every k below 1/min(u, v)."""
    if u > v:
        u, v = v, u
    best = Fraction(0)
    un, ud = u.numerator, u.denominator
    vn, vd = v.numerator, v.denominator
    k = 2
    while k * un < ud:
        half = k >> 1
        # smallest coprime a with v < a/k, a <= k/2  ->  endpoint (k-a)/k
        a = k * vn // vd + 1
        while a <= half and gcd(a, k) != 1:
            a += 1
        if a <= half:
            cand = Fraction(k - a, k)
            if cand > best:
                best = cand
        # largest coprime a with a < k(1-v), a <= k/2  ->  endpoint a/k
        a = min(half, (k * (vd - vn) - 1) // vd)
        while a >= 1 and gcd(a, k) != 1:
            a -= 1
        if a >= 1:
            cand = Fraction(a, k)
            if cand > best:
                best = cand
        k += 1
    # smallest k admitting a coprime a with a/k in (u, 1-v) and a/k <= 1/2
    if 2 * un < ud and 2 * vn < vd:
        best = max(best, Fraction(1, 2))
    hi = min(1 - v, Fraction(1, 2))
    if u < hi:
        q = _simplest_between(u, hi)
        best = max(best, Fraction(1, q.denominator))
    return best


def det_int(rows):
    """Determinant of a small integer matrix by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def presentation_h1(b: int, raw_slopes):
    """|H1| from the presentation matrix of a sphere-base space with the
    given raw slopes (any rationals); 0 encodes an infinite group."""
    k = len(raw_slopes)
    rows = []
    for i, r in enumerate(raw_slopes):
        row = [0] * (k + 1)
        row[i] = r.denominator
        row[k] = r.numerator
        rows.append(row)
    rows.append([1] * k + [-b])
    return abs(det_int(rows))


def random_unit_fraction(rng: random.Random, max_den: int) -> Fraction:
    """Uniform-ish fraction in (0,1) with denominator at most max_den."""
    d = rng.randint(2, max_den)
    return Fraction(rng.randint(1, d - 1), d)


def random_triple(rng: random.Random, max_den: int):
    return tuple(sorted(random_unit_fraction(rng, max_den) for _ in range(3)))
