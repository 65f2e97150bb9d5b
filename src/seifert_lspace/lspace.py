"""The L-space decision procedure for small Seifert fibered spaces.

A Seifert fibered rational homology sphere over S2 with three exceptional
fibers, written S2(b; r1, r2, r3) with all slopes in (0,1), is an L-space iff

  * b >= 0 or b <= -3, or
  * b = -1 and no coprime pair (a, k) with 0 < a <= k/2 satisfies
    (r1, r2, r3)* < (1/k, a/k, (k-a)/k) componentwise (strictly, after
    sorting), or
  * b = -2 and the same holds for the complemented slopes (1-r1, 1-r2, 1-r3).

A pair (a, k) that does satisfy the inequality certifies a horizontal
foliation and hence that the space is not an L-space; we call it a witness.
Spaces with at most two exceptional fibers are lens spaces, which are
L-spaces except for S2 x S1; a connected sum of two lens spaces (one
degenerate fiber) is an L-space; rational homology spheres fibered over RP2
are always L-spaces.

No enumeration is needed to find the smallest witness: a/k must lie in
(s2, 1 - s3) for the sorted triple s1 <= s2 <= s3, so the fraction of least
denominator there (one Stern-Brocot descent) gives the least k, and it is a
witness exactly when s1 < 1/k, so the descent stops at that cap.
``third_slot_threshold`` turns the existential statements about the third
slope into an exact rational boundary, from two more descents, one of them
capped.  The boundary alone fixes the set, its own membership included, so
no decision runs at the boundary.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .rationals import simplest_pair
from .seifert import _RP2_TAG, _S2XS1, _SUM, SeifertForm, _new_tuple, classify


class FoliationWitness(NamedTuple("FoliationWitness", [("k", int), ("a", int)])):
    """Coprime pair certifying a horizontal foliation: 0 < a <= k/2, k >= 2."""
    __slots__ = ()

    def __new__(cls, k: int, a: int):
        if not (k >= 2 and 0 < 2 * a <= k and gcd(a, k) == 1):
            raise ValueError(f"invalid witness pair (k={k}, a={a})")
        return _new_tuple(cls, (k, a))


class Reason(Enum):
    B_LARGE = "BLarge"
    LENS_NOT_S2XS1 = "LensNotS2xS1"
    CONNECTED_SUM_OF_LSPACES = "ConnectedSumOfLSpaces"
    RP2_BASE = "RP2Base"
    INFINITE_H1 = "InfiniteH1"
    NO_WITNESS_EXHAUSTIVE = "NoWitnessExhaustive"
    WITNESS = "Witness"
    DUAL_WITNESS = "DualWitness"


# each reason proves one verdict, stored on the member once: an attribute
# read costs no Python-level Enum.__hash__, as a set lookup does
for _reason in Reason:
    _reason.is_lspace = _reason in (Reason.B_LARGE, Reason.LENS_NOT_S2XS1,
                                    Reason.CONNECTED_SUM_OF_LSPACES, Reason.RP2_BASE,
                                    Reason.NO_WITNESS_EXHAUSTIVE)


class LSpaceVerdict(NamedTuple):
    """Decision plus certificate.

    ``witness`` is populated whenever the witness test applies and finds a
    pair -- including for euler-number-zero inputs, whose verdict is already
    forced to False by the infinite first homology (an L-space is a rational
    homology sphere by definition).  ``search_bound`` is the largest k a
    witness could have, for reproducibility of no-witness certificates.

    The reason fixes the verdict, so ``is_lspace`` and ``infinite_h1`` are
    read from it rather than stored beside it, and cannot disagree with it.
    """
    reason: Reason
    witness: FoliationWitness | None = None
    witness_is_dual: bool = False
    search_bound: int | None = None

    @property
    def is_lspace(self) -> bool:
        return self.reason.is_lspace

    @property
    def infinite_h1(self) -> bool:
        return self.reason is _INFINITE


# each member read once (see ``seifert._S2``), and one shared verdict for
# each reason that carries nothing else; the tags are read in ``seifert``
_INFINITE, _WITNESS, _DUAL, _NO_WITNESS = (
    Reason.INFINITE_H1, Reason.WITNESS, Reason.DUAL_WITNESS, Reason.NO_WITNESS_EXHAUSTIVE)
_RP2_BASE, _CONNECTED_SUM, _INFINITE_H1, _LENS, _B_LARGE = (
    LSpaceVerdict(Reason.RP2_BASE), LSpaceVerdict(Reason.CONNECTED_SUM_OF_LSPACES),
    LSpaceVerdict(_INFINITE), LSpaceVerdict(Reason.LENS_NOT_S2XS1),
    LSpaceVerdict(Reason.B_LARGE))


def _witness_from_pairs(p2, q2, p3, q3, n) -> FoliationWitness | None:
    """Witness search on the pairs of s2 <= s3 of a sorted triple.

    a/k must lie in (s2, 1 - s3) and be at most 1/2, with k <= n, the search
    bound of s1.  The simplest fraction in (s2, 1 - s3) has the least k
    there, and it is at most 1/2: as s2 <= s3, the interval either contains
    1/2 or ends at or below it.  So it is the witness if k <= n, and nothing
    is otherwise.
    """
    # s2 + s3 >= 1 leaves no room for a/k
    if p2 * q3 + p3 * q2 >= q2 * q3:
        return None
    a, k, _, _ = simplest_pair(p2, q2, q3 - p3, q3, n)
    # a valid pair unchecked: the simplest fraction is reduced, a/k <= 1/2
    # as above, and a/k in (0, 1) makes k >= 2
    return _new_tuple(FoliationWitness, (k, a)) if k <= n else None


def search_bound(p: int, q: int) -> int:
    """Largest k with k * p/q < 1: no witness of a triple whose smallest
    slope is p/q has a larger k."""
    return (q - 1) // p


def decide(f: SeifertForm) -> LSpaceVerdict:
    """Is the (normalized) Seifert form an L-space?  A form of three finite
    fibers and no degenerate one goes straight to ``_decide_small``; every
    other form is classified, and decided by its tag."""
    pairs = f.pairs
    if len(pairs) == 3 and not f.degenerate:  # so it is over S2
        (p1, q1), (p2, q2), (p3, q3) = pairs
        return _decide_small(f.b, p1, q1, p2, q2, p3, q3)
    return _decide_classified(classify(f).tag)


def _decide_classified(tag) -> LSpaceVerdict:
    """The verdict on a form of at most two finite fibers, from its tag."""
    if tag is _RP2_TAG:
        return _RP2_BASE
    # both summand orders of a connected sum are >= 2, so neither summand
    # is S3 or S2 x S1; what is left is S3 or a lens space
    return _CONNECTED_SUM if tag is _SUM else _INFINITE_H1 if tag is _S2XS1 else _LENS


def _decide_small(b: int, p1: int, q1: int, p2: int, q2: int, p3: int, q3: int) -> LSpaceVerdict:
    """The verdict on S2(b; p1/q1, p2/q2, p3/q3), its three slopes sorted in
    (0,1): the one three-fiber decision, for ``decide`` and
    ``twist.evaluate_point``.  Its Euler number b + p1/q1 + p2/q2 + p3/q3,
    tested by cross-multiplication, is zero only at b = -1 or -2, the one
    case of infinite first homology."""
    if b >= 0 or b <= -3:
        return _B_LARGE
    euler_zero = ((b * q1 + p1) * q2 + p2 * q1) * q3 + p3 * q1 * q2 == 0
    dual = b == -2
    if dual:
        # complemented slopes in sorted order: 1 - r3 <= 1 - r2 <= 1 - r1
        p1, q1, p2, p3, q3 = q3 - p3, q3, q2 - p2, q1 - p1, q1
    n = (q1 - 1) // p1  # search_bound(p1, q1)
    w = _witness_from_pairs(p2, q2, p3, q3, n)
    # at Euler number zero, not a rational homology sphere, hence not an
    # L-space; the witness (which exists exactly when a horizontal foliation
    # does) is still reported alongside
    reason = _INFINITE if euler_zero else _NO_WITNESS if w is None else _DUAL if dual else _WITNESS
    return _new_tuple(LSpaceVerdict, (reason, w, dual and w is not None, n))


class IntervalKind(Enum):
    ALL = "All"
    UP_CLOSED = "UpClosed"
    DOWN_CLOSED = "DownClosed"


_KINDS = {-1: IntervalKind.UP_CLOSED, -2: IntervalKind.DOWN_CLOSED}


class ThirdSlotThreshold(NamedTuple):
    """Exact description of { r in (0,1) : S2(b; r1, r2, r) is an L-space }.

    ``r1``, ``r2`` and the boundary t, ``cut``, are reduced integer pairs;
    ``boundary`` is t as a ``Fraction``.  For b = -1 the set is up-closed
    [t, 1) (or all of (0,1): t = 0, not attained); for b = -2 it is
    down-closed (0, t] (or all of (0,1): t = 1, not attained); otherwise it
    is all of (0,1), with no t.  ``kind`` is read from b, and ``attained``
    (is t an L-space?) from t: a t in (0,1) always is.  The not-L-space set
    is the union of the open intervals that witnesses rule out: an
    euler-number-zero slope, the one non-L-space needing no witness, has one
    anyway (Eisenbud-Hirsch-Neumann; Jankins-Neumann, Naimi).
    """
    b: int
    r1: tuple[int, int]
    r2: tuple[int, int]
    cut: tuple[int, int] | None = None

    @property
    def kind(self) -> IntervalKind:
        return _KINDS.get(self.b, IntervalKind.ALL)

    @property
    def attained(self) -> bool | None:
        return None if self.cut is None else 0 < self.cut[0] < self.cut[1]

    @property
    def boundary(self) -> Fraction | None:
        return None if self.cut is None else Fraction(*self.cut)

    def contains(self, r: Fraction) -> bool:
        """Membership of r in the L-space set; r must lie in (0,1)."""
        if not (0 < r < 1):
            raise ValueError("contains() is about the open unit interval")
        if self.cut is None:
            return True
        above = r.numerator * self.cut[1] - self.cut[0] * r.denominator
        return above >= 0 if self.b == -1 else above <= 0


def _not_lspace_sup(u: tuple, v: tuple) -> tuple:
    """sup { r in (0,1) : S2(-1; u, v, r) is not an L-space }, or 0 if empty.

    The not-L-space set is the open initial segment (0, t): each witness
    (a, k) rules out a down-closed open interval of r, and the three ways r
    can sit in the sorted triple give three families of interval endpoints
    (with u <= v, and k <= N = search_bound(u) in the first two):

      * (k-a)/k   when v < a/k <= 1/2,
      * a/k       when a/k < 1-v and a/k <= 1/2,
      * 1/k       when a/k lies in (u, 1-v) with a/k <= 1/2.

    Let x be the smallest fraction above v with denominator at most N (a
    Farey neighbour of v).  The best endpoint of the first kind is 1 - x
    when x <= 1/2; by the symmetry of the Farey sequence, the best of the
    second kind is the smaller of 1 - x and 1/2; together they give 1 - x.
    The third is resolved by the simplest fraction in (u, min(1-v, 1/2)),
    whose denominator is the least k; its a/k = 1/2 case is among the first
    two.  So the computation is two descents of ``simplest_pair``.  The one
    for x goes towards (v, v + 1/(N v_d)), where no fraction of denominator
    at most N lies, capped at N: it stops at the first node past N, whose
    parents are v's neighbours within N, and x is the right one.  u, v and
    the result are pairs (num, den).
    """
    (un, ud), (vn, vd) = u, v
    if un * vd > vn * ud:
        un, ud, vn, vd = vn, vd, un, ud
    n = search_bound(un, ud)
    a, b, c, d = simplest_pair(vn, vd, vn * n + 1, vd * n, n)
    if c * b < a * d:  # c/d is the left parent; x is the other
        c, d = a - c, b - d
    num, den = d - c, d
    hn, hd = (1, 2) if 2 * vn <= vd else (vd - vn, vd)  # min(1 - v, 1/2)
    if un * hd < hn * ud:
        k = simplest_pair(un, ud, hn, hd, ud + hd)[1]
        if num * k < den:
            num, den = 1, k
    return num, den


def third_slot_threshold(b: int, r1: Fraction, r2: Fraction) -> ThirdSlotThreshold:
    """Exact L-space region in the third slope slot of S2(b; r1, r2, r)."""
    p1, q1, p2, q2 = r1.numerator, r1.denominator, r2.numerator, r2.denominator
    if not (0 < p1 < q1 and 0 < p2 < q2):
        raise ValueError("fixed slopes must lie in (0,1)")
    cut = None
    if b == -1:
        cut = _not_lspace_sup((p1, q1), (p2, q2))
    elif b == -2:
        # the mirror image S2(-1; 1 - r1, 1 - r2, 1 - r); 1 - p/q is (q - p)/q
        num, den = _not_lspace_sup((q1 - p1, q1), (q2 - p2, q2))
        cut = den - num, den
    return _new_tuple(ThirdSlotThreshold, (b, (p1, q1), (p2, q2), cut))
