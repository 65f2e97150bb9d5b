"""Twist families of Seifert surgeries along a seiferter.

Twisting n times along a seiferter c replaces the slope of the corresponding
fiber by the Moebius function

    f(n) = (n*beta + beta_3) / (n*alpha + alpha_3),

where the integer matrix rows (alpha_3, beta_3) and (-alpha, -beta) express a
preferred meridian-longitude pair of c in a section/fiber basis, and
alpha*beta_3 - beta*alpha_3 = 1.  The surgered manifold after n twists is
S2(b; r1, r2, f(n)) and the surgery slope advances by the square of the
linking number: m_n = m + n*l^2.

Since the unimodularity relation gives f(x) = beta/alpha + 1/(alpha^2 (x -
pole)), f is strictly decreasing on each side of its pole -alpha_3/alpha and
converges to beta/alpha, the slope of the n -> +-infinity limit space (the
result of (m, 0)-surgery on knot and seiferter together).  Combining this
monotonicity with the exact third-slope thresholds classifies every member
of the family exactly: each tail is certified with the first index from
which a single verdict holds, replacing epsilon-style "for n large enough"
statements, and the members between a window and a tail form a few index
segments, cut where f crosses an integer or a band's threshold boundary.

The degenerate-fiber situation (the seiferter is an index-zero fiber of a
connected sum of two lens spaces) is the special encoding (alpha_3, beta_3)
= (0, 1): then f(n) = beta + 1/n, the pole n = 0 reproduces the connected
sum, and every other member is S2(b + beta; r1, r2, 1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .rationals import INF
from .seifert import Base, SeifertForm, Tag, classify, mirror, normalize
from .lspace import (IntervalKind, LSpaceVerdict, ThirdSlotThreshold,
                     _decide_classified, decide, third_slot_threshold)


@dataclass(frozen=True)
class SeiferterData:
    """A seiferter presented by its change-of-basis matrix and base invariants.

    ``b, r1, r2`` describe the fixed part of the fibration (both slopes in
    (0,1)); ``alpha, beta, alpha3, beta3`` the meridian/longitude data of the
    seiferter; ``m`` the surgery slope before twisting and ``l`` the linking
    number with the knot.  ``realizable`` marks catalog data known to come
    from an actual knot-seiferter pair (synthetic data may violate the
    homology relation |H1| = |m_n|).
    """
    b: int
    r1: Fraction
    r2: Fraction
    alpha: int
    beta: int
    alpha3: int
    beta3: int
    m: int = 0
    l: int = 0
    realizable: bool = False

    def __post_init__(self):
        if not (0 < self.r1 < 1 and 0 < self.r2 < 1):
            raise ValueError("fixed slopes must lie in (0,1)")
        if self.alpha * self.beta3 - self.beta * self.alpha3 != 1:
            raise ValueError("seiferter matrix must have determinant one")
        if not (self.alpha3 > 0 or (self.alpha3, self.beta3) == (0, 1)):
            raise ValueError("alpha3 must be positive, or (alpha3, beta3) = (0, 1) "
                             "for a degenerate fiber")
        if self.l < 0:
            raise ValueError("linking number is recorded as a nonnegative integer")


def fiber_slope(d: SeiferterData, n: int):
    """Slope of the twisted seiferter after n twists; INF at the pole."""
    den = n * d.alpha + d.alpha3
    num = n * d.beta + d.beta3
    if den == 0:
        return INF
    return Fraction(num, den)


def surgered_space(d: SeiferterData, n: int) -> SeifertForm:
    """Normal form of the manifold obtained after n twists."""
    return normalize(d.b, (d.r1, d.r2, fiber_slope(d, n)))


def surgery_slope(d: SeiferterData, n: int) -> int:
    """Surgery slope after n twists: m + n * l^2."""
    return d.m + n * d.l * d.l


def limit_space(d: SeiferterData) -> SeifertForm:
    """The |n| -> infinity limit: slope beta/alpha, infinite when alpha = 0."""
    rc = INF if d.alpha == 0 else Fraction(d.beta, d.alpha)
    return normalize(d.b, (d.r1, d.r2, rc))


def h1_consistency(d: SeiferterData, n: int) -> bool:
    """Does |H1| of the surgered space equal |m_n| (with order 0 <-> slope 0)?

    True for data realized by a knot in the 3-sphere; returns False (never
    raises) on synthetic data that violates it.
    """
    c = classify(surgered_space(d, n))
    s = surgery_slope(d, n)
    if c.h1 is INF:
        return s == 0
    return c.h1 == abs(s)


@dataclass(frozen=True)
class FamilyMember:
    """One evaluation rule for a twist family.

    ``offset`` shifts the twist index (the family's n corresponds to data
    index n + offset); ``mirrored`` evaluates the mirror image (the family's
    n-th member is the mirror of the data's (-n-offset)-th member, with the
    surgery slope negated).  ``rp2`` marks the constant projective-base
    families, which carry no per-member slope arithmetic.
    """
    data: SeiferterData | None = None
    mirrored: bool = False
    offset: int = 0
    rp2: bool = False
    label: str = ""

    def __post_init__(self):
        if not self.rp2 and self.data is None:
            raise ValueError("a member needs seiferter data unless it is rp2")

    def point(self, n: int):
        """(surgery slope or None, normalized form) of the n-th member."""
        if self.rp2:
            return None, SeifertForm(base=Base.RP2)
        if self.mirrored:
            j = -(n + self.offset)
            return -surgery_slope(self.data, j), mirror(surgered_space(self.data, j))
        j = n + self.offset
        return surgery_slope(self.data, j), surgered_space(self.data, j)

    def limit(self) -> SeifertForm:
        if self.rp2:
            return SeifertForm(base=Base.RP2)
        f = limit_space(self.data)
        return mirror(f) if self.mirrored else f


class TailStatus(Enum):
    CERTIFIED = "Certified"


@dataclass(frozen=True)
class TailCertificate:
    """A one-sided cofinite verdict: for side=+1, every n >= from_n has the
    stated L-space verdict; for side=-1, every n <= from_n does.

    ``limit``, ``band_base`` and ``threshold`` describe the slope analysis
    behind the verdict; when ``mirrored`` is set they refer to the underlying
    data before mirroring (the verdict itself is mirror-invariant).
    """
    side: int
    status: TailStatus
    is_lspace: bool | None = None
    from_n: int | None = None
    limit: object = None  # Fraction or INF
    band_base: int | None = None
    threshold: ThirdSlotThreshold | None = None
    mirrored: bool = False

    @property
    def certified(self) -> bool:
        return self.status is TailStatus.CERTIFIED

    @property
    def approach(self) -> str:
        """Which side the varying slope approaches its limit from, in the
        coordinates of ``threshold``."""
        return "from_above" if (self.side > 0) != self.mirrored else "from_below"

    def covers(self, n: int) -> bool:
        return n >= self.from_n if self.side > 0 else n <= self.from_n


@dataclass(frozen=True)
class Segment:
    """Every n in [from_n, to_n] has the stated L-space verdict.

    Each member of the range is S2(band_base; r1, r2, r) with r in (0,1) on
    one side of ``threshold``'s boundary, so the threshold alone proves the
    verdict.  ``band_base`` and ``threshold`` are None for the lens-space
    ranges of a family whose fiber slope is always an integer (alpha = 0).
    As for tails, ``mirrored`` means they refer to the data before mirroring.
    """
    from_n: int
    to_n: int
    is_lspace: bool
    band_base: int | None = None
    threshold: ThirdSlotThreshold | None = None
    mirrored: bool = False

    def covers(self, n: int) -> bool:
        return self.from_n <= n <= self.to_n


def _bound_above(desc: ThirdSlotThreshold, target: Fraction):
    """Uniform verdict for slopes approaching ``target`` from above.

    Returns (is_lspace, local upper bound c, inclusive): the verdict holds
    for every slope in (target, c), or (target, c] when inclusive.
    """
    if desc.kind is IntervalKind.ALL:
        return True, Fraction(1), False
    if desc.kind is IntervalKind.UP_CLOSED:
        t = desc.boundary
        if t == 0 and not desc.attained:
            return True, Fraction(1), False
        if target >= t:
            return True, Fraction(1), False
        return False, t, False
    if desc.kind is IntervalKind.DOWN_CLOSED:
        s = desc.boundary
        if s == 1 and not desc.attained:
            return True, Fraction(1), False
        if target < s:
            return True, s, bool(desc.attained)
        return False, Fraction(1), False
    raise AssertionError(desc.kind)


def _bound_below(desc: ThirdSlotThreshold, target: Fraction):
    """Uniform verdict for slopes approaching ``target`` from below; the
    verdict holds on (c, target), or [c, target) when inclusive."""
    if desc.kind is IntervalKind.ALL:
        return True, Fraction(0), False
    if desc.kind is IntervalKind.UP_CLOSED:
        t = desc.boundary
        if t == 0 and not desc.attained:
            return True, Fraction(0), False
        if target > t:
            return True, t, bool(desc.attained)
        return False, Fraction(0), False
    if desc.kind is IntervalKind.DOWN_CLOSED:
        s = desc.boundary
        if s == 1 and not desc.attained:
            return True, Fraction(0), False
        if target <= s:
            return True, Fraction(0), False
        return False, s, False
    raise AssertionError(desc.kind)


def _run_below(desc: ThirdSlotThreshold, r: Fraction):
    """Verdict at the slope r in (0,1) and how far down it extends: it holds
    on (c, r], or on [c, r] when inclusive, for the returned (is_lspace, c,
    inclusive)."""
    if desc.contains(r):
        if desc.kind is IntervalKind.UP_CLOSED:
            return True, desc.boundary, bool(desc.attained)
        return True, Fraction(0), False
    if desc.kind is IntervalKind.DOWN_CLOSED:
        return False, desc.boundary, not desc.attained
    return False, Fraction(0), False


def _first_below(d: SeiferterData, c: Fraction, strict: bool) -> int:
    """Least j with f(j) < c (strict) or f(j) <= c, among the indices on the
    side of the pole where f takes the value c.

    f is decreasing there, so this inverts f(x) = c (Moebius inversion) and
    rounds; c must differ from the limit slope beta/alpha.
    """
    x = (d.beta3 - c * d.alpha3) / (c * d.alpha - d.beta)
    return math.floor(x) + 1 if strict else math.ceil(x)


def _tail_data(d: SeiferterData, side: int, first: int, threshold) -> TailCertificate:
    """Certificate for the data-indexed tail {j >= first} (side=+1) or
    {j <= first} (side=-1); ``threshold(base)`` gives the band thresholds."""
    if d.alpha == 0:
        # f(j) = -j + beta3 is an integer for every j: all members are lens
        # spaces, L-spaces except a single possible S2 x S1.
        exceptional = _s2xs1_index(d)
        from_j = first
        if exceptional is not None:
            from_j = max(from_j, exceptional + 1) if side > 0 else min(from_j, exceptional - 1)
        return TailCertificate(side, TailStatus.CERTIFIED, True, from_j, limit=INF)

    rc = Fraction(d.beta, d.alpha)
    p = math.floor(rc)
    # the certified region lies strictly on one side of the pole; whatever
    # separates it from the window edge is covered by gap segments
    if side > 0:
        # f decreases to rc from above as j -> +infinity
        band = p
        desc = threshold(d.b + band)
        verdict, c_local, inclusive = _bound_above(desc, rc - band)
        from_j = max(first, _first_below(d, band + c_local, not inclusive))
    else:
        # f increases to rc from below as j -> -infinity
        band = p if rc > p else p - 1
        desc = threshold(d.b + band)
        verdict, c_local, inclusive = _bound_below(desc, rc - band)
        from_j = min(first, _first_below(d, band + c_local, inclusive) - 1)
    return TailCertificate(side, TailStatus.CERTIFIED, verdict, from_j,
                           limit=rc, band_base=d.b + band, threshold=desc)


def _s2xs1_index(d: SeiferterData):
    """For alpha = 0, the one index whose member can be S2 x S1, or None."""
    return d.b + d.beta3 + 1 if d.r1 + d.r2 == 1 else None


def _gap_data(d: SeiferterData, lo: int, hi: int, threshold):
    """Cover the data indices lo..hi by segments (from_j, to_j, is_lspace,
    band_base, threshold) and the list of indices to evaluate pointwise:
    the pole, integer values of f, and the alpha = 0 S2 x S1 index."""
    segments, singles = [], []
    if d.alpha == 0:
        j = _s2xs1_index(d)
        if j is not None and lo <= j <= hi:
            singles.append(j)
            pieces = ((lo, j - 1), (j + 1, hi))
        else:
            pieces = ((lo, hi),)
        return [(a, b, True, None, None) for a, b in pieces if a <= b], singles

    pole = Fraction(-d.alpha3, d.alpha)
    rc = Fraction(d.beta, d.alpha)
    if pole.denominator == 1 and lo <= pole <= hi:
        singles.append(int(pole))
    # at integers |f(j) - rc| <= 1/|alpha|, so each side of the pole meets at
    # most three bands, each split at most once by its threshold
    for a, b, right in ((lo, min(hi, math.ceil(pole) - 1), False),
                        (max(lo, math.floor(pole) + 1), hi, True)):
        j = a
        while j <= b:
            v = fiber_slope(d, j)
            p = math.floor(v)
            if v == p:
                singles.append(j)
                j += 1
                continue
            desc = threshold(d.b + p)
            verdict, c_local, inclusive = _run_below(desc, v - p)
            c = p + c_local
            # f > rc on the right of the pole, so a cut at or below rc is
            # never reached there
            nxt = b + 1 if right and c <= rc else min(b + 1, _first_below(d, c, inclusive))
            segments.append((j, nxt - 1, verdict, d.b + p, desc))
            j = nxt
    return segments, singles


@dataclass(frozen=True)
class PointVerdict:
    n: int
    slope: int | None
    form: SeifertForm
    tag: Tag
    verdict: LSpaceVerdict


_EXCEPTIONAL_TAGS = (Tag.S2XS1, Tag.CONNECTED_SUM_LENS)


@dataclass(frozen=True)
class FamilyReport:
    """An exact verdict for every integer n.

    ``points`` holds the pointwise verdicts on the window, plus the few
    indices between the window and a tail that no threshold covers: the
    pole, members with an integer fiber slope, and the S2 x S1 member of
    an alpha = 0 family.  ``segments`` covers the rest of those gaps by
    index ranges whose verdict a band threshold proves, and the two tails
    cover everything beyond; window, segments and tails partition Z.
    """
    window: tuple[int, int]
    points: dict[int, PointVerdict] = field(default_factory=dict)
    tail_pos: TailCertificate | None = None
    tail_neg: TailCertificate | None = None
    limit: SeifertForm | None = None
    limit_verdict: LSpaceVerdict | None = None
    exceptional: tuple = ()
    segments: tuple[Segment, ...] = ()

    def lspace_at(self, n: int) -> bool:
        """Verdict at any integer, from a point, a segment, or a tail."""
        if n in self.points:
            return self.points[n].verdict.is_lspace
        for part in (*self.segments, self.tail_pos, self.tail_neg):
            if part is not None and part.covers(n):
                return part.is_lspace
        raise KeyError(f"n={n} is not covered by this report")


def _as_member(d) -> FamilyMember:
    return d if isinstance(d, FamilyMember) else FamilyMember(data=d)


def evaluate_point(d, n: int) -> PointVerdict:
    member = _as_member(d)
    slope, form = member.point(n)
    c = classify(form)
    return PointVerdict(n, slope, form, c.tag, _decide_classified(form, c))


def _certify(member: FamilyMember, lo: int, hi: int):
    """Tails beyond the window lo..hi and the segments and exception
    indices between them and the window, as (tail_pos, tail_neg, segments,
    singles)."""
    if member.rp2:
        return (TailCertificate(+1, TailStatus.CERTIFIED, True, hi + 1),
                TailCertificate(-1, TailStatus.CERTIFIED, True, lo - 1), [], [])
    d, off, mirrored = member.data, member.offset, member.mirrored
    # data index j of the family's n-th member, and back
    s = -1 if mirrored else 1

    def to_j(n):
        return s * (n + off)

    def to_n(j):
        return s * j - off

    cache = {}

    def threshold(base):
        # each band's threshold is computed once, for tails and gaps alike
        if base not in cache:
            cache[base] = third_slot_threshold(base, d.r1, d.r2)
        return cache[base]

    tails = []
    for side, edge in ((+1, hi), (-1, lo)):
        t = _tail_data(d, s * side, to_j(edge + side), threshold)
        tails.append(TailCertificate(side, t.status, t.is_lspace, to_n(t.from_n),
                                     limit=t.limit, band_base=t.band_base,
                                     threshold=t.threshold, mirrored=mirrored))
    tail_pos, tail_neg = tails
    segments, singles = [], []
    for a, b in ((hi + 1, tail_pos.from_n - 1), (tail_neg.from_n + 1, lo - 1)):
        if a > b:
            continue
        ja, jb = sorted((to_j(a), to_j(b)))
        found, points = _gap_data(d, ja, jb, threshold)
        for fj, tj, verdict, base, desc in found:
            n1, n2 = sorted((to_n(fj), to_n(tj)))
            segments.append(Segment(n1, n2, verdict, base, desc, mirrored))
        singles += map(to_n, points)
    segments.sort(key=lambda seg: seg.from_n)
    return tail_pos, tail_neg, segments, singles


def classify_family(d, window=(-50, 50)) -> FamilyReport:
    """Decide every member in the window and certify the rest of Z exactly."""
    member = _as_member(d)
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    tail_pos, tail_neg, segments, singles = _certify(member, lo, hi)
    points = {n: evaluate_point(member, n) for n in (*range(lo, hi + 1), *singles)}
    limit = member.limit()
    exceptional = tuple((n, pv.tag) for n, pv in sorted(points.items())
                        if pv.tag in _EXCEPTIONAL_TAGS)
    return FamilyReport(window=(lo, hi), points=points,
                        tail_pos=tail_pos, tail_neg=tail_neg,
                        limit=limit, limit_verdict=decide(limit),
                        exceptional=exceptional, segments=tuple(segments))
