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
of the family exactly.  One walk on a member's ``frame``, which folds the
offset and any mirroring into the slope F(n) of its n-th member, cuts all of
Z into pieces: maximal ranges with one base, one slot of the moving pair
among the two fixed slopes and one verdict shape, cut where F crosses an
integer, a band's threshold boundary or a fixed slope shifted into the band,
and around the member whose Euler number is zero.  The pieces of one band
with one verdict on one side of the pole form a run; the indices no
threshold covers (the pole and integer values of F) are singles.  The two
end runs are the tails: each is certified with the first index from which a
single verdict holds, replacing epsilon-style "for n large enough"
statements.  A report is the runs, their pieces and the singles, so its cost
does not depend on any range of indices.

``FamilyReport.pieces`` alone reads a display window: it clips the pieces to
it and decides each one's first member by ``evaluate_point``.  Along a
piece, n, m_n and the moving pair are affine in n, so that one decision
gives its verdict shape, and ``Piece.columns`` gives what moves, the
search bound and the witness among it.  The writers in ``formats`` read a
piece's members from those columns alone; no member of a piece is built as
a ``PointVerdict``.

All of it runs on integers: f(n) is the reduced pair (n*beta + beta_3,
n*alpha + alpha_3), and the walk compares such pairs by cross-multiplication.

The degenerate-fiber situation (the seiferter is an index-zero fiber of a
connected sum of two lens spaces) is the special encoding (alpha_3, beta_3)
= (0, 1): then f(n) = beta + 1/n, the pole n = 0 reproduces the connected
sum, and every other member is S2(b + beta; r1, r2, 1/n).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import sub
from typing import NamedTuple

from .rationals import INF
from .seifert import (_SMALL, Base, SeifertForm, Tag, _new_tuple, _trusted_form, classify,
                      mirror)
from .lspace import (LSpaceVerdict, ThirdSlotThreshold, _decide_classified, _decide_small,
                     _witness_from_pairs, decide, search_bound, third_slot_threshold)


@dataclass(frozen=True)
class SeiferterData:
    """A seiferter presented by its change-of-basis matrix and base invariants.

    ``b, r1, r2`` describe the fixed part of the fibration (both slopes in
    (0,1)); ``alpha, beta, alpha3, beta3`` the meridian/longitude data of the
    seiferter; ``m`` the surgery slope before twisting and ``l`` the linking
    number with the knot.
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
    # r1 and r2 as reduced pairs, sorted; set once, by __post_init__, as a
    # field and not a cached property, whose write makes CPython keep the
    # instance's attributes in a dict, which every later field read pays for
    fixed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.r1, Fraction) and isinstance(self.r2, Fraction)):
            raise ValueError("fixed slopes must be Fractions")
        if not (0 < self.r1 < 1 and 0 < self.r2 < 1):
            raise ValueError("fixed slopes must lie in (0,1)")
        if self.alpha * self.beta3 - self.beta * self.alpha3 != 1:
            raise ValueError("seiferter matrix must have determinant one")
        if not (self.alpha3 > 0 or (self.alpha3, self.beta3) == (0, 1)):
            raise ValueError("alpha3 must be positive, or (alpha3, beta3) = (0, 1) "
                             "for a degenerate fiber")
        if self.l < 0:
            raise ValueError("linking number is recorded as a nonnegative integer")
        pairs = (self.r1.numerator, self.r1.denominator), (self.r2.numerator, self.r2.denominator)
        object.__setattr__(self, "fixed", pairs if self.r1 <= self.r2 else pairs[::-1])

    @property
    def limit_slope(self):
        """beta/alpha, the fiber slope of the |n| -> infinity limit; INF
        when alpha = 0."""
        return INF if self.alpha == 0 else Fraction(self.beta, self.alpha)


def _space(b: int, fixed: tuple, p: int, den: int) -> SeifertForm:
    """The normal form of S2(b; fixed, p/den), fixed two sorted pairs and
    p/den reduced, den = 0 a degenerate fiber: one ``divmod`` folds p/den
    into b, and cross-multiplication places the remainder among the pairs."""
    if den < 0:
        p, den = -p, -den
    if den < 2:
        return _trusted_form(b + p, fixed, 0) if den else _trusted_form(b, fixed, 1)
    whole, p = divmod(p, den)
    r = p, den
    (a1, c1), (a2, c2) = f1, f2 = fixed
    return _trusted_form(b + whole, (r, f1, f2) if p * c1 < a1 * den else
                         (f1, r, f2) if p * c2 < a2 * den else (f1, f2, r), 0)


def surgered_space(d: SeiferterData, n: int) -> SeifertForm:
    """Normal form of the manifold obtained after n twists."""
    return _space(d.b, d.fixed, n * d.beta + d.beta3, n * d.alpha + d.alpha3)


def surgery_slope(d: SeiferterData, n: int) -> int:
    """Surgery slope after n twists: m + n * l^2."""
    return d.m + n * d.l * d.l


def limit_space(d: SeiferterData) -> SeifertForm:
    """The |n| -> infinity limit: slope beta/alpha, infinite when alpha = 0."""
    return _space(d.b, d.fixed, d.beta, d.alpha)


def h1_consistency(d: SeiferterData, n: int) -> bool:
    """Does |H1| of the surgered space equal |m_n| (with order 0 <-> slope 0)?

    True for data realized by a knot in the 3-sphere; returns False (never
    raises) on synthetic data that violates it.
    """
    h = classify(surgered_space(d, n)).h1
    return (0 if h is INF else h) == abs(surgery_slope(d, n))


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

    @cached_property
    def frame(self):
        """(base, fixed pairs, alpha, beta, alpha3, beta3, m, l^2), worked
        out once: the n-th member is S2(base; fixed, F(n)) before
        normalization, with F(n) = (beta n + beta3) / (alpha n + alpha3), and
        its surgery slope is m + n l^2.  S2(base; fixed) is S2(b; r1, r2)
        or, for a mirrored member, its mirror, and F(n) is the data's f(j)
        at j = n + offset, or -f(j) at j = -(n + offset) when mirrored.  The
        frame's matrix keeps determinant alpha beta3 - beta alpha3 = 1, so F
        is decreasing on each side of its pole, as f is.

        Mirroring negates every raw slope of S2(b; r1, r2, f(j)), which takes
        the fixed part to its mirror S2(-b - 2; 1 - r2, 1 - r1) and leaves
        -f(j) as it is.
        """
        d, off = self.data, self.offset
        f = _trusted_form(d.b, d.fixed, 0)
        s = -1 if self.mirrored else 1
        if self.mirrored:
            f = mirror(f)
        ll = d.l * d.l
        return (f.b, f.pairs, s * d.alpha, d.beta, s * off * d.alpha + d.alpha3,
                off * d.beta + s * d.beta3, s * d.m + off * ll, ll)


class Run(NamedTuple):
    """Every n from from_n to to_n has the stated L-space verdict; None
    marks an infinite end.

    Each member of the run is S2(band_base; r1, r2, r) with r in (0,1) on
    one side of ``threshold``'s boundary, so the threshold alone proves the
    verdict.  ``band_base`` and ``threshold`` are None for the lens-space
    runs of a family whose fiber slope is always an integer (alpha = 0) and
    for projective-base families.  When ``mirrored`` is set they refer to
    the underlying data before mirroring (the verdict is mirror-invariant).
    ``pieces`` are the run's pieces as the walk cut them, (first, last,
    slot) in order; a run clipped to the outside of a window keeps them.
    """
    from_n: int | None
    to_n: int | None
    is_lspace: bool
    band_base: int | None = None
    threshold: ThirdSlotThreshold | None = None
    mirrored: bool = False
    pieces: tuple = ()


def _first_below(mat: tuple, c: tuple, strict: bool) -> int:
    """Least x with F(x) < c (strict) or F(x) <= c, among the integers on
    the side of the pole where F(x) = (beta x + beta3) / (alpha x + alpha3),
    with mat = (alpha, beta, alpha3, beta3) of determinant 1, takes the
    value c = (p, q), q > 0.

    F is decreasing there, so this inverts F(x) = c (Moebius inversion) by
    floor division; c must differ from the limit slope beta/alpha.
    """
    alpha, beta, alpha3, beta3 = mat
    num, den = beta3 * c[1] - c[0] * alpha3, c[0] * alpha - beta * c[1]
    if den < 0:
        num, den = -num, -den
    return num // den + 1 if strict else -(-num // den)


def _runs(member: FamilyMember) -> list:
    """Cut the family's indices, all of Z, into one increasing list of
    maximal runs of one band, verdict and side of the pole, [from_n, to_n,
    is_lspace, band_base, threshold, pieces], None marking an infinite end,
    and the indices between them that no threshold covers, as ints: the
    pole, integer values of F, and the alpha = 0 S2 x S1 member.

    The walk goes up from -infinity on the member's ``frame``, piece by
    piece: F is decreasing, so the next piece starts where F passes the
    largest of its band's cuts below it (``_first_below``), and where cuts
    share a value the piece holds it only if each one does.  A run's pieces
    are (first, last, slot).  A run reports the data's band base and
    threshold: for a mirrored member in the band of base B, those of
    -B - 3.  The walk starts in the piece just below beta/alpha and ends
    right of the pole at the piece with no cut between F and beta/alpha,
    which goes on to +infinity.  The oracle is ``oracles.fraction_runs``.
    """
    if member.rp2:
        return [(None, None, True, None, None, ((None, None, None),))]
    d, mirrored = member.data, member.mirrored
    b, fixed, alpha, beta, alpha3, beta3, m, ll = member.frame
    (a1, c1), (a2, c2) = fixed
    e, q = a1 * c2 + a2 * c1, c1 * c2
    if not alpha:
        # F(n) = beta3 - n is an integer for every n: all members are lens
        # spaces S2(b + F(n); fixed), L-spaces but for one S2 x S1 when the
        # fixed slopes sum to 1; the S3 member, |(b + F(n)) q + e| = 1, is
        # cut out
        if e == q:
            n = b + beta3 + 1
            return [(None, n - 1, True, None, None, ((None, n - 1, None),)), n,
                    (n + 1, None, True, None, None, ((n + 1, None, None),))]
        pieces = ((None, None, None),)
        for h in (1, -1):
            base, rem = divmod(h - e, q)
            if not rem:
                n = beta3 + b - base
                pieces = ((None, n - 1, None), (n, n, None), (n + 1, None, None))
        return [(None, None, True, None, None, pieces)]

    # the Euler number is zero where F(n) = -(b + e/q): a member there, at
    # an integer n, is a piece of its own; of the two cuts at its value, the
    # open one ends the piece before it and the closed one the member's
    zn = -b * q - e
    num, den = beta3 * q - zn * alpha3, zn * alpha - beta * q
    euler = [(zn, q, False, ""), (zn, q, True, "")] if den and not num % den else []
    mat = alpha, beta, alpha3, beta3
    rn, rd = (beta, alpha) if alpha > 0 else (-beta, -alpha)
    # F increases to rn/rd from below as n -> -infinity; at integers
    # |F(n) - rn/rd| <= 1/|alpha|, so each side of the pole meets at most
    # three bands, each cut at most five times
    rows, bands, last, j, vn, vd, below, right = [], {}, None, None, rn, rd, True, False
    while True:
        p = (vn - 1) // vd
        if p not in bands:
            # the threshold a run in the band p < F <= p + 1 reports, and the
            # band's cuts (num, den, closed, kind): "s" where the moving pair
            # changes slot, "t" the boundary, closed on its L-space side
            t = third_slot_threshold(-b - p - 3 if mirrored else b + p, d.r1, d.r2)
            cuts = [(p, 1, False, ""), (p * c1 + a1, c1, True, "s"), (p * c2 + a2, c2, True, "s"),
                    *euler]
            x, y = t.cut or (0, 1)
            if 0 < x < y:
                x = y - x if mirrored else x
                cuts.append((p * y + x, y, (t.b == -1) != mirrored, "t"))
            bands[p] = t, cuts
        t, cuts = bands[p]
        slot, verdict, top = 0, True, None
        for cn, cd, closed, kind in cuts:
            x = cn * vd - vn * cd
            ahead = x < 0 or x == 0 and closed and not below
            if kind == "t":
                verdict = ahead == closed
            if not ahead:  # F has passed the cut already
                continue
            slot += kind == "s"
            # right of the pole F > rn/rd, so a cut at or below it is never reached
            if right and cn * rd <= rn * cd:
                continue
            y = 1 if top is None else cn * top[1] - top[0] * cd
            if y > 0:
                top, shut = (cn, cd), closed
            elif y == 0:
                shut = shut and closed
        nxt = None if top is None else _first_below(mat, top, shut)
        piece = (j, None if nxt is None else nxt - 1, slot)
        if last == (p, verdict, right):
            rows[-1][1] = piece[1]
            rows[-1][5].append(piece)
        else:
            rows.append([j, piece[1], verdict, t.b, t, [piece]])
        if nxt is None:
            return rows
        last, j, num, den = (p, verdict, right), nxt, beta * nxt + beta3, alpha * nxt + alpha3
        while -1 <= den <= 1:  # the pole, or an integer F(j): F(j) is reduced
            rows.append(j)
            last, j, num, den = None, j + 1, num + beta, den + alpha
        s = 1 if den > 0 else -1
        vn, vd, below, right = s * num, s * den, False, s * alpha > 0


class PointVerdict(NamedTuple):
    n: int
    slope: int | None
    form: SeifertForm
    tag: Tag
    verdict: LSpaceVerdict


def _line(start: int, step: int, size: int):
    """The size values start, start + step, ...; None when step is 0, for a
    value that does not move."""
    return range(start, start + step * size, step) if step else None


class Piece(NamedTuple):
    """The members lo..hi of a family, a maximal range of a shown window on
    one side of the pole with one shape: one base, one slot of the moving
    pair and one verdict shape.

    Each member is ``first``, the member lo, with its n, its m_n and, at
    ``slot`` of its form's pairs, the moving pair moved along, all affine in
    n; a lens member (``slot`` None) moves its b instead, and a
    projective-base member only its n.  ``columns`` gives what moves.  A
    single is the piece of one member, whose ``member`` may be None:
    nothing moves along it, so ``columns`` tests the size before it reads
    ``member``.
    """
    member: FamilyMember | None
    lo: int
    hi: int
    first: PointVerdict
    slot: int | None

    def columns(self) -> tuple:
        """What moves along the piece, each as its members' values in order,
        or None where every member has ``first``'s: m_n, b, the moving pair's
        num and den, the witness and the search bound; all None along one
        member.

        At base -1 or -2, ``_decide_small`` tests the sorted triple, at -2
        complemented and reversed.  The search bound moves when the moving
        pair is that triple's smallest slope, and a witness, when there is
        one, when the pair is one of the other two.
        """
        first, slot, size = self.first, self.slot, self.hi - self.lo + 1
        slopes = bs = nums = dens = ws = bounds = None
        if size == 1 or self.member.rp2:
            return slopes, bs, nums, dens, ws, bounds
        b, fixed, alpha, beta, alpha3, beta3, m, ll = self.member.frame
        form, v = first.form, first.verdict
        slopes = _line(first.slope, ll, size)
        if slot is None:  # S2(b + F(n); fixed), F(n) an integer
            return slopes, _line(form.b, beta, size), nums, dens, ws, bounds
        # the moving pair is F(n) - (base - b) with den = sign (alpha n + alpha3) > 0
        sign = 1 if alpha * self.lo + alpha3 > 0 else -1
        p, d = form.pairs[slot]
        nums = _line(p, sign * (beta - (form.b - b) * alpha), size)
        dens = _line(d, sign * alpha, size)
        if v.search_bound is not None:
            ps = repeat(p) if nums is None else nums
            if form.b == -2:
                slot, ps, fixed = 2 - slot, map(sub, dens, ps), [(q - a, q) for a, q in fixed[::-1]]
            if slot == 0:
                bounds = map(search_bound, ps, dens)
            elif v.witness is not None:  # the search bound is fixed[0]'s, v's
                (a2, c2), n = fixed[1], v.search_bound
                ws = map(lambda p, d: _witness_from_pairs(p, d, a2, c2, n) if slot == 1
                         else _witness_from_pairs(a2, c2, p, d, n), ps, dens)
        return slopes, bs, nums, dens, ws, bounds


def _span(row) -> tuple:
    """(first, last) index of a run or a single, None at an infinite end."""
    return (row.from_n, row.to_n) if isinstance(row, Run) else (row.n, row.n)


@dataclass(frozen=True)
class FamilyReport:
    """An exact verdict for every integer n.

    ``rows`` partition Z in increasing order: the runs of the walk and, as
    ``PointVerdict``s, the singles between them.  The first row is the tail
    to -infinity and the last the tail to +infinity; a family with one
    verdict everywhere is the one row Run(None, None).  The limit fields,
    which only the writers read, are worked out from ``member`` when first
    read: ``limit_slope`` is beta/alpha, before any mirroring, and None for a
    projective-base family; ``limit`` is the |n| -> infinity limit space.
    """
    member: FamilyMember
    rows: tuple[Run | PointVerdict, ...]

    @cached_property
    def limit_slope(self):  # Fraction, INF or None
        return None if self.member.rp2 else self.member.data.limit_slope

    @cached_property
    def limit(self) -> SeifertForm:
        if self.member.rp2:
            return _RP2_FORM
        f = limit_space(self.member.data)
        return mirror(f) if self.member.mirrored else f

    @cached_property
    def limit_verdict(self) -> LSpaceVerdict:
        return decide(self.limit)

    @cached_property
    def _starts(self) -> list:  # the first index of each row but the first
        return [_span(row)[0] for row in self.rows[1:]]

    @property
    def tail_neg(self) -> Run:
        return self.rows[0]

    @property
    def tail_pos(self) -> Run:
        return self.rows[-1]

    @property
    def exceptional(self) -> tuple:
        """(n, tag) of the S2 x S1 and connected-sum members, all singles."""
        return tuple((r.n, r.tag) for r in self.rows if isinstance(r, PointVerdict)
                     and r.tag in (Tag.S2XS1, Tag.CONNECTED_SUM_LENS))

    def lspace_at(self, n: int) -> bool:
        """Verdict at any integer, from the row holding it, found by bisection."""
        row = self.rows[bisect_right(self._starts, n)]
        return row.is_lspace if type(row) is Run else row.verdict.is_lspace

    def pieces(self, lo: int, hi: int):
        """The report shown on the window lo..hi, in increasing order: the
        part of each row left of it, the singles and the ``Piece``s of the
        runs' pieces clipped to it, each piece's first member decided by
        ``evaluate_point``, and the part of each row right of it; so the
        tails come first and last."""
        if lo > hi:
            raise ValueError("empty window")
        for row in self.rows:
            a, b = _span(row)
            if a is None or a < lo:
                yield row if b is not None and b < lo else row._replace(to_n=lo - 1)
        for row in self.rows:
            if type(row) is PointVerdict:
                if lo <= row.n <= hi:
                    yield row
                continue
            for a, b, slot in row.pieces:
                a, b = lo if a is None else max(a, lo), hi if b is None else min(b, hi)
                if a <= b:
                    yield Piece(self.member, a, b, evaluate_point(self.member, a), slot)
        for row in self.rows:
            a, b = _span(row)
            if b is None or b > hi:
                yield row if a is not None and a > hi else row._replace(from_n=hi + 1)


_RP2_FORM = SeifertForm(base=Base.RP2)


def evaluate_point(d, n: int) -> PointVerdict:
    """The verdict on the n-th member, on integers alone from the member's
    ``frame``: the one-member path, which no piece cut enters.

    F(n) = (beta n + beta3, alpha n + alpha3) is reduced, as the frame is
    unimodular.  ``_space`` builds the member's form; where F(n) is no
    integer, ``lspace._decide_small`` decides it, as ``decide`` does any
    three-fiber form.  The pole, an integer F(n) and a projective-base
    member are classified.  The oracle is ``fraction_point`` in
    ``tests/oracles.py``.
    """
    member = d if isinstance(d, FamilyMember) else FamilyMember(data=d)
    if member.rp2:
        slope, form = None, _RP2_FORM
    else:
        b, fixed, alpha, beta, alpha3, beta3, m, ll = member.frame
        slope, form = m + n * ll, _space(b, fixed, beta * n + beta3, alpha * n + alpha3)
    if len(form.pairs) == 3:
        (p1, q1), (p2, q2), (p3, q3) = form.pairs
        return _new_tuple(PointVerdict, (n, slope, form, _SMALL,
                                         _decide_small(form.b, p1, q1, p2, q2, p3, q3)))
    tag = classify(form).tag  # the pole, an integer F(n) or the projective base
    return _new_tuple(PointVerdict, (n, slope, form, tag, _decide_classified(tag)))


def classify_family(d) -> FamilyReport:
    """Exact verdicts for every member, over all of Z, from the walk's runs,
    with their pieces, and its singles."""
    member = d if isinstance(d, FamilyMember) else FamilyMember(data=d)
    return FamilyReport(member, tuple(
        evaluate_point(member, row) if type(row) is int else
        _new_tuple(Run, (*row[:5], member.mirrored, tuple(row[5]))) for row in _runs(member)))
