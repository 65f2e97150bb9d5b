"""Independent oracles the test suite checks the library against.

The witness enumerator walks a precomputed table of every coprime pair up
to a fixed k with no pruning, and the homology oracle evaluates an integer
presentation-matrix determinant directly from raw (unnormalized) slope data;
neither shares code with the package.  ``loop_witness`` and
``loop_not_lspace_sup`` are the package's former witness search and
third-slot supremum, which walk every k below 1/s1 (linear in that
denominator); they are the references for the Stern-Brocot versions.
``cf_simplest_between`` is the textbook continued-fraction descent
on ``Fraction``s, the reference for ``simplest_pair`` and its batches.
``farey_neighbours`` is the package's former walk for the closest fractions
of bounded denominator on either side of a fraction, and
``walk_simplest_pair`` the Stern-Brocot tree walked one node at a time; they
are the references for ``simplest_pair``'s denominator cap.
``loop_torus_pq_candidates`` is the former base-form search over every
(b1, b2), the reference for its closed form.  The
``fraction_*`` functions are the package's former text parser,
``normalize``, ``classify`` and ``decide``, which build a ``Fraction`` per
slope and a form through the validating ``SeifertForm`` constructor; they are
the references for the integer-pair path.  They share only the package's
data classes, ``ParseError`` and the witness core ``_witness_from_pairs``.
``fraction_member_point`` is the package's former ``FamilyMember.point``:
the member's surgery slope and its form from ``fraction_normalize`` of the
raw slopes with a ``Fraction`` fiber slope, all negated for a mirrored
member.  ``fraction_point``, the package's former ``evaluate_point``, takes
that form through ``fraction_classify`` and ``fraction_decide``; it is the
reference for the integers ``evaluate_point`` builds a member from.
``fraction_runs``, with ``fraction_piece``, ``fraction_first_below`` and
``fiber_slope``, is the package's former ``Fraction`` walk ``_runs`` on the
data's index j: the reference for the integer walk on a member's frame,
through n = j - offset or, mirrored, n = -j - offset, and, through
``fiber_slope``, for ``surgered_space``.  The
``fraction_*`` oracles read a form's slopes through its ``Fraction`` view,
``SeifertForm.slopes``, once a call.  ``euler_number`` is b plus the sum of
those ``Fraction``s.  ``point_json`` and ``add_approx`` are the package's
former point encoder and --float pass: a point as a tree of dicts, and a walk
over a finished payload that adds "approx" to its pairs.  ``dumps`` of their
payload is the reference for the layouts ``formats.dumps`` writes points into
and for its ``approx``.  ``points``, ``shown`` and ``scan_lines`` are the
package's former ``Piece.points``, ``FamilyReport.shown`` and
``cli._scan_lines``: a window's members as ``PointVerdict``s, and each one's
text line from ``repr`` of its form, the reference for both writers.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import repeat
from math import gcd

import numpy as np

from seifert_lspace.formats import (ParseError, describe_segment, describe_tail, form_json,
                                    verdict_json)
from seifert_lspace.lspace import (LSpaceVerdict, Reason, ThirdSlotThreshold, _witness_from_pairs,
                                   search_bound, third_slot_threshold)
from seifert_lspace.rationals import INF, int_text, is_finite
from seifert_lspace.seifert import (Base, Classification, DegenerateEuler, SeifertForm, Tag,
                                    UnsupportedFiberCount, _trusted_form)
from seifert_lspace.twist import FamilyMember, Piece, PointVerdict, SeiferterData

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


def cf_simplest_between(lo: Fraction, hi: Fraction | None) -> Fraction:
    """Fraction of least denominator in (lo, hi), 0 <= lo < hi, hi None for
    infinity: the textbook continued-fraction descent on ``Fraction``s.  The
    least integer above lo is the answer if it lies below hi; otherwise lo
    and hi share the integer part f, and the answer is f + 1/x for x the
    simplest fraction in (1/(hi - f), 1/(lo - f)).  The quotients f are
    stacked on the way down and folded back into the answer."""
    quotients = []
    while True:
        f = math.floor(lo)
        if hi is None or f + 1 < hi:
            break
        quotients.append(f)
        lo, hi = 1 / (hi - f), None if lo == f else 1 / (lo - f)
    x = Fraction(f + 1)
    for f in reversed(quotients):
        x = f + 1 / x
    return x


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


def walk_simplest_pair(p: int, q: int, r: int, s: int, n: int):
    """(node, left parent, right parent), each a (num, den) pair, where node
    is the first node of the Stern-Brocot path towards (p/q, r/s) that lies
    inside it or has a denominator above n: the tree walked one node at a
    time from the parents 0/1 and 1/0, so only for short paths."""
    a, b, c, d = 0, 1, 1, 0
    while True:
        m, e = a + c, b + d
        if (p * e < m * q and m * s < r * e) or e > n:
            return (m, e), (a, b), (c, d)
        if m * q <= p * e:
            a, b = m, e
        else:
            c, d = m, e


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


def loop_torus_pq_candidates(p: int, q: int, l: int):
    """The package's former ``torus_pq_candidates``: every b1 < p and b2 < q
    coprime to them, kept when pq divides l^2 - q*b1 - p*b2."""
    pq, ll = p * q, l * l
    return [((ll - q * b1 - p * b2) // pq, Fraction(b1, p), Fraction(b2, q))
            for b1 in range(1, p) if gcd(b1, p) == 1
            for b2 in range(1, q) if gcd(b2, q) == 1 and (ll - q * b1 - p * b2) % pq == 0]


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


# ---- the Fraction-based text-to-verdict path, kept verbatim as a reference

_FRACTION_TOKEN = re.compile(r"\s*(-?\d+/\d+|-?\d+|inf|[A-Za-z]\w*|[\[\];,])")


def fraction_tokens(text: str):
    out, i = [], 0
    while i < len(text):
        m = _FRACTION_TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise ParseError("unexpected character", text, i)
            break
        out.append((m.group(1), m.start(1)))
        i = m.end()
    return out


def _integer(digits: str, text: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError("integer too long", text, at) from None


def fraction_parse_form(text: str) -> SeifertForm:
    """Parse the SFS grammar into a normalized form."""
    toks = fraction_tokens(text)
    pos = 0

    def expect(value):
        nonlocal pos
        if pos >= len(toks) or toks[pos][0] != value:
            at = toks[pos][1] if pos < len(toks) else len(text)
            raise ParseError(f"expected {value!r}", text, at)
        pos += 1

    def peek():
        return toks[pos][0] if pos < len(toks) else None

    expect("SFS")
    expect("[")
    base = peek()
    if base not in ("S2", "RP2"):
        at = toks[pos][1] if pos < len(toks) else len(text)
        raise ParseError("expected base 'S2' or 'RP2'", text, at)
    pos += 1
    if base == "RP2":
        expect("]")
        if pos != len(toks):
            raise ParseError("trailing input", text, toks[pos][1])
        return SeifertForm(base=Base.RP2)
    expect(";")
    tok, at = toks[pos] if pos < len(toks) else (None, len(text))
    if tok is None or not re.fullmatch(r"-?\d+", tok):
        raise ParseError("expected integer section term", text, at)
    b = _integer(tok, text, at)
    pos += 1
    slopes = []
    if peek() == ";":
        pos += 1
        while True:
            tok, at = toks[pos] if pos < len(toks) else (None, len(text))
            if tok is None:
                raise ParseError("expected a slope", text, at)
            if tok == "inf":
                slopes.append(INF)
            elif tok[0] == "-" or tok[0].isdigit():
                # a numeric token: -?d+ or -?d+/d+
                n, _, d = tok.partition("/")
                num, den = _integer(n, text, at), _integer(d, text, at) if d else 1
                if den:
                    slopes.append(Fraction(num, den))
                elif num:
                    slopes.append(INF)
                else:
                    raise ParseError("0/0 is not a slope", text, at)
            else:
                raise ParseError("expected a slope", text, at)
            pos += 1
            if peek() == ",":
                pos += 1
                continue
            break
    expect("]")
    if pos != len(toks):
        raise ParseError("trailing input", text, toks[pos][1])
    return fraction_normalize(b, slopes)


def fraction_normalize(b: int, raw, base: Base = Base.S2) -> SeifertForm:
    """Fold integer parts of the raw slopes into b and sort what remains.

    Integral slopes (in particular zeros) disappear into the section term;
    infinite entries are counted as degenerate fibers.
    """
    if base is Base.RP2:
        return SeifertForm(base=Base.RP2)
    b = int(b)
    slopes = []
    degenerate = 0
    for r in raw:
        if not is_finite(r):
            degenerate += 1
            continue
        p, q = r.numerator, r.denominator
        if 0 < p < q:
            slopes.append(r)
            continue
        whole = p // q
        b += whole
        p -= whole * q
        if p:
            slopes.append(Fraction(p, q))  # still reduced: gcd(p - wq, q) = gcd(p, q)
    out = []
    for r in slopes:  # insertion sort by integer cross-multiplication
        p, q = r.numerator, r.denominator
        i = len(out)
        while i > 0 and p * out[i - 1].denominator < out[i - 1].numerator * q:
            i -= 1
        out.insert(i, r)
    return SeifertForm(base=base, b=b, pairs=tuple((r.numerator, r.denominator) for r in out),
                       degenerate=degenerate)


def euler_number(f: SeifertForm) -> Fraction:
    """b + sum of the slopes; only defined for nondegenerate sphere-base forms."""
    if f.base is not Base.S2 or f.degenerate:
        raise DegenerateEuler("euler number needs a nondegenerate form over S2")
    return f.b + sum(f.slopes, Fraction(0))


def fraction_h1_order(f: SeifertForm):
    """|H_1| of a nondegenerate sphere-base form: an integer, or INF if infinite."""
    if f.base is not Base.S2 or f.degenerate:
        raise DegenerateEuler("h1_order needs a nondegenerate form over S2; "
                              "classify() covers the degenerate cases")
    return _fraction_h1_order(f.b, f.slopes)


def _fraction_h1_order(b: int, slopes) -> int:
    prod = 1
    for r in slopes:
        prod *= r.denominator
    n = prod * b
    for r in slopes:
        n += r.numerator * (prod // r.denominator)
    return INF if n == 0 else abs(n)


def fraction_classify(f: SeifertForm) -> Classification:
    """Coarse homeomorphism type of a normalized form.

    At most three finite exceptional fibers are supported, and at most one
    degenerate fiber alongside finite ones.  Two or more degenerate fibers
    with nothing else is the product case S2 x S1.
    """
    return _fraction_classify(f, f.slopes)


def _fraction_classify(f: SeifertForm, slopes) -> Classification:
    if f.base is Base.RP2:
        return Classification(Tag.RP2_BASE)
    k = len(slopes)
    if f.degenerate == 0:
        if k > 3:
            raise UnsupportedFiberCount(f"{k} exceptional fibers")
        h = _fraction_h1_order(f.b, slopes)
        if k == 3:
            return Classification(Tag.SMALL_SFS, h)
        if h is INF:
            return Classification(Tag.S2XS1, h)
        return Classification(Tag.S3 if h == 1 else Tag.LENS, h)
    if f.degenerate == 1 and k <= 2:
        orders = tuple(r.denominator for r in slopes)
        h = math.prod(orders)
        if k == 2:
            return Classification(Tag.CONNECTED_SUM_LENS, h, orders)
        return Classification(Tag.S3 if h == 1 else Tag.LENS, h)
    if f.degenerate >= 2 and k == 0:
        return Classification(Tag.S2XS1, INF)
    raise UnsupportedFiberCount(
        f"{k} finite + {f.degenerate} degenerate fibers is outside the supported range")


def fraction_decide(f: SeifertForm) -> LSpaceVerdict:
    """Is the (normalized) Seifert form an L-space?"""
    slopes = f.slopes  # each read of the view builds its Fractions anew
    return _fraction_decide_classified(f, _fraction_classify(f, slopes), slopes)


def _fraction_decide_classified(f: SeifertForm, c: Classification, slopes) -> LSpaceVerdict:
    if c.tag is Tag.RP2_BASE:
        return LSpaceVerdict(Reason.RP2_BASE)
    if c.tag is Tag.CONNECTED_SUM_LENS:
        # both summand orders are >= 2, so neither summand is S3 or S2 x S1
        return LSpaceVerdict(Reason.CONNECTED_SUM_OF_LSPACES)
    if c.tag is Tag.S2XS1:
        return LSpaceVerdict(Reason.INFINITE_H1)
    if c.tag in (Tag.S3, Tag.LENS):
        return LSpaceVerdict(Reason.LENS_NOT_S2XS1)

    b = f.b
    if b >= 0 or b <= -3:
        return LSpaceVerdict(Reason.B_LARGE)
    dual = b == -2
    if dual:
        # complemented slopes in sorted order, without building new fractions
        pairs = [(r.denominator - r.numerator, r.denominator)
                 for r in reversed(slopes)]
    else:
        pairs = [(r.numerator, r.denominator) for r in slopes]
    (p1, q1), (p2, q2), (p3, q3) = pairs
    bound = search_bound(p1, q1)
    w = _witness_from_pairs(p2, q2, p3, q3, bound)
    if c.h1 is INF:
        # not a rational homology sphere, hence not an L-space; the witness
        # (which exists exactly when a horizontal foliation does) is still
        # reported alongside.
        return LSpaceVerdict(Reason.INFINITE_H1, witness=w,
                             witness_is_dual=dual and w is not None, search_bound=bound)
    if w is not None:
        return LSpaceVerdict(Reason.DUAL_WITNESS if dual else Reason.WITNESS,
                             witness=w, witness_is_dual=dual, search_bound=bound)
    return LSpaceVerdict(Reason.NO_WITNESS_EXHAUSTIVE, search_bound=bound)


def fraction_member_point(member: FamilyMember, n: int):
    """(surgery slope or None, normalized form) of the n-th member: the
    data's j-th space S2(b; r1, r2, f(j)) with j = n + offset, or the mirror
    S2(-b; -r1, -r2, -f(j)) of the one with j = -(n + offset), and the
    surgery slope m + j l^2, negated with it."""
    if member.rp2:
        return None, SeifertForm(base=Base.RP2)
    d = member.data
    s = -1 if member.mirrored else 1
    j = s * (n + member.offset)
    den = j * d.alpha + d.alpha3
    raw = (d.r1, d.r2, INF if den == 0 else Fraction(j * d.beta + d.beta3, den))
    return s * (d.m + j * d.l * d.l), fraction_normalize(s * d.b, [r if r is INF else s * r
                                                                   for r in raw])


def fraction_point(member: FamilyMember, n: int) -> PointVerdict:
    """The n-th member's verdict from its ``Fraction`` form."""
    slope, form = fraction_member_point(member, n)
    return PointVerdict(n, slope, form, fraction_classify(form).tag, fraction_decide(form))


# ---- the Fraction-based twist walk, kept verbatim as a reference

def fiber_slope(d: SeiferterData, n: int):
    """Slope of the twisted seiferter after n twists; INF at the pole."""
    den = n * d.alpha + d.alpha3
    num = n * d.beta + d.beta3
    if den == 0:
        return INF
    return Fraction(num, den)


def fraction_piece(desc: ThirdSlotThreshold, r: Fraction, below: bool = False):
    """The piece of (0,1) on which ``desc`` has one verdict and which holds
    r, or with ``below`` the slopes just below r.

    Returns (is_lspace, lo, lo_closed): the verdict and the piece's lower
    end, which belongs to the piece when it is closed.
    """
    x = desc.boundary
    if x is None or not 0 < x < 1:
        return True, Fraction(0), False
    # the L-space piece lies above x for b = -1 and below it for b = -2; x
    # itself is an L-space, so it closes the upper piece only for b = -1
    up = desc.b == -1
    if r > x or (r == x and up and not below):
        return up, x, up
    return not up, Fraction(0), False


def fraction_first_below(d: SeiferterData, c: Fraction, strict: bool) -> int:
    """Least j with f(j) < c (strict) or f(j) <= c, among the indices on the
    side of the pole where f takes the value c.

    f is decreasing there, so this inverts f(x) = c (Moebius inversion) and
    rounds; c must differ from the limit slope beta/alpha.
    """
    x = (d.beta3 - c * d.alpha3) / (c * d.alpha - d.beta)
    return math.floor(x) + 1 if strict else math.ceil(x)


def fraction_runs(d: SeiferterData) -> list:
    """Cut the data indices, all of Z, into one increasing list of maximal
    runs (from_j, to_j, is_lspace, band_base, threshold), None marking an
    infinite end, and the indices between them that no threshold covers, as
    ints: the pole, integer values of f, and the alpha = 0 S2 x S1 index.

    A run holds the indices whose f(j) lies in one piece of one band, where
    the band's threshold has one verdict.  The walk starts at -infinity in
    the piece just below beta/alpha and ends at the run right of the pole
    whose lower cut is at or below beta/alpha: f stays above beta/alpha
    there, so that run goes on to +infinity.
    """
    if d.alpha == 0:
        # f(j) = -j + beta3 is an integer for every j: all members are lens
        # spaces, L-spaces except a single possible S2 x S1.
        if d.r1 + d.r2 != 1:
            return [(None, None, True, None, None)]
        j = d.b + d.beta3 + 1
        return [(None, j - 1, True, None, None), j, (j + 1, None, True, None, None)]

    cache = {}

    def piece(v, below=False):
        # v's band (the lower one if v is an integer, which only the limit
        # slope can be), its threshold, computed once per band, and the
        # piece holding v or the slopes just below it
        p = math.ceil(v) - 1
        if p not in cache:
            cache[p] = third_slot_threshold(d.b + p, d.r1, d.r2)
        verdict, lo, lo_closed = fraction_piece(cache[p], v - p, below)
        return verdict, p + lo, lo_closed, d.b + p, cache[p]

    pole = Fraction(-d.alpha3, d.alpha)
    rc = d.limit_slope
    # f increases to rc from below as j -> -infinity
    verdict, c, closed, base, desc = piece(rc, below=True)
    j = fraction_first_below(d, c, closed)
    rows = [(None, j - 1, verdict, base, desc)]
    # at integers |f(j) - rc| <= 1/|alpha|, so each side of the pole meets at
    # most three bands, each split at most once by its threshold
    while True:
        v = fiber_slope(d, j)
        if v is INF or v.denominator == 1:
            rows.append(j)
            j += 1
            continue
        verdict, c, closed, base, desc = piece(v)
        if j > pole and c <= rc:
            # f > rc right of the pole, so this cut is never reached
            rows.append((j, None, verdict, base, desc))
            return rows
        nxt = fraction_first_below(d, c, closed)
        rows.append((j, nxt - 1, verdict, base, desc))
        j = nxt



def point_json(p: PointVerdict):
    """A point's JSON object as a tree of dicts."""
    return {
        "n": p.n,
        "m_n": p.slope,
        "seifert_form": form_json(p.form),
        "tag": p.tag.value,
        "verdict": verdict_json(p.verdict),
    }


def add_approx(o):
    """Add "approx", the float nearest num/den, to every {"num", "den"} pair
    in the payload o that has den != 0 and a value a float holds; returns o."""
    if type(o) is dict and o.keys() == {"num", "den"}:
        if o["den"]:
            try:
                o["approx"] = o["num"] / o["den"]
            except OverflowError:  # |num/den| is beyond the largest float
                pass
    elif type(o) is dict or type(o) is list:
        for v in (o.values() if type(o) is dict else o):
            add_approx(v)
    return o


# ---- the package's former per-member view of a window and its text lines

def points(piece: Piece):
    """The ``PointVerdict``s of the piece's members, in order, from its
    ``columns``."""
    first, slot = piece.first, piece.slot
    f, v, tag = first.form, first.verdict, first.tag
    slopes, bs, nums, dens, ws, bounds = piece.columns()
    if bs is None and dens is None:  # one member, or projective-base ones
        for n in range(piece.lo, piece.hi + 1):
            yield first._replace(n=n)
        return
    fixed = piece.member.frame[1]
    p, d = (None, None) if slot is None else f.pairs[slot]
    reason, dual = v.reason, v.witness_is_dual
    for n, slope, b, p, d, w, bound in zip(
            range(piece.lo, piece.hi + 1), slopes or repeat(first.slope),
            bs or repeat(f.b), nums or repeat(p), dens or repeat(d),
            ws or repeat(v.witness), bounds or repeat(v.search_bound)):
        pairs = fixed if slot is None else (*fixed[:slot], (p, d), *fixed[slot:])
        verdict = v if ws is None and bounds is None else LSpaceVerdict(reason, w, dual, bound)
        yield PointVerdict(n, slope, _trusted_form(b, pairs, 0), tag, verdict)


def shown(report, lo: int, hi: int):
    """``report.pieces(lo, hi)`` with each piece expanded into the
    ``PointVerdict``s of its members."""
    for row in report.pieces(lo, hi):
        if type(row) is Piece:
            yield from points(row)
        else:
            yield row


def scan_lines(report, window):
    """A report's text lines on the window, one per member of ``shown``,
    each formatted from its ``PointVerdict`` with ``repr`` of its form."""
    lo, hi = window
    for row in shown(report, lo, hi):
        if isinstance(row, PointVerdict):
            mark = "" if lo <= row.n <= hi else " (gap exception)"
            slope = "-" if row.slope is None else int_text(row.slope)
            verdict = "L-space" if row.verdict.is_lspace else "NOT L-space"
            w = row.verdict.witness
            wit = "" if w is None else f"  witness (k={int_text(w.k)}, a={int_text(w.a)})"
            yield (f"  n={int_text(row.n):>5}  m_n={slope:>8}  {row.form!r:<40} "
                   f"{verdict}{wit}{mark}")
        elif row.from_n is None:
            tail_neg = row
        elif row.to_n is None:
            tail_pos = row
        else:
            yield f"  segment: {describe_segment(row)}"
    yield f"tail n -> +inf: {describe_tail(tail_pos, report.limit_slope)}"
    yield f"tail n -> -inf: {describe_tail(tail_neg, report.limit_slope)}"
    yield (f"limit space: {report.limit!r} "
           f"({'L-space' if report.limit_verdict.is_lspace else 'not an L-space'})")
    if report.exceptional:
        yield "exceptional n: " + ", ".join(f"{int_text(n)} ({tag.value})"
                                            for n, tag in report.exceptional)
