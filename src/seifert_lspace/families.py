"""Catalog of explicit twist families and their arithmetic guarantee checkers.

Each family comes from a knot-seiferter pair whose surgered manifold is known
in closed Seifert form.  For surgeries on torus knots and their cables whose
result is a connected sum of two lens spaces, the Seifert data is pinned down
by the homology identity |H1| = |pq + n l^2|: ``torus_pq_candidates``
enumerates the (at most one) base form S2(B; b1/p, b2/q) compatible with it.
The guarantee attached to a family is a claim about every integer n, not a
rederived proof; the twist engine checks it over all of Z from the runs and
singles of each member.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import gcd

from .rationals import int_text
from .seifert import normalize
from .twist import FamilyMember, Run, SeiferterData, _span, classify_family


class GuaranteeKind(Enum):
    ALL_N = "AllN"
    N_GE = "NGe"
    N_LE = "NLe"
    ALL_N_EXCEPT = "AllNExcept"


@dataclass(frozen=True)
class Guarantee:
    kind: GuaranteeKind
    bound: int | None = None
    exceptions: tuple[int, ...] = ()

    def __repr__(self):
        if self.kind is GuaranteeKind.ALL_N:
            return "L-space for all n"
        if self.kind is GuaranteeKind.N_GE:
            return f"L-space for n >= {self.bound}"
        if self.kind is GuaranteeKind.N_LE:
            return f"L-space for n <= {self.bound}"
        return f"L-space for all n except {list(self.exceptions)}"


ALL_N = Guarantee(GuaranteeKind.ALL_N)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    description: str
    params: tuple[tuple[str, int], ...]
    guarantee: Guarantee
    members: tuple[FamilyMember, ...]


class PreconditionFailed(ValueError):
    pass


def linking_guarantee(p: int, q: int, l: int) -> Guarantee:
    """Twisting guarantee for a seiferter of a (p*q)-surgery on a torus knot
    or cable, from the linking number alone: all n when l^2 >= 2pq, otherwise
    n >= -1."""
    if p < 2 or q < 2:
        raise PreconditionFailed("p and q must both be at least 2")
    if l * l >= 2 * p * q:
        return ALL_N
    return Guarantee(GuaranteeKind.N_GE, -1)


def torus_pq_candidates(p: int, q: int, l: int):
    """Base forms S2(B; b1/p, b2/q) with B + b1/p + b2/q = l^2/(pq).

    These are exactly the closed forms for which S2(B; b1/p, b2/q, 1/n) has
    first homology of order |pq + n l^2| for every n.  Returns a list of
    (B, r1, r2); it has at most one entry, and is empty when no integral B
    exists (in particular when l shares a factor with pq).
    """
    if gcd(p, q) != 1:
        raise PreconditionFailed("p and q must be coprime")
    if p < 2 or q < 2 or l < 1:
        raise PreconditionFailed("need p, q >= 2 and l >= 1")
    # B*pq = l^2 - q*b1 - p*b2 holds mod p and mod q exactly for these residues
    ll = l * l
    b1, b2 = ll * pow(q, -1, p) % p, ll * pow(p, -1, q) % q
    if gcd(b1, p) != 1 or gcd(b2, q) != 1:
        return []
    return [((ll - q * b1 - p * b2) // (p * q), Fraction(b1, p), Fraction(b2, q))]


def _degenerate_member(B: int, r1: Fraction, r2: Fraction, m: int, l: int,
                       mirrored=False, offset=0, label="") -> FamilyMember:
    """Member whose seiferter is a degenerate fiber: slope 1/n, pole at n=0."""
    data = SeiferterData(b=B, r1=min(r1, r2), r2=max(r1, r2),
                         alpha=1, beta=0, alpha3=0, beta3=1,
                         m=m, l=l)
    return FamilyMember(data=data, mirrored=mirrored, offset=offset, label=label)


def _torus_members(p: int, q: int, l: int, m: int, mirrored=False, offset=0):
    cands = torus_pq_candidates(p, q, l)
    if not cands:
        raise PreconditionFailed(f"no Seifert base form for (p, q, l) = ({p}, {q}, {l})")
    return tuple(_degenerate_member(B, r1, r2, m, l, mirrored, offset,
                                    label=f"S2({B}; {r1}, {r2})")
                 for B, r1, r2 in cands)


class TwistedTorusKind(Enum):
    P_PLUS_Q = "p+q"
    P_MINUS_Q = "p-q"
    K4P1 = "K(3p+1,2p+1;4p+1)"
    K4P3 = "K(3p+2,2p+1;4p+3)"
    K2P2 = "K(2p+3,2p+1;2p+2)"


def twisted_torus_family(kind: TwistedTorusKind, **params) -> FamilySpec:
    """Twisted torus knot families with an L-space guarantee.

    * p+q   : K(p, q; p+q, n), p, q >= 2 coprime -- all n
    * p-q   : K(p, q; p-q, n), p > q >= 2 coprime -- n >= -1
    * the three one-parameter families K(3p+1, 2p+1; 4p+1, n) (all n),
      K(3p+2, 2p+1; 4p+3, n) (all n), K(2p+3, 2p+1; 2p+2, n) (n >= -1).
    """
    kind = TwistedTorusKind(kind)
    if kind in (TwistedTorusKind.P_PLUS_Q, TwistedTorusKind.P_MINUS_Q):
        p, q = params["p"], params["q"]
        if p < 2 or q < 2 or gcd(p, q) != 1:
            raise PreconditionFailed("need coprime p, q >= 2")
        if kind is TwistedTorusKind.P_PLUS_Q:
            l, guarantee = p + q, ALL_N
        else:
            if p == q:
                raise PreconditionFailed("p = q is not a knot")
            l, guarantee = abs(p - q), Guarantee(GuaranteeKind.N_GE, -1)
        name = f"K({p},{q};{l},n)"
        return FamilySpec(name=name,
                          description=f"twisted torus knots {name}",
                          params=(("p", p), ("q", q)),
                          guarantee=guarantee,
                          members=_torus_members(p, q, l, p * q))
    p = params["p"]
    if p < 1:
        raise PreconditionFailed("need p > 0")
    table = {
        TwistedTorusKind.K4P1: (3 * p + 1, 2 * p + 1, 4 * p + 1, ALL_N),
        TwistedTorusKind.K4P3: (3 * p + 2, 2 * p + 1, 4 * p + 3, ALL_N),
        TwistedTorusKind.K2P2: (2 * p + 3, 2 * p + 1, 2 * p + 2,
                                Guarantee(GuaranteeKind.N_GE, -1)),
    }
    P, Q, l, guarantee = table[kind]
    name = f"K({P},{Q};{l},n)"
    return FamilySpec(name=name,
                      description=f"twisted torus knots {name}",
                      params=(("p", p),),
                      guarantee=guarantee,
                      members=_torus_members(P, Q, l, P * Q))


def unknot_seiferter_data(m: int, p: int) -> SeiferterData:
    """Seiferter data for the unknot-twisting families.

    The surgered space after n twists is the closed form with fixed slopes
    coming from (1-p)/(2p) and (p-2m-1)/(2p-4m) and varying slope
    -n/(mn+1).  Requires odd p >= 3 and p != 2m +- 1 (those parameters give
    a non-hyperbolic pair and a slope that leaves the normal form).
    """
    if p < 3 or p % 2 == 0:
        raise PreconditionFailed("p must be an odd integer >= 3")
    if p == 2 * m + 1 or p == 2 * m - 1:
        raise PreconditionFailed("p = 2m +- 1 collapses a fixed fiber")
    s1 = Fraction(1 - p, 2 * p)
    s2 = Fraction(p - 2 * m - 1, 2 * p - 4 * m)
    form = normalize(0, (s1, s2))
    r1, r2 = form.slopes
    return SeiferterData(b=form.b, r1=r1, r2=r2,
                         alpha=m, beta=-1, alpha3=1, beta3=0,
                         m=m, l=abs(p - m))


def unknot_seiferter_family(m: int, p: int) -> FamilySpec:
    """Unknot twist families: L-space surgeries for every n except (m, n) = (0, 0)."""
    if m > 0:
        raise PreconditionFailed("the guarantee needs m <= 0")
    data = unknot_seiferter_data(m, p)
    if m == 0:
        guarantee = Guarantee(GuaranteeKind.ALL_N_EXCEPT, exceptions=(0,))
    else:
        guarantee = ALL_N
    return FamilySpec(name=f"unknot[m={m},p={p}]",
                      description="twisted unknots from a seiferter of the "
                                  f"{m}-surgery, linking number {p - m}",
                      params=(("m", m), ("p", p)),
                      guarantee=guarantee,
                      members=(FamilyMember(data=data),))


def tunnel2_family(which: str) -> FamilySpec:
    """The two tunnel-number-two families.

    A: surgeries (196n+71) with forms S2((11n+4)/(14n+5), -2/7, 1/2);
    B: surgeries (100n+71) with forms S2(-(3n+2)/(10n+7), 4/5, 1/2).
    Both are L-spaces for every n.
    """
    which = which.upper()
    if which == "A":
        data = SeiferterData(b=-1, r1=Fraction(1, 2), r2=Fraction(5, 7),
                             alpha=14, beta=11, alpha3=5, beta3=4,
                             m=71, l=14)
    elif which == "B":
        data = SeiferterData(b=0, r1=Fraction(1, 2), r2=Fraction(4, 5),
                             alpha=10, beta=-3, alpha3=7, beta3=-2,
                             m=71, l=10)
    else:
        raise PreconditionFailed("which must be 'A' or 'B'")
    return FamilySpec(name=f"tunnel2-{which}",
                      description="tunnel-number-two knots built from a trefoil "
                                  "by alternate twisting along two seiferters",
                      params=(),
                      guarantee=ALL_N,
                      members=(FamilyMember(data=data),))


def berge_sporadic(kind: str, p: int) -> FamilySpec:
    """Twist families through the sporadic Berge knots (types IX--XII).

    kind 'a' (p > 1): cable base (6p+1, p), linking 4p+1, Berge knot at n=1,
    surgery 22p^2+9p+1.  kind 'b' (p > 0): base (3p+1, 2p+1), linking 4p+1,
    Berge at n=1, surgery 22p^2+13p+2.  kinds 'c' and 'd' (p > 0) are the
    mirror families over bases (3p+2, 2p+1) and the cable base (6p+5, p+1)
    with linking 4p+3; their Berge members sit at n=-1 with surgery slopes
    -(22p^2+31p+11) and -(22p^2+35p+14).  All four carry the all-n guarantee
    since l^2 >= 2pq in each case.
    """
    kind = kind.lower()
    if kind == "a":
        if p <= 1:
            raise PreconditionFailed("kind 'a' needs p > 1")
        P, Q, l, mirrored = 6 * p + 1, p, 4 * p + 1, False
    elif kind == "b":
        if p < 1:
            raise PreconditionFailed("kind 'b' needs p > 0")
        P, Q, l, mirrored = 3 * p + 1, 2 * p + 1, 4 * p + 1, False
    elif kind == "c":
        if p < 1:
            raise PreconditionFailed("kind 'c' needs p > 0")
        P, Q, l, mirrored = 3 * p + 2, 2 * p + 1, 4 * p + 3, True
    elif kind == "d":
        if p < 1:
            raise PreconditionFailed("kind 'd' needs p > 0")
        P, Q, l, mirrored = 6 * p + 5, p + 1, 4 * p + 3, True
    else:
        raise PreconditionFailed("kind must be one of a, b, c, d")
    guarantee = linking_guarantee(P, Q, l)
    berge_n = -1 if mirrored else 1
    return FamilySpec(name=f"berge-spor-{kind}[p={p}]",
                      description=f"sporadic Berge family: base ({int_text(P)}, "
                                  f"{int_text(Q)}), linking {int_text(l)}, "
                                  f"Berge knot at n={berge_n}",
                      params=(("p", p),),
                      guarantee=guarantee,
                      members=_torus_members(P, Q, l, P * Q, mirrored=mirrored))


@dataclass(frozen=True)
class TorusKnotDegenerate:
    """Parameter combinations where the twisted knot is just a torus knot."""
    a: int
    b: int


def berge_type_vii_viii(a: int, b: int, kind: str):
    """Twist families through Berge knots of types VII and VIII.

    The type VII (resp. VIII) knot on parameters (a, b), gcd(a, b) = 1, is
    the (-1)- (resp. (+1)-) twist of the torus knot T(a+b, -a) along a
    circle of linking number |b|; the family index n counts further twists
    of the Berge knot itself.  When a(a+b) < 0 the family is an all-n
    L-space family; when a(a+b) > 0 it is guaranteed for n <= 1 - eps with
    eps = -1 for VII and +1 for VIII.  Degenerate parameters (|a|, |b| or
    |a+b| at most 1) give torus knots and are returned as such.
    """
    if gcd(a, b) != 1:
        raise PreconditionFailed("a and b must be coprime")
    kind = kind.upper()
    if kind not in ("VII", "VIII"):
        raise PreconditionFailed("kind must be VII or VIII")
    if abs(a) <= 1 or abs(b) <= 1 or abs(a + b) <= 1:
        return TorusKnotDegenerate(a, b)
    eps = -1 if kind == "VII" else 1
    P, Q = abs(a + b), abs(a)
    if a * (a + b) < 0:
        l = P + Q
        guarantee = ALL_N
        members = _torus_members(P, Q, l, P * Q, offset=eps)
    else:
        l = abs(P - Q)
        guarantee = Guarantee(GuaranteeKind.N_LE, 1 - eps)
        members = _torus_members(P, Q, l, P * Q, mirrored=True, offset=eps)
    return FamilySpec(name=f"berge-{kind}[a={a},b={b}]",
                      description=f"type {kind} Berge family on (a, b) = ({a}, {b})",
                      params=(("a", a), ("b", b)),
                      guarantee=guarantee,
                      members=members)


def satellite_guarantee(w: int, m: int, g: int) -> bool:
    """Twisting a satellite with winding number w about the boundary of a
    meridian disk keeps the L-space property for all n >= 0, provided the
    companion has an L-space surgery at slope 2g-1 and m >= w^2(2g-1).

    The n-th member surgers the companion at slope m/w^2 + n >= 2g-1.
    """
    if w < 2 or g < 1:
        raise PreconditionFailed("need winding number w >= 2 and genus g >= 1")
    if m < w * w * (2 * g - 1):
        raise PreconditionFailed(f"need m >= w^2(2g-1) = {w * w * (2 * g - 1)}")
    return True


def distinctness_bound(l: int, n: int, n2: int) -> bool:
    """Can the n- and n2-members of a linking-l twist family be the same
    hyperbolic knot?  Two Seifert surgeries on one hyperbolic knot have
    distance at most 8, so this requires |(n - n2) l^2| <= 8."""
    if l < 1:
        raise PreconditionFailed("need l >= 1")
    return abs((n - n2) * l * l) <= 8


def eudave_munoz_rp2_family(l: int) -> FamilySpec:
    """Annulus-twist families whose surgeries fiber over the projective plane.

    The base surgery slope is 12l^2 - 4l and the two exceptional fibers have
    indices |l| and |-3l+1|.  Rational homology spheres fibered over RP2 are
    L-spaces, so every member is an L-space surgery.
    """
    if l == 0:
        raise PreconditionFailed("l must be nonzero")
    slope, i1, i2 = int_text(12 * l * l - 4 * l), int_text(abs(l)), int_text(abs(-3 * l + 1))
    return FamilySpec(name=f"em-rp2[l={int_text(l)}]",
                      description=f"projective-base family, base slope {slope}, "
                                  f"fiber indices ({i1}, {i2})",
                      params=(("l", l),),
                      guarantee=ALL_N,
                      members=(FamilyMember(rp2=True),))


@cache
def catalog() -> tuple[FamilySpec, ...]:
    """Every named family shipped with the package, built on the first call
    and shared after it: every field of a spec is frozen or a tuple."""
    return (
        twisted_torus_family(TwistedTorusKind.P_PLUS_Q, p=3, q=2),
        twisted_torus_family(TwistedTorusKind.P_PLUS_Q, p=5, q=2),
        twisted_torus_family(TwistedTorusKind.P_MINUS_Q, p=5, q=2),
        twisted_torus_family(TwistedTorusKind.K4P1, p=1),
        twisted_torus_family(TwistedTorusKind.K4P3, p=1),
        twisted_torus_family(TwistedTorusKind.K2P2, p=1),
        unknot_seiferter_family(0, 3),
        unknot_seiferter_family(-1, 3),
        unknot_seiferter_family(-3, 5),
        tunnel2_family("A"),
        tunnel2_family("B"),
        berge_sporadic("a", 2),
        berge_sporadic("b", 1),
        berge_sporadic("c", 1),
        berge_sporadic("d", 1),
        berge_type_vii_viii(2, 3, "VII"),
        berge_type_vii_viii(-2, 5, "VIII"),
        eudave_munoz_rp2_family(1),
        eudave_munoz_rp2_family(2),
    )


_BUILDERS = {
    "p+q": lambda p, q: twisted_torus_family(TwistedTorusKind.P_PLUS_Q, p=p, q=q),
    "p-q": lambda p, q: twisted_torus_family(TwistedTorusKind.P_MINUS_Q, p=p, q=q),
    "k4p1": lambda p: twisted_torus_family(TwistedTorusKind.K4P1, p=p),
    "k4p3": lambda p: twisted_torus_family(TwistedTorusKind.K4P3, p=p),
    "k2p2": lambda p: twisted_torus_family(TwistedTorusKind.K2P2, p=p),
    "unknot": lambda m, p: unknot_seiferter_family(m, p),
    "tunnel2-a": lambda: tunnel2_family("A"),
    "tunnel2-b": lambda: tunnel2_family("B"),
    "spor-a": lambda p: berge_sporadic("a", p),
    "spor-b": lambda p: berge_sporadic("b", p),
    "spor-c": lambda p: berge_sporadic("c", p),
    "spor-d": lambda p: berge_sporadic("d", p),
    "berge-vii": lambda a, b: berge_type_vii_viii(a, b, "VII"),
    "berge-viii": lambda a, b: berge_type_vii_viii(a, b, "VIII"),
    "em-rp2": lambda l: eudave_munoz_rp2_family(l),
}


def family_kinds() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def _parameters(builder) -> tuple[str, ...]:
    return builder.__code__.co_varnames[:builder.__code__.co_argcount]


def build_family(kind: str, **params) -> FamilySpec:
    """Construct a family from a kind name and named integer parameters.

    The result of ``berge_type_vii_viii`` may be TorusKnotDegenerate, which
    is returned as-is.
    """
    try:
        builder = _BUILDERS[kind.lower()]
    except KeyError:
        raise KeyError(f"unknown family kind {kind!r}; one of {', '.join(family_kinds())}")
    names = _parameters(builder)
    if set(params) != set(names):
        raise PreconditionFailed(f"family kind {kind!r} takes parameters {', '.join(names) or 'none'}")
    return builder(**params)


def find_family(name: str) -> FamilySpec:
    """The catalog family of this name, or of which it is the one
    substring, or the family of a kind that takes no parameters, named in
    any case."""
    specs = catalog()
    for s in specs:
        if s.name == name:
            return s
    matches = [s for s in specs if name in s.name]
    if len(matches) == 1:
        return matches[0]
    builder = _BUILDERS.get(name.lower())
    if builder is not None and not _parameters(builder):
        return builder()
    raise KeyError(name)


def check_guarantee(spec: FamilySpec):
    """Confirm a family's claimed guarantee for every integer n.

    Classifies every member, at the cost of its runs and singles, and
    returns ``check_reports(spec, reports)``.
    """
    return check_reports(spec, [classify_family(m) for m in spec.members])


def _merged(ranges) -> list[tuple[int, int]]:
    """The ranges sorted, with adjacent and overlapping ones joined."""
    out = []
    for a, b in sorted(ranges):
        if out and a <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out


def _ranges_text(ranges) -> str:
    return "[" + ", ".join(str(a) if a == b else f"{a}..{b}" for a, b in ranges) + "]"


def check_reports(spec: FamilySpec, reports):
    """Confirm a family's claimed guarantee from one report per member.

    Returns (ok, detail strings).  AllN requires every member between the
    tails and both certified tails to be L-spaces; a one-sided guarantee
    requires its own tail to be L-space and no failure on its side of the
    bound, the opposite tail included; AllNExcept requires both tails to be
    L-space and the failures to be exactly the listed exceptions.
    """
    problems = []
    g = spec.guarantee
    for report in reports:
        # the non-L-space rows between the tails, segments and singles alike
        failures = _merged([_span(r) for r in report.rows[1:-1]
                            if not (r.is_lspace if isinstance(r, Run) else r.verdict.is_lspace)])
        tp, tn = report.tail_pos, report.tail_neg
        if g.kind is GuaranteeKind.ALL_N:
            if failures:
                problems.append(f"{spec.name}: not an L-space at n={_ranges_text(failures)}")
            if not (tp.is_lspace and tn.is_lspace):
                problems.append(f"{spec.name}: tails not certified L-space")
        elif g.kind is GuaranteeKind.N_GE:
            bad = [(max(a, g.bound), b) for a, b in failures if b >= g.bound]
            if not tn.is_lspace and tn.to_n >= g.bound:
                bad.insert(0, (g.bound, tn.to_n))
            if bad:
                problems.append(f"{spec.name}: fails at n={_ranges_text(_merged(bad))} "
                                f">= {g.bound}")
            if not tp.is_lspace:
                problems.append(f"{spec.name}: positive tail not certified L-space")
        elif g.kind is GuaranteeKind.N_LE:
            bad = [(a, min(b, g.bound)) for a, b in failures if a <= g.bound]
            if not tp.is_lspace and tp.from_n <= g.bound:
                bad.append((tp.from_n, g.bound))
            if bad:
                problems.append(f"{spec.name}: fails at n={_ranges_text(_merged(bad))} "
                                f"<= {g.bound}")
            if not tn.is_lspace:
                problems.append(f"{spec.name}: negative tail not certified L-space")
        else:
            expected = sorted(set(g.exceptions))
            count = sum(b - a + 1 for a, b in failures)
            if count != len(expected) or any(report.lspace_at(n) for n in expected):
                problems.append(f"{spec.name}: failures {_ranges_text(failures)} "
                                f"!= expected {expected}")
            if not (tp.is_lspace and tn.is_lspace):
                problems.append(f"{spec.name}: tails not certified L-space")
    return (not problems), problems
