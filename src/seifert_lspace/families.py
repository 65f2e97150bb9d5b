"""Catalog of explicit twist families and their arithmetic guarantee checkers.

Each family comes from a knot-seiferter pair whose surgered manifold is known
in closed Seifert form.  For surgeries on torus knots and their cables whose
result is a connected sum of two lens spaces, the Seifert data is pinned down
by the homology identity |H1| = |pq + n l^2|: ``torus_pq_candidates``
enumerates the (at most one) base form S2(B; b1/p, b2/q) compatible with it.
The guarantee attached to a family is a claim about every integer n, not a
rederived proof; the twist engine checks it over all of Z from the runs and
singles of each member.

The kind table ``_KINDS`` is the one way to build a family: it maps each
kind name (``p+q``, ``spor-c``, ``berge-viii``, ...) to a function of that
kind's named integer parameters.  ``build_family``, ``find_family``,
``family_kinds`` and ``catalog`` (a list of kind and parameter rows) read it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple

from .rationals import int_text
from .seifert import normalize
from .twist import FamilyMember, Run, SeiferterData, _span, classify_family


class GuaranteeKind(Enum):
    ALL_N = "AllN"
    N_GE = "NGe"
    N_LE = "NLe"
    ALL_N_EXCEPT = "AllNExcept"


class Guarantee(NamedTuple):
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
_N_GE_MINUS_1 = Guarantee(GuaranteeKind.N_GE, -1)


class FamilySpec(NamedTuple):
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
    return _N_GE_MINUS_1


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


def _torus_family(name: str, params, guarantee: Guarantee, P: int, Q: int, l: int,
                  mirrored=False, offset=0, description=None) -> FamilySpec:
    """A family with one member per base form of ``torus_pq_candidates(P,
    Q, l)``, for the (P*Q)-surgery; each member's seiferter is a degenerate
    fiber: slope 1/n, pole at n=0.  The description defaults to the twisted
    torus knots of the name."""
    cands = torus_pq_candidates(P, Q, l)
    if not cands:
        raise PreconditionFailed(f"no Seifert base form for (p, q, l) = ({P}, {Q}, {l})")
    members = tuple(
        FamilyMember(data=SeiferterData(b=B, r1=min(r1, r2), r2=max(r1, r2),
                                        alpha=1, beta=0, alpha3=0, beta3=1,
                                        m=P * Q, l=l),
                     mirrored=mirrored, offset=offset, label=f"S2({B}; {r1}, {r2})")
        for B, r1, r2 in cands)
    return FamilySpec(name=name,
                      description=description or f"twisted torus knots {name}",
                      params=params,
                      guarantee=guarantee,
                      members=members)


def _twisted_torus(p: int, q: int, l: int, guarantee: Guarantee) -> FamilySpec:
    """Twisted torus knots K(p, q; l, n), p, q >= 2 coprime: l = p+q (all n)
    or l = |p-q| (n >= -1)."""
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise PreconditionFailed("need coprime p, q >= 2")
    return _torus_family(f"K({p},{q};{l},n)", (("p", p), ("q", q)), guarantee, p, q, l)


def _one_parameter(p: int, P: int, Q: int, l: int, guarantee: Guarantee) -> FamilySpec:
    """The one-parameter twisted torus knots K(3p+1, 2p+1; 4p+1, n) (all n),
    K(3p+2, 2p+1; 4p+3, n) (all n) and K(2p+3, 2p+1; 2p+2, n) (n >= -1)."""
    if p < 1:
        raise PreconditionFailed("need p > 0")
    return _torus_family(f"K({P},{Q};{l},n)", (("p", p),), guarantee, P, Q, l)


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


def _tunnel2(which: str, data: SeiferterData) -> FamilySpec:
    """The two tunnel-number-two families.

    A: surgeries (196n+71) with forms S2((11n+4)/(14n+5), -2/7, 1/2);
    B: surgeries (100n+71) with forms S2(-(3n+2)/(10n+7), 4/5, 1/2).
    Both are L-spaces for every n.
    """
    return FamilySpec(name=f"tunnel2-{which}",
                      description="tunnel-number-two knots built from a trefoil "
                                  "by alternate twisting along two seiferters",
                      params=(),
                      guarantee=ALL_N,
                      members=(FamilyMember(data=data),))


def _sporadic(kind: str, p: int, least: int, P: int, Q: int, l: int,
              mirrored=False) -> FamilySpec:
    """Twist families through the sporadic Berge knots (types IX--XII).

    kind 'a' (p > 1): cable base (6p+1, p), linking 4p+1, Berge knot at n=1,
    surgery 22p^2+9p+1.  kind 'b' (p > 0): base (3p+1, 2p+1), linking 4p+1,
    Berge at n=1, surgery 22p^2+13p+2.  kinds 'c' and 'd' (p > 0) are the
    mirror families over bases (3p+2, 2p+1) and the cable base (6p+5, p+1)
    with linking 4p+3; their Berge members sit at n=-1 with surgery slopes
    -(22p^2+31p+11) and -(22p^2+35p+14).  All four carry the all-n guarantee
    since l^2 >= 2pq in each case.
    """
    if p < least:
        raise PreconditionFailed(f"kind '{kind}' needs p > {least - 1}")
    return _torus_family(f"berge-spor-{kind}[p={p}]", (("p", p),),
                         linking_guarantee(P, Q, l), P, Q, l, mirrored=mirrored,
                         description=f"sporadic Berge family: base ({int_text(P)}, "
                                     f"{int_text(Q)}), linking {int_text(l)}, "
                                     f"Berge knot at n={-1 if mirrored else 1}")


class TorusKnotDegenerate(NamedTuple):
    """Parameter combinations where the twisted knot is just a torus knot."""
    a: int
    b: int


def _berge_vii_viii(kind: str, eps: int, a: int, b: int):
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
    if abs(a) <= 1 or abs(b) <= 1 or abs(a + b) <= 1:
        return TorusKnotDegenerate(a, b)
    P, Q = abs(a + b), abs(a)
    if a * (a + b) < 0:
        l, guarantee, mirrored = P + Q, ALL_N, False
    else:
        l, guarantee, mirrored = abs(P - Q), Guarantee(GuaranteeKind.N_LE, 1 - eps), True
    return _torus_family(f"berge-{kind}[a={a},b={b}]", (("a", a), ("b", b)), guarantee,
                         P, Q, l, mirrored=mirrored, offset=eps,
                         description=f"type {kind} Berge family on (a, b) = ({a}, {b})")


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


# the one place a family kind is chosen: each kind's function of its named
# integer parameters
_KINDS = {
    "p+q": lambda p, q: _twisted_torus(p, q, p + q, ALL_N),
    "p-q": lambda p, q: _twisted_torus(p, q, abs(p - q), _N_GE_MINUS_1),
    "k4p1": lambda p: _one_parameter(p, 3 * p + 1, 2 * p + 1, 4 * p + 1, ALL_N),
    "k4p3": lambda p: _one_parameter(p, 3 * p + 2, 2 * p + 1, 4 * p + 3, ALL_N),
    "k2p2": lambda p: _one_parameter(p, 2 * p + 3, 2 * p + 1, 2 * p + 2, _N_GE_MINUS_1),
    "unknot": unknot_seiferter_family,
    "tunnel2-a": lambda: _tunnel2("A", SeiferterData(b=-1, r1=Fraction(1, 2), r2=Fraction(5, 7),
                                                     alpha=14, beta=11, alpha3=5, beta3=4,
                                                     m=71, l=14)),
    "tunnel2-b": lambda: _tunnel2("B", SeiferterData(b=0, r1=Fraction(1, 2), r2=Fraction(4, 5),
                                                     alpha=10, beta=-3, alpha3=7, beta3=-2,
                                                     m=71, l=10)),
    "spor-a": lambda p: _sporadic("a", p, 2, 6 * p + 1, p, 4 * p + 1),
    "spor-b": lambda p: _sporadic("b", p, 1, 3 * p + 1, 2 * p + 1, 4 * p + 1),
    "spor-c": lambda p: _sporadic("c", p, 1, 3 * p + 2, 2 * p + 1, 4 * p + 3, mirrored=True),
    "spor-d": lambda p: _sporadic("d", p, 1, 6 * p + 5, p + 1, 4 * p + 3, mirrored=True),
    "berge-vii": lambda a, b: _berge_vii_viii("VII", -1, a, b),
    "berge-viii": lambda a, b: _berge_vii_viii("VIII", 1, a, b),
    "em-rp2": eudave_munoz_rp2_family,
}


def family_kinds() -> tuple[str, ...]:
    return tuple(sorted(_KINDS))


def _parameters(builder) -> tuple[str, ...]:
    return builder.__code__.co_varnames[:builder.__code__.co_argcount]


def build_family(kind: str, **params) -> FamilySpec:
    """Construct a family from a kind name of the kind table, in any case,
    and exactly that kind's named integer parameters.

    A ``berge-vii`` or ``berge-viii`` kind at degenerate parameters returns
    a TorusKnotDegenerate instead of a spec.
    """
    try:
        builder = _KINDS[kind.lower()]
    except KeyError:
        raise KeyError(f"unknown family kind {kind!r}; one of {', '.join(family_kinds())}")
    names = _parameters(builder)
    if set(params) != set(names):
        raise PreconditionFailed(f"family kind {kind!r} takes parameters {', '.join(names) or 'none'}")
    return builder(**params)


@cache
def catalog() -> tuple[FamilySpec, ...]:
    """Every named family shipped with the package, built from its kind and
    parameters on the first call and shared after it: every field of a spec
    is frozen or a tuple."""
    return tuple(build_family(kind, **params) for kind, params in (
        ("p+q", dict(p=3, q=2)),
        ("p+q", dict(p=5, q=2)),
        ("p-q", dict(p=5, q=2)),
        ("k4p1", dict(p=1)),
        ("k4p3", dict(p=1)),
        ("k2p2", dict(p=1)),
        ("unknot", dict(m=0, p=3)),
        ("unknot", dict(m=-1, p=3)),
        ("unknot", dict(m=-3, p=5)),
        ("tunnel2-a", {}),
        ("tunnel2-b", {}),
        ("spor-a", dict(p=2)),
        ("spor-b", dict(p=1)),
        ("spor-c", dict(p=1)),
        ("spor-d", dict(p=1)),
        ("berge-vii", dict(a=2, b=3)),
        ("berge-viii", dict(a=-2, b=5)),
        ("em-rp2", dict(l=1)),
        ("em-rp2", dict(l=2)),
    ))


def find_family(name: str) -> FamilySpec:
    """The catalog family of this name, or of which it is the one
    substring, or the family of a kind that takes no parameters, named in
    any case.  A ``ValueError`` names the catalog families of a name that
    is a substring of several, or else the parameters of a kind that takes
    some; a ``KeyError`` means no family."""
    specs = catalog()
    for s in specs:
        if s.name == name:
            return s
    matches = [s for s in specs if name in s.name]
    if len(matches) == 1:
        return matches[0]
    builder = _KINDS.get(name.lower())
    if builder is not None and not _parameters(builder):
        return builder()
    if matches:
        raise ValueError(f"ambiguous family {name!r}: {', '.join(s.name for s in matches)}")
    if builder is not None:
        raise PreconditionFailed(f"family kind {name!r} takes parameters "
                                 f"{', '.join(_parameters(builder))}; use --params")
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
