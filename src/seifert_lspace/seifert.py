"""Normal forms for Seifert fibered spaces over the sphere.

A space is recorded as ``S2(b; r_1, ..., r_k)``: an integer section
obstruction b together with exceptional-fiber slopes r_i = beta_i/alpha_i,
normalized so that every finite slope lies in the open interval (0, 1).
Degenerate (index-zero) fibers are counted separately; their slope is the
single infinite value.  Spaces fibered over the projective plane are carried
as a bare marker, because the only fact used about them downstream is that
they are L-spaces whenever they are rational homology spheres.

The first homology order of S2(b; r_1, ..., r_k) is |alpha_1 ... alpha_k *
(b + r_1 + ... + r_k)|; order zero means positive first Betti number and is
reported as INF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .rationals import INF, int_text, is_finite


class Base(Enum):
    S2 = "S2"
    RP2 = "RP2"


class UnsupportedFiberCount(ValueError):
    """More exceptional fibers than the classification covers."""


class DegenerateEuler(ValueError):
    """Euler number requested for a degenerate or projective-base form."""


@dataclass(frozen=True)
class SeifertForm:
    base: Base = Base.S2
    b: int = 0
    slopes: tuple[Fraction, ...] = ()
    degenerate: int = 0

    def __post_init__(self):
        if self.base is Base.RP2:
            if self.slopes or self.degenerate or self.b:
                raise ValueError("projective-base forms carry no slope data")
            return
        pp, pq = 0, 1
        for r in self.slopes:
            p, q = r.numerator, r.denominator
            if p <= 0 or p >= q:
                raise ValueError(f"slope {r} is not in (0,1); use normalize()")
            if p * pq < pp * q:
                raise ValueError("slopes must be sorted; use normalize()")
            pp, pq = p, q
        if self.degenerate < 0:
            raise ValueError("negative degenerate fiber count")

    def __repr__(self):
        if self.base is Base.RP2:
            return "SFS[RP2]"
        try:
            parts = [f"{r.numerator}/{r.denominator}" for r in self.slopes]
            inner = f"S2; {self.b}"
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            parts = [f"{int_text(r.numerator)}/{int_text(r.denominator)}" for r in self.slopes]
            inner = f"S2; {int_text(self.b)}"
        parts += ["inf"] * self.degenerate
        if parts:
            inner += "; " + ", ".join(parts)
        return f"SFS[{inner}]"


def normalize(b: int, raw, base: Base = Base.S2) -> SeifertForm:
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
    return SeifertForm(base=base, b=b, slopes=tuple(out), degenerate=degenerate)


def euler_number(f: SeifertForm) -> Fraction:
    """b + sum of the slopes; only defined for nondegenerate sphere-base forms."""
    if f.base is not Base.S2 or f.degenerate:
        raise DegenerateEuler("euler number needs a nondegenerate form over S2")
    return f.b + sum(f.slopes, Fraction(0))


def h1_order(f: SeifertForm):
    """|H_1| of a nondegenerate sphere-base form: an integer, or INF if infinite."""
    if f.base is not Base.S2 or f.degenerate:
        raise DegenerateEuler("h1_order needs a nondegenerate form over S2; "
                              "classify() covers the degenerate cases")
    prod = 1
    for r in f.slopes:
        prod *= r.denominator
    n = prod * f.b
    for r in f.slopes:
        n += r.numerator * (prod // r.denominator)
    return INF if n == 0 else abs(n)


class Tag(Enum):
    S3 = "S3"
    S2XS1 = "S2xS1"
    LENS = "LensSpace"
    CONNECTED_SUM_LENS = "ConnectedSumOfLensSpaces"
    SMALL_SFS = "SmallSFS"
    RP2_BASE = "RP2Base"


@dataclass(frozen=True)
class Classification:
    tag: Tag
    h1: object = None  # int, INF, or None when not computed (projective base)
    summands: tuple[int, ...] | None = None  # lens-summand orders of a connected sum


def classify(f: SeifertForm) -> Classification:
    """Coarse homeomorphism type of a normalized form.

    At most three finite exceptional fibers are supported, and at most one
    degenerate fiber alongside finite ones.  Two or more degenerate fibers
    with nothing else is the product case S2 x S1.
    """
    if f.base is Base.RP2:
        return Classification(Tag.RP2_BASE)
    k = len(f.slopes)
    if f.degenerate == 0:
        if k > 3:
            raise UnsupportedFiberCount(f"{k} exceptional fibers")
        h = h1_order(f)
        if k == 3:
            return Classification(Tag.SMALL_SFS, h)
        if h is INF:
            return Classification(Tag.S2XS1, h)
        return Classification(Tag.S3 if h == 1 else Tag.LENS, h)
    if f.degenerate == 1 and k <= 2:
        orders = tuple(r.denominator for r in f.slopes)
        h = math.prod(orders)
        if k == 2:
            return Classification(Tag.CONNECTED_SUM_LENS, h, orders)
        return Classification(Tag.S3 if h == 1 else Tag.LENS, h)
    if f.degenerate >= 2 and k == 0:
        return Classification(Tag.S2XS1, INF)
    raise UnsupportedFiberCount(
        f"{k} finite + {f.degenerate} degenerate fibers is outside the supported range")


def mirror(f: SeifertForm) -> SeifertForm:
    """Orientation reversal: S2(b; r_i) -> S2(-b-k; 1-r_i), degenerate count kept."""
    if f.base is not Base.S2:
        raise ValueError("mirror is only defined over S2 here")
    form = normalize(-f.b, [-r for r in f.slopes])
    return SeifertForm(base=Base.S2, b=form.b, slopes=form.slopes,
                       degenerate=f.degenerate)
