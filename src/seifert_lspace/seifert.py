"""Normal forms for Seifert fibered spaces over the sphere.

A space is recorded as ``S2(b; r_1, ..., r_k)``: an integer section
obstruction b together with exceptional-fiber slopes r_i = beta_i/alpha_i,
normalized so that every finite slope lies in the open interval (0, 1) and
stored as the reduced pair (beta_i, alpha_i), in increasing order
(``SeifertForm.slopes`` is their ``Fraction`` view).  Degenerate (index-zero)
fibers are counted separately; their slope is the single infinite value.
Spaces fibered over the projective plane are carried as a bare marker,
because the only fact used about them downstream is that they are L-spaces
whenever they are rational homology spheres.

Normalization is one integer core, ``_normal_form``: it folds the integer
parts of reduced (num, den) pairs into b, sorts the remainders by
cross-multiplication and builds the form without re-validating it.  The text
parser hands it pairs; ``normalize`` is its adapter for ``Fraction`` and
``INF`` slopes.  ``mirror`` and ``twist._space``, which folds one pair into
the base and puts its remainder among a twist member's two sorted fixed
pairs by cross-multiplication, for every member form ``twist`` builds, make
their already-normal results through ``_trusted_form`` directly, which sets
the form's slots unchecked.  ``SeifertForm(...)`` itself validates in its
constructor, for every other caller.  A form is immutable, equal to another
form with the same fields and never to a tuple.

The first homology order of S2(b; r_1, ..., r_k) is |alpha_1 ... alpha_k *
(b + r_1 + ... + r_k)|; order zero means positive first Betti number and is
reported as INF.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from .rationals import INF, int_text

_new_object = object.__new__


class Base(Enum):
    S2 = "S2"
    RP2 = "RP2"


# each member read once: the metaclass of an Enum has a __getattr__ hook,
# which makes every ``Base.S2`` read slow (Python 3.11)
_S2, _RP2 = Base.S2, Base.RP2
_new_tuple = tuple.__new__  # a NamedTuple from its fields, without its __new__


class UnsupportedFiberCount(ValueError):
    """More exceptional fibers than the classification covers."""


class DegenerateEuler(ValueError):
    """|H_1| requested for a degenerate or projective-base form."""


class SeifertForm:
    """S2(b; pairs, inf * degenerate), or the bare projective-base marker."""
    __slots__ = __match_args__ = ("base", "b", "pairs", "degenerate")

    def __new__(cls, base: Base = Base.S2, b: int = 0, pairs: tuple[tuple[int, int], ...] = (),
                degenerate: int = 0):
        if base is _RP2 and (pairs or degenerate or b):
            raise ValueError("projective-base forms carry no slope data")
        pp, pq = 0, 1
        for p, q in pairs:
            if p <= 0 or p >= q or math.gcd(p, q) != 1:
                raise ValueError(f"slope {p}/{q} is not reduced in (0,1); use normalize()")
            if p * pq < pp * q:
                raise ValueError("slopes must be sorted; use normalize()")
            pp, pq = p, q
        if degenerate < 0:
            raise ValueError("negative degenerate fiber count")
        return _trusted_form(b, pairs, degenerate, base)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.base, self.b, self.pairs, self.degenerate

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # the default would restore the slots through __setattr__
        return self.__class__, self._key()

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        """The slopes as ``Fraction``s, in the order of ``pairs``."""
        return tuple([Fraction(p, q) for p, q in self.pairs])

    def __repr__(self):
        if self.base is _RP2:
            return "SFS[RP2]"
        parts = [f"{int_text(p)}/{int_text(q)}" for p, q in self.pairs] + ["inf"] * self.degenerate
        return f"SFS[S2; {int_text(self.b)}{'; ' * bool(parts)}{', '.join(parts)}]"


# the slots' own setters, which skip the frozen __setattr__
_set_base, _set_b, _set_pairs, _set_degenerate = (
    getattr(SeifertForm, name).__set__ for name in SeifertForm.__slots__)


def _trusted_form(b: int, pairs: tuple, degenerate: int, base: Base = _S2) -> SeifertForm:
    """A form from data already in normal form, over S2 unless ``base``
    says otherwise: what the constructor does after its checks."""
    f = _new_object(SeifertForm)
    _set_base(f, base)
    _set_b(f, b)
    _set_pairs(f, pairs)
    _set_degenerate(f, degenerate)
    return f


def _normal_form(b: int, pairs, degenerate: int) -> SeifertForm:
    """The normal form of S2(b; pairs, inf * degenerate).

    ``pairs`` holds (p, q): a reduced fraction p/q with q > 0.  Integer
    parts fold into b, which keeps each remainder reduced (gcd(p - wq, q) =
    gcd(p, q)); integral slopes vanish, and the rest are sorted by
    cross-multiplication: by insertion, after one sort of more than four.
    """
    if len(pairs) > 4:
        pairs = sorted(pairs, key=_BY_REMAINDER)
    out = []
    for p, q in pairs:
        if not 0 < p < q:
            whole = p // q
            b += whole
            p -= whole * q
            if not p:
                continue
        i = len(out)
        while i and p * out[i - 1][1] < out[i - 1][0] * q:
            i -= 1
        out.insert(i, (p, q))
    return _trusted_form(b, tuple(out), degenerate)


_BY_REMAINDER = cmp_to_key(lambda x, y: x[0] % x[1] * y[1] - y[0] % y[1] * x[1])


def normalize(b: int, raw) -> SeifertForm:
    """Fold integer parts of the raw slopes into b and sort what remains.

    Integral slopes (in particular zeros) disappear into the section term;
    infinite entries are counted as degenerate fibers.
    """
    raw = list(raw)
    pairs = [(r.numerator, r.denominator) for r in raw if r is not INF]
    return _normal_form(int(b), pairs, len(raw) - len(pairs))


def h1_order(f: SeifertForm):
    """|H_1| of a nondegenerate sphere-base form: an integer, or INF if infinite."""
    if f.base is not _S2 or f.degenerate:
        raise DegenerateEuler("h1_order needs a nondegenerate form over S2; "
                              "classify() covers the degenerate cases")
    # n/d runs through b + r_1 + ... with d the product of the denominators
    n, d = f.b, 1
    for p, q in f.pairs:
        n, d = n * q + p * d, d * q
    return INF if n == 0 else abs(n)


class Tag(Enum):
    S3 = "S3"
    S2XS1 = "S2xS1"
    LENS = "LensSpace"
    CONNECTED_SUM_LENS = "ConnectedSumOfLensSpaces"
    SMALL_SFS = "SmallSFS"
    RP2_BASE = "RP2Base"


class Classification(NamedTuple):
    tag: Tag
    h1: object = None  # int, INF, or None when not computed (projective base)
    summands: tuple[int, ...] | None = None  # lens-summand orders of a connected sum


_S3, _S2XS1, _LENS, _SUM, _SMALL, _RP2_TAG = (Tag.S3, Tag.S2XS1, Tag.LENS,
                                              Tag.CONNECTED_SUM_LENS, Tag.SMALL_SFS, Tag.RP2_BASE)
_RP2_CLASS, _PRODUCT_CLASS = Classification(_RP2_TAG), Classification(_S2XS1, INF)


def classify(f: SeifertForm) -> Classification:
    """Coarse homeomorphism type of a normalized form.

    At most three finite exceptional fibers are supported, and at most one
    degenerate fiber alongside finite ones.  Two or more degenerate fibers
    with nothing else is the product case S2 x S1.
    """
    if f.base is _RP2:
        return _RP2_CLASS
    k = len(f.pairs)
    if f.degenerate == 0:
        if k > 3:
            raise UnsupportedFiberCount(f"{k} exceptional fibers")
        h = h1_order(f)
        tag = _SMALL if k == 3 else _S2XS1 if h is INF else _S3 if h == 1 else _LENS
        return _new_tuple(Classification, (tag, h, None))
    if f.degenerate == 1 and k <= 2:
        orders = tuple([q for _, q in f.pairs])
        h = math.prod(orders)
        if k == 2:
            return _new_tuple(Classification, (_SUM, h, orders))
        return _new_tuple(Classification, (_S3 if h == 1 else _LENS, h, None))
    if f.degenerate >= 2 and k == 0:
        return _PRODUCT_CLASS
    raise UnsupportedFiberCount(
        f"{k} finite + {f.degenerate} degenerate fibers is outside the supported range")


def mirror(f: SeifertForm) -> SeifertForm:
    """Orientation reversal: S2(b; r_1, ..., r_k) -> S2(-b-k; 1-r_k, ..., 1-r_1),
    degenerate count kept; the complements are already in (0,1) and in order."""
    if f.base is not _S2:
        raise ValueError("mirror is only defined over S2 here")
    pairs = f.pairs
    return _trusted_form(-f.b - len(pairs), tuple([(q - p, q) for p, q in reversed(pairs)]),
                         f.degenerate)
