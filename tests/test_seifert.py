"""Normal form bookkeeping: normalization, euler number, homology, mirror."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert_lspace import (INF, Base, DegenerateEuler, SeifertForm, Tag,
                            UnsupportedFiberCount, classify, h1_order, mirror, normalize)
from seifert_lspace.formats import parse_form
from seifert_lspace.seifert import _trusted_form

from oracles import euler_number, fraction_normalize, presentation_h1

slope = st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=50)
unit = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50)


def F(n, d=1):
    return Fraction(n, d)


class TestNormalize:
    def test_integer_parts_fold_into_b(self):
        f = normalize(0, (F(5, 3), F(1, 2)))
        assert (f.b, f.slopes) == (1, (F(1, 2), F(2, 3)))

    def test_integral_slope_disappears(self):
        r1, r2 = F(2, 5), F(3, 4)
        f = normalize(-1, (r1, r2, F(1)))
        assert (f.b, f.slopes) == (0, (r1, r2))

    def test_infinite_entries_count_as_degenerate(self):
        f = normalize(3, (F(1, 2), F(2, 3), INF))
        assert (f.b, f.slopes, f.degenerate) == (3, (F(1, 2), F(2, 3)), 1)

    def test_zero_slope_dropped(self):
        assert normalize(2, (F(0), F(1, 2))) == normalize(2, (F(1, 2),))

    def test_slopes_are_the_fraction_view_of_the_pairs(self):
        N = 10 ** 18
        f = normalize(-1, (F(N + 1, N), F(1, 3), F(-4, 6)))
        assert (f.b, f.pairs) == (-1, ((1, N), (1, 3), (1, 3)))
        assert f.slopes == (F(1, N), F(1, 3), F(1, 3))
        rng = random.Random(12)
        for _ in range(2000):
            den = rng.choice((7, 60, N))
            raw = [F(rng.randint(-3 * den, 3 * den), rng.randint(1, den))
                   for _ in range(rng.randint(0, 4))]
            f = normalize(rng.randint(-9, 9), raw)
            assert tuple((r.numerator, r.denominator) for r in f.slopes) == f.pairs
            assert f.slopes == tuple(sorted(r - math.floor(r) for r in raw if r.denominator > 1))

    @given(st.integers(-5, 5), st.lists(slope, max_size=4))
    def test_idempotent(self, b, raw):
        f = normalize(b, raw)
        again = normalize(f.b, f.slopes)
        assert SeifertForm(base=f.base, b=again.b, pairs=again.pairs,
                           degenerate=f.degenerate) == f
        assert all(0 < r < 1 for r in f.slopes)

    def test_direct_construction_rejects_raw_slopes(self):
        with pytest.raises(ValueError):
            SeifertForm(b=0, pairs=((5, 3),))
        with pytest.raises(ValueError):
            SeifertForm(b=0, pairs=((2, 3), (1, 2)))
        # out of (0,1), or unsorted anywhere in the tuple
        for slopes in ((F(0),), (F(1),), (F(-1, 2),), (F(1, 2), F(1)), (F(1, 3), F(7, 5)),
                       (F(1, 3), F(2, 3), F(1, 2)), (F(2, 3), F(1, 3), F(1, 2)),
                       (F(1, 10 ** 18), F(1, 10 ** 18 + 1))):
            with pytest.raises(ValueError):
                SeifertForm(b=0, pairs=tuple((r.numerator, r.denominator) for r in slopes))
        # not reduced, not in (0,1), or unsorted: each form has one representation
        for pairs in (((2, 4),), ((0, 1),), ((3, 3),), ((2, 3), (1, 2), (3, 4)),
                      ((1, 3), (2, 6)), ((5 * 10 ** 17, 10 ** 18),)):
            with pytest.raises(ValueError):
                SeifertForm(b=0, pairs=pairs)
        with pytest.raises(ValueError):
            SeifertForm(b=0, degenerate=-1)
        with pytest.raises(ValueError):
            SeifertForm(base=Base.RP2, b=1)


class TestFormContract:
    """A form is a slotted class: built by its validating constructor or by
    ``_trusted_form``, immutable, equal to a form with the same fields and
    to nothing else."""

    N = 10 ** 4000 + 1  # 4,001 digits

    def forms(self):
        N = self.N
        return [SeifertForm(b=-1, pairs=((1, 3), (1, 2), (2, 3))), SeifertForm(base=Base.RP2),
                SeifertForm(), SeifertForm(Base.S2, 3, ((1, 2), (2, 3)), 1),
                SeifertForm(b=-N, pairs=((1, N), (N - 1, N)), degenerate=2)]

    def test_fields_cannot_be_assigned_or_deleted(self):
        for f in self.forms():
            before = (f.base, f.b, f.pairs, f.degenerate)
            for name in ("base", "b", "pairs", "degenerate", "slopes", "other"):
                with pytest.raises(AttributeError):
                    setattr(f, name, 1)
                with pytest.raises(AttributeError):
                    delattr(f, name)
            assert (f.base, f.b, f.pairs, f.degenerate) == before
            assert not hasattr(f, "__dict__")
        f = self.forms()[0]
        with pytest.raises(AttributeError, match="^cannot assign to field 'b'$"):
            f.b = 0
        with pytest.raises(AttributeError, match="^cannot delete field 'pairs'$"):
            del f.pairs

    def test_trusted_form_equals_the_constructor(self):
        N = self.N
        for b, pairs, degenerate in ((-1, ((1, 3), (1, 2), (2, 3)), 0), (0, (), 0),
                                     (3, ((1, 2), (2, 3)), 1), (-N, ((1, N), (N - 1, N)), 2)):
            f, g = SeifertForm(b=b, pairs=pairs, degenerate=degenerate), _trusted_form(
                b, pairs, degenerate)
            assert type(g) is SeifertForm and f == g and not f != g and hash(f) == hash(g)
            assert hash(f) == hash((Base.S2, b, pairs, degenerate))
        assert parse_form("SFS[S2; -3; 4/3, 1/2, 5/3]") == normalize(-1, (F(1, 3), F(1, 2), F(2, 3)))
        assert parse_form("SFS[RP2]") == SeifertForm(base=Base.RP2)
        assert len({*self.forms(), *self.forms()}) == len(self.forms())

    def test_never_equal_to_a_tuple(self):
        for f in self.forms():
            for other in ((f.base, f.b, f.pairs, f.degenerate), (f.b, f.pairs, f.degenerate),
                          f.pairs, f.b, None):
                assert f != other and other != f and not f == other
        a, b = SeifertForm(b=-1, pairs=((1, 2),)), SeifertForm(b=-2, pairs=((1, 2),))
        assert a != b and a != SeifertForm(b=-1, pairs=((1, 2),), degenerate=1)

    def test_repr_bytes(self):
        N = self.N
        want = ["SFS[S2; -1; 1/3, 1/2, 2/3]", "SFS[RP2]", "SFS[S2; 0]", "SFS[S2; 3; 1/2, 2/3, inf]",
                f"SFS[S2; -{N}; 1/{N}, {N - 1}/{N}, inf, inf]"]
        assert [repr(f).encode() for f in self.forms()] == [w.encode() for w in want]

    def test_slopes_are_fractions(self):
        f = normalize(-1, (F(7, 3), F(-1, 2), F(5, 7), INF))
        assert f.pairs == ((1, 3), (1, 2), (5, 7)) and f.degenerate == 1
        assert f.slopes == (F(1, 3), F(1, 2), F(5, 7))
        assert all(type(r) is Fraction for r in f.slopes)
        assert SeifertForm(base=Base.RP2).slopes == ()

    def test_copy_deepcopy_and_pickle_round_trip(self):
        for f in self.forms():
            for g in (copy.copy(f), copy.deepcopy(f),
                      *(pickle.loads(pickle.dumps(f, protocol)) for protocol in range(
                          pickle.HIGHEST_PROTOCOL + 1))):
                assert type(g) is SeifertForm and g == f and hash(g) == hash(f)
                assert g.base is f.base
                with pytest.raises(AttributeError):
                    g.b = 0

    def test_invalid_input_messages(self):
        for kwargs, message in (
                ({"pairs": ((5, 3),)}, "slope 5/3 is not reduced in (0,1); use normalize()"),
                ({"pairs": ((2, 4),)}, "slope 2/4 is not reduced in (0,1); use normalize()"),
                ({"pairs": ((0, 1),)}, "slope 0/1 is not reduced in (0,1); use normalize()"),
                ({"pairs": ((2, 3), (1, 2))}, "slopes must be sorted; use normalize()"),
                ({"degenerate": -1}, "negative degenerate fiber count"),
                ({"base": Base.RP2, "b": 1}, "projective-base forms carry no slope data"),
                ({"base": Base.RP2, "pairs": ((1, 2),)}, "projective-base forms carry no slope data"),
                ({"base": Base.RP2, "degenerate": -1},
                 "projective-base forms carry no slope data")):
            with pytest.raises(ValueError) as err:
                SeifertForm(**kwargs)
            assert str(err.value) == message, kwargs


class TestEulerNumber:
    def test_values(self):
        assert euler_number(normalize(-2, (F(2, 3),) * 3)) == 0
        assert euler_number(normalize(-1, (F(1, 2), F(1, 2)))) == 0
        assert euler_number(normalize(3, (F(1, 2), F(2, 3)))) == F(25, 6)

    def test_rejects_degenerate_and_projective(self):
        with pytest.raises(DegenerateEuler):
            euler_number(normalize(0, (F(1, 2), INF)))
        with pytest.raises(DegenerateEuler):
            euler_number(SeifertForm(base=Base.RP2))


class TestH1Order:
    def test_cable_exterior_values(self):
        assert h1_order(normalize(0, (F(2, 3), F(-2, 5)))) == 4
        assert h1_order(normalize(-1, (F(1, 2), F(1, 2)))) is INF
        assert h1_order(normalize(-2, (F(2, 3),) * 3)) is INF

    @settings(max_examples=300)
    @given(st.integers(-6, 6), st.lists(slope, min_size=0, max_size=4))
    def test_matches_presentation_determinant(self, b, raw):
        f = normalize(b, raw)
        got = h1_order(f)
        want = presentation_h1(b, list(raw))
        assert (got is INF and want == 0) or got == want

    @given(st.integers(-6, 6), st.lists(unit, min_size=0, max_size=3))
    def test_mirror_invariant(self, b, slopes):
        f = normalize(b, slopes)
        assert h1_order(mirror(f)) == h1_order(f)


class TestClassify:
    def test_degenerate_is_connected_sum(self):
        c = classify(normalize(4, (F(2, 3), F(1, 2), INF)))
        assert c.tag is Tag.CONNECTED_SUM_LENS
        assert c.summands == (2, 3) or c.summands == (3, 2)
        assert c.h1 == 6

    def test_euler_zero_lens_is_s2xs1(self):
        assert classify(normalize(-1, (F(1, 2), F(1, 2)))).tag is Tag.S2XS1

    def test_small_lens_space(self):
        c = classify(normalize(0, (F(2, 3),)))
        assert (c.tag, c.h1) == (Tag.LENS, 2)

    def test_s3_and_double_degenerate(self):
        assert classify(normalize(1, ())).tag is Tag.S3
        assert classify(normalize(5, ())).tag is Tag.LENS
        assert classify(normalize(0, ())).tag is Tag.S2XS1
        assert classify(normalize(0, (INF, INF))).tag is Tag.S2XS1
        assert classify(normalize(7, (INF,))).tag is Tag.S3

    def test_three_slopes_is_small_sfs(self):
        assert classify(normalize(-1, (F(1, 2), F(1, 3), F(1, 7)))).tag is Tag.SMALL_SFS

    def test_rejects_four_fibers(self):
        with pytest.raises(UnsupportedFiberCount):
            classify(normalize(0, (F(1, 2), F(1, 3), F(1, 5), F(1, 7))))
        with pytest.raises(UnsupportedFiberCount):
            classify(normalize(0, (F(1, 2), INF, INF)))

    @given(st.integers(-4, 4), unit, unit)
    def test_s2xs1_iff_euler_zero_in_lens_case(self, b, r1, r2):
        f = normalize(b, (r1, r2))
        if len(f.slopes) != 2:
            return
        assert (classify(f).tag is Tag.S2XS1) == (euler_number(f) == 0)

    def test_projective_base(self):
        assert classify(SeifertForm(base=Base.RP2)).tag is Tag.RP2_BASE


class TestMirror:
    def test_three_slope_structure(self):
        r = (F(1, 5), F(1, 3), F(2, 3))
        f = normalize(-1, r)
        m = mirror(f)
        assert m.b == -2
        assert m.slopes == tuple(sorted(1 - x for x in r))

    def test_small_example(self):
        assert mirror(normalize(0, (F(1, 2),))) == normalize(-1, (F(1, 2),))

    @given(st.integers(-6, 6), st.lists(unit, max_size=3))
    def test_involution(self, b, slopes):
        f = normalize(b, slopes)
        assert mirror(mirror(f)) == f

    def test_degenerate_count_preserved(self):
        f = normalize(2, (F(1, 2), INF))
        assert mirror(f).degenerate == 1

    def test_matches_normalize_of_negated_slopes(self):
        # mirror builds S2(-b-k; 1-r_k, ..., 1-r_1) directly; it must be the
        # normal form of S2(-b; -r_1, ..., -r_k), degenerate fibers kept
        rng = random.Random(66)
        for _ in range(3000):
            den = rng.choice((7, 60, 10 ** 18))
            raw = [F(rng.randint(-3 * den, 3 * den), rng.randint(1, den))
                   for _ in range(rng.randint(0, 4))]
            f = normalize(rng.randint(-9, 9), raw + [INF] * rng.choice((0, 0, 1, 2)))
            want = fraction_normalize(-f.b, [-r for r in f.slopes] + [INF] * f.degenerate)
            got = mirror(f)
            assert got == want and repr(got) == repr(want), f
            # and it passes the checks of the validating constructor
            assert SeifertForm(base=got.base, b=got.b, pairs=got.pairs,
                               degenerate=got.degenerate) == got
