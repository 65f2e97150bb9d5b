"""The decision procedure: witnesses, duality, exact thresholds."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifert_lspace import (INF, FamilyMember, FoliationWitness, IntervalKind, Reason,
                            SeiferterData, SeifertForm, ThirdSlotThreshold, classify, decide,
                            lspace, mirror, normalize, seifert, third_slot_threshold, twist)
from seifert_lspace.lspace import _not_lspace_sup, _witness_from_pairs, search_bound

from oracles import (fraction_classify, fraction_decide, fraction_normalize,
                     loop_not_lspace_sup, loop_witness, naive_is_lspace,
                     naive_witness, random_triple, random_unit_fraction)

unit = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60)


def F(n, d=1):
    return Fraction(n, d)


def small_sfs(b, *slopes):
    return normalize(b, [F(*s) if isinstance(s, tuple) else s for s in slopes])


def _pairs(t):
    return [x for s in t for x in (s.numerator, s.denominator)]


def _pair(r):
    return r.numerator, r.denominator


def witness_search(t):
    """Smallest witness of a sorted triple in (0,1), or None."""
    p1, q1, *rest = _pairs(t)
    return _witness_from_pairs(*rest, search_bound(p1, q1))


class TestWitnessSearch:
    def test_constant_third_triple(self):
        assert witness_search((F(1, 3),) * 3) == FoliationWitness(2, 1)

    def test_large_middle_slot_blocks_all_pairs(self):
        assert witness_search((F(1, 2), F(1, 2), F(2, 3))) is None
        assert witness_search((F(1, 5), F(1, 2), F(3, 5))) is None

    def test_deep_search(self):
        assert witness_search((F(1, 7), F(1, 3), F(1, 2))) == FoliationWitness(5, 2)

    def test_lexicographic_tie_break_matches_naive(self):
        rng = random.Random(20240817)
        for _ in range(400):
            t = random_triple(rng, 40)
            got = witness_search(t)
            want = naive_witness(t, kmax=200)
            assert (got is None and want is None) or (got.k, got.a) == want

    @given(st.tuples(unit, unit, unit))
    def test_returned_k_is_in_range(self, raw):
        t = tuple(sorted(raw))
        w = witness_search(t)
        if w is not None:
            assert 2 <= w.k < 1 / t[0]
            assert t[0] < F(1, w.k) and t[1] < F(w.a, w.k) and t[2] < F(w.k - w.a, w.k)


class TestDecide:
    def test_euler_zero_triple_has_dual_witness(self):
        v = decide(small_sfs(-2, (2, 3), (2, 3), (2, 3)))
        assert not v.is_lspace
        assert v.witness == FoliationWitness(2, 1)
        assert v.witness_is_dual
        assert v.infinite_h1 and v.reason is Reason.INFINITE_H1

    def test_pair_sum_at_least_one(self):
        v = decide(small_sfs(-1, (1, 2), (2, 3), (4, 5)))
        assert v.is_lspace and v.reason is Reason.NO_WITNESS_EXHAUSTIVE

    def test_witness_case(self):
        v = decide(small_sfs(-1, (1, 7), (1, 3), (1, 2)))
        assert not v.is_lspace
        assert v.reason is Reason.WITNESS
        assert v.witness == FoliationWitness(5, 2)
        assert not v.witness_is_dual

    def test_b_large(self):
        for b in (1, 0, -3, 17, -12):
            v = decide(small_sfs(b, (1, 2), (1, 3), (1, 7)))
            expect = b >= 0 or b <= -3
            if expect:
                assert v.is_lspace and v.reason is Reason.B_LARGE
            else:
                assert v.reason is not Reason.B_LARGE

    def test_lens_and_sums(self):
        assert decide(small_sfs(0, (2, 3))).reason is Reason.LENS_NOT_S2XS1
        assert decide(small_sfs(-1, (1, 2), (1, 2))).reason is Reason.INFINITE_H1
        v = decide(normalize(0, (F(2, 3), F(1, 2), INF)))
        assert v.is_lspace and v.reason is Reason.CONNECTED_SUM_OF_LSPACES
        from seifert_lspace import Base
        assert decide(SeifertForm(base=Base.RP2)).reason is Reason.RP2_BASE

    def test_search_bound_recorded(self):
        v = decide(small_sfs(-1, (1, 7), (2, 5), (1, 2)))
        assert v.search_bound == 6 == search_bound(1, 7)


class TestOneThreeFiberDecision:
    """``_decide_small`` is the one three-fiber decision: ``decide`` sends a
    form of three finite fibers to it unclassified, as
    ``twist.evaluate_point`` does a member's form."""

    def forms(self):
        return [small_sfs(b, *t) for b in (-3, -2, -1, 0) for t in (
            ((2, 3), (2, 3), (2, 3)), ((1, 7), (1, 3), (1, 2)), ((1, 2), (2, 3), (4, 5)),
            ((1, 3), (1, 3), (1, 3)), ((1, 2), (1, 2), (1, 2)))]

    def test_decide_skips_classify_for_three_fibers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classified")

        small = [decide(f) for f in self.forms()]
        monkeypatch.setattr(lspace, "classify", refuse)
        monkeypatch.setattr(seifert, "h1_order", refuse)
        assert [decide(f) for f in self.forms()] == small
        for f in (small_sfs(0, (2, 3)), SeifertForm(base=seifert.Base.RP2),
                  normalize(0, (F(2, 3), F(1, 2), INF)), normalize(0, (F(1, 2),) * 4)):
            with pytest.raises(AssertionError, match="classified"):
                decide(f)

    def test_decide_and_evaluate_point_share_it(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return decide_small(*args)

        decide_small = lspace._decide_small
        monkeypatch.setattr(lspace, "_decide_small", counting)
        monkeypatch.setattr(twist, "_decide_small", counting)
        for f in self.forms():
            calls.clear()
            decide(f)
            assert calls == [(f.b, *f.pairs[0], *f.pairs[1], *f.pairs[2])]
        d = SeiferterData(b=-1, r1=F(1, 2), r2=F(5, 7), alpha=14, beta=11, alpha3=5, beta3=4,
                          m=71, l=14)
        for n in range(-30, 30):
            calls.clear()
            p = twist.evaluate_point(FamilyMember(data=d), n)
            assert len(calls) == (len(p.form.pairs) == 3 and not p.form.degenerate), n
        # the unpatched decision still covers an Euler-zero triple
        assert decide_small(-2, 2, 3, 2, 3, 2, 3) == decide(small_sfs(-2, *[(2, 3)] * 3))
        assert decide_small(-2, 2, 3, 2, 3, 2, 3).reason is Reason.INFINITE_H1


class TestValueClasses:
    """FoliationWitness and ThirdSlotThreshold are NamedTuples: immutable,
    and with the fields, repr, equality and hash they had as dataclasses."""

    def test_witness(self):
        w = FoliationWitness(k=5, a=2)
        assert (w.k, w.a) == (5, 2) and w == FoliationWitness(5, 2) != FoliationWitness(5, 1)
        assert repr(w) == "FoliationWitness(k=5, a=2)" and hash(w) == hash((5, 2))
        with pytest.raises(AttributeError):
            w.k = 7
        for g in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert type(g) is FoliationWitness and g == w
        for k, a in ((4, 2), (1, 1), (5, 3), (3, 0), (2, -1), (6, 4)):
            with pytest.raises(ValueError) as err:
                FoliationWitness(k, a)
            assert str(err.value) == f"invalid witness pair (k={k}, a={a})"

    def test_searched_witnesses_pass_the_checks(self):
        # _witness_from_pairs builds its witness unchecked; the validating
        # constructor takes each one it finds
        rng = random.Random(23)
        found = 0
        for _ in range(3000):
            t = sorted(F(rng.randint(1, 59), 60) for _ in range(3))
            w = witness_search(t)
            if w is not None:
                assert type(w) is FoliationWitness and FoliationWitness(w.k, w.a) == w
                found += 1
        assert found > 100

    def test_threshold(self):
        t = third_slot_threshold(-2, F(2, 3), F(2, 3))
        assert t == ThirdSlotThreshold(-2, (2, 3), (2, 3), (1, 2))
        assert t != third_slot_threshold(-1, F(2, 3), F(2, 3))
        assert repr(t) == "ThirdSlotThreshold(b=-2, r1=(2, 3), r2=(2, 3), cut=(1, 2))"
        assert repr(third_slot_threshold(0, F(1, 3), F(1, 2))) == \
            "ThirdSlotThreshold(b=0, r1=(1, 3), r2=(1, 2), cut=None)"
        assert hash(t) == hash((-2, (2, 3), (2, 3), (1, 2)))
        assert (t.kind, t.boundary, t.attained) == (IntervalKind.DOWN_CLOSED, F(1, 2), True)
        assert t.contains(F(1, 2)) and not t.contains(F(2, 3))
        with pytest.raises(AttributeError):
            t.cut = None
        for g in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(g) is ThirdSlotThreshold and g == t
        with pytest.raises(ValueError, match=r"^fixed slopes must lie in \(0,1\)$"):
            third_slot_threshold(-1, F(1), F(1, 2))
        with pytest.raises(ValueError, match=r"^contains\(\) is about the open unit interval$"):
            t.contains(F(1))


class TestDualityAndMonotonicity:
    def test_mirror_duality_sampled(self):
        rng = random.Random(7)
        for _ in range(1500):
            t = random_triple(rng, 60)
            a = decide(normalize(-1, t))
            b = decide(normalize(-2, tuple(1 - r for r in t)))
            assert a.is_lspace == b.is_lspace

    def test_third_slot_monotone_up_for_b_minus_one(self):
        rng = random.Random(11)
        values = sorted({F(n, d) for d in range(2, 25) for n in range(1, d)})
        for _ in range(60):
            r1, r2 = (random_unit_fraction(rng, 30) for _ in range(2))
            last = False
            for r in values:
                cur = decide(normalize(-1, (r1, r2, r))).is_lspace
                if last:
                    assert cur, (r1, r2, r)
                last = cur


class TestAgainstNaiveOracle:
    def test_decide_matches_naive_enumerator_sampled(self):
        rng = random.Random(20240818)
        for _ in range(800):
            t = random_triple(rng, 60)
            b = rng.choice((-1, -2))
            assert decide(normalize(b, t)).is_lspace == naive_is_lspace(b, t, kmax=200)


class TestThirdSlotThreshold:
    def test_rejects_fixed_slopes_outside_the_unit_interval(self):
        for r in (F(0), F(1), F(-1, 2), F(3, 2), F(10 ** 18 + 1, 10 ** 18)):
            for b in (-3, -2, -1, 0):
                with pytest.raises(ValueError):
                    third_slot_threshold(b, r, F(1, 2))
                with pytest.raises(ValueError):
                    third_slot_threshold(b, F(1, 2), r)

    def test_down_closed_example(self):
        t = third_slot_threshold(-2, F(2, 3), F(2, 3))
        assert t.kind is IntervalKind.DOWN_CLOSED
        assert (t.boundary, t.attained) == (F(1, 2), True)
        assert not t.contains(F(2, 3))
        assert t.contains(F(1, 2))

    def test_up_closed_trivial_boundary(self):
        t = third_slot_threshold(-1, F(1, 2), F(2, 3))
        assert t.kind is IntervalKind.UP_CLOSED
        assert (t.boundary, t.attained) == (F(0), False)
        assert t.contains(F(1, 100))

    def test_other_b_all(self):
        for b in (0, 1, -3, 5):
            assert third_slot_threshold(b, F(1, 3), F(2, 5)).kind is IntervalKind.ALL

    def test_nontrivial_up_closed_boundary(self):
        t = third_slot_threshold(-1, F(2, 5), F(1, 2))
        assert t.kind is IntervalKind.UP_CLOSED
        assert (t.boundary, t.attained) == (F(1, 7), True)

    @pytest.mark.parametrize("b,r1,r2", [
        (-1, F(2, 5), F(1, 2)), (-1, F(1, 3), F(1, 3)), (-1, F(1, 100), F(1, 100)),
        (-1, F(1, 2), F(1, 2)), (-1, F(5, 7), F(3, 4)), (-1, F(1, 7), F(13, 30)),
        (-2, F(2, 3), F(2, 3)), (-2, F(1, 5), F(2, 3)), (-2, F(9, 10), F(5, 7)),
        (0, F(1, 3), F(2, 5)), (-3, F(1, 2), F(2, 3)), (1, F(4, 5), F(5, 6)),
    ])
    def test_agrees_with_pointwise_sweep(self, b, r1, r2):
        t = third_slot_threshold(b, r1, r2)
        values = sorted({F(n, d) for d in range(2, 101) for n in range(1, d)})
        for r in values:
            want = decide(normalize(b, (r1, r2, r))).is_lspace
            assert t.contains(r) == want, (b, r1, r2, r)

    @given(st.sampled_from((-1, -2)), unit, unit)
    def test_boundary_consistency(self, b, r1, r2):
        t = third_slot_threshold(b, r1, r2)
        up = b == -1
        assert t.kind is (IntervalKind.UP_CLOSED if up else IntervalKind.DOWN_CLOSED)
        if 0 < t.boundary < 1:
            # the boundary is an L-space and the slopes just past it on the
            # other side are not
            assert t.attained
            assert decide(normalize(b, (r1, r2, t.boundary))).is_lspace
            outside = t.boundary * (1 - F(1, 10 ** 30) if up else 1 + F(1, 10 ** 30))
            assert not decide(normalize(b, (r1, r2, outside))).is_lspace
        else:
            # every slope is an L-space
            assert (t.boundary, t.attained) == (F(0) if up else F(1), False)

    def test_euler_zero_slope_is_strictly_inside_the_not_lspace_side(self):
        # S2(b; r1, r2, e) with e = -b - r1 - r2 has infinite H1, and it has
        # a witness, so e lies in the open not-L-space set: never on the
        # boundary, which is why the boundary is always attained
        rng = random.Random(2014)
        seen = 0
        for i in range(20_000):
            b = (-1, -2)[i % 2]
            den = rng.choice((60, 10 ** 6, 10 ** 18))
            r1, r2 = (random_unit_fraction(rng, den) for _ in range(2))
            e = -b - r1 - r2
            if not 0 < e < 1:
                continue
            seen += 1
            t = third_slot_threshold(b, r1, r2)
            assert (e < t.boundary) if b == -1 else (e > t.boundary), (b, r1, r2)
            assert not t.contains(e)
            v = decide(normalize(b, (r1, r2, e)))
            assert v.reason is Reason.INFINITE_H1 and v.witness is not None, (b, r1, r2)
        assert seen > 9_000


def _witness_pair(t):
    w = witness_search(t)
    return None if w is None else (w.k, w.a)


class TestAgainstLoopOracles:
    """The Stern-Brocot witness and supremum against the former linear loops."""

    def test_witness_matches_loop(self):
        rng = random.Random(30)
        for _ in range(3000):
            t = random_triple(rng, rng.choice((12, 2000)))
            assert _witness_pair(t) == loop_witness(*_pairs(t)), t

    def test_not_lspace_sup_matches_loop(self):
        rng = random.Random(31)
        for _ in range(3000):
            u, v = (random_unit_fraction(rng, rng.choice((12, 2000, 10 ** 18))) for _ in range(2))
            if min(u, v) * 2000 < 1:
                continue  # the loop walks every k below 1/min(u, v)
            assert _not_lspace_sup(_pair(u), _pair(v)) == _pair(loop_not_lspace_sup(u, v)), (u, v)

    def test_first_denominator_near_1e5(self):
        # the loops walk up to 1/s1 here; half the triples put the simplest
        # fraction of (s2, 1 - s3) near that bound
        rng = random.Random(32)
        for i in range(24):
            q = rng.randint(9 * 10 ** 4, 11 * 10 ** 4)
            s1 = Fraction(rng.randint(1, 3), q)
            if i % 2:
                m = q // 2 + rng.randint(-40, 40)
                rest = (Fraction(m, 2 * m + 1), Fraction(1, 2))
            else:
                rest = tuple(random_unit_fraction(rng, q) for _ in range(2))
            t = tuple(sorted((s1, *rest)))
            assert _witness_pair(t) == loop_witness(*_pairs(t)), t
            u = Fraction(rng.randint(5, 60), q)
            v = random_unit_fraction(rng, q)
            assert _not_lspace_sup(_pair(u), _pair(v)) == _pair(loop_not_lspace_sup(u, v)), (u, v)


class TestAgainstFractionOracles:
    """normalize, classify and decide against the former Fraction path."""

    def test_random_raw_triples(self):
        # slopes p/q in (0,1) with q up to 10^18, shifted out of (0,1) by
        # random integer parts w that the section term absorbs; some are
        # integral or infinite, and some triples have euler number 0
        rng = random.Random(600)
        rand = rng.randrange
        zero_euler = 0
        for i in range(100_000):
            den = rng.choice((60, 10 ** 6, 10 ** 18))
            b = rng.choice((-1, -1, -2, -2, -3, 0))
            raw = []
            for _ in range(3):
                q = rand(2, den + 1)
                w = rand(-3, 4)
                b -= w
                raw.append(Fraction(rand(1, q) + w * q, q))
            if i % 50 == 0:
                # replace the last slope by the one that makes b + sum zero
                last = -b - raw[0] - raw[1]
                if last.denominator > 1:
                    raw[2] = last
            elif i % 97 == 0:
                raw[rand(3)] = rng.choice((INF, Fraction(rand(-3, 4))))
            f, want = normalize(b, raw), fraction_normalize(b, raw)
            assert f == want, (b, raw)
            c = classify(f)
            assert c == fraction_classify(want), (b, raw)
            assert decide(f) == fraction_decide(want), (b, raw)
            zero_euler += c.h1 is INF
        assert zero_euler > 1500


N18 = 10 ** 18


class TestLargeDenominators:
    """Known answers at sizes no linear search reaches."""

    @pytest.mark.parametrize("n,m,witness", [
        (N18, N18 // 2 - 2, (N18 - 1, N18 // 2 - 1)),
        (N18, 12345, (24693, 12346)),
        (N18 + 1, N18 // 2 - 1, None),   # 2m + 3 = n: k = n is out of range
        (N18, N18, None),
        (N18, 3 * N18 + 7, None),
    ])
    def test_late_witness_and_no_witness(self, n, m, witness):
        # m/(2m+1) and 1/2 are Stern-Brocot neighbours, so the simplest
        # fraction between them is (m+1)/(2m+3); s1 = 1/n needs 2m+3 < n
        triple = (Fraction(1, n), Fraction(m, 2 * m + 1), Fraction(1, 2))
        dual = tuple(sorted(1 - r for r in triple))
        for b, slopes in ((-1, triple), (-2, dual)):
            v = decide(SeifertForm(b=b, pairs=tuple((r.numerator, r.denominator)
                                                    for r in slopes)))
            assert v.search_bound == n - 1
            assert v.is_lspace == (witness is None)
            if witness is None:
                assert v.reason is Reason.NO_WITNESS_EXHAUSTIVE and v.witness is None
            else:
                assert v.reason is (Reason.WITNESS if b == -1 else Reason.DUAL_WITNESS)
                assert (v.witness.k, v.witness.a) == witness
                assert v.witness_is_dual == (b == -2)

    def test_threshold_at_1e18(self):
        # N = 1 mod 3: the boundary is (2K-1)/(3K) for K = N - 2
        n = N18 + 3
        assert n % 3 == 1
        k = n - 2
        t = third_slot_threshold(-1, Fraction(1, n), Fraction(1, 3))
        assert t.kind is IntervalKind.UP_CLOSED
        assert (t.boundary, t.attained) == (Fraction(2 * k - 1, 3 * k), True)

    @pytest.mark.parametrize("bits", [2048, 30000])
    def test_narrow_gap(self, bits):
        # convergents of [0; 2, a2, a3, ...] are Stern-Brocot neighbours in
        # (1/3, 1/2); the boundary is 1/(den lo + den hi), their mediant's
        rng = random.Random(bits)
        h1, k1, h0, k0 = 0, 1, 1, 0
        a, terms = 2, 1
        while k1.bit_length() < bits or terms < 3:
            h1, k1, h0, k0 = a * h1 + h0, a * k1 + k0, h1, k1
            a = rng.randint(1, 5)
            terms += 1
        lo, hi = sorted((Fraction(h1, k1), Fraction(h0, k0)))
        assert Fraction(1, 3) < lo < hi < Fraction(1, 2)
        t = third_slot_threshold(-1, lo, 1 - hi)
        assert t.kind is IntervalKind.UP_CLOSED
        assert (t.boundary, t.attained) == (Fraction(1, lo.denominator + hi.denominator), True)
        # the same descent decides S2(-1; 1/N, lo, 1 - hi): its witness is
        # the mediant, whose denominator is below N
        n = lo.denominator + hi.denominator + 1
        v = decide(SeifertForm(b=-1, pairs=((1, n), (lo.numerator, lo.denominator),
                                            (hi.denominator - hi.numerator, hi.denominator))))
        assert v.reason is Reason.WITNESS and v.search_bound == n - 1
        assert v.witness == (lo.denominator + hi.denominator, lo.numerator + hi.numerator)

    @pytest.mark.parametrize("bits", [2048, 8192])
    def test_wide_search_bound(self, bits):
        # u = 1/(N + 1) puts the search bound N = 2^(bits + 8) past v's
        # denominator, so the least fraction c/d above v with d <= N is the
        # neighbour c v_d - v_n d = 1 with the largest such d, and the
        # boundary is 1 - c/d: a descent to v and one run of N / v_d nodes
        # past it, capped at N
        rng = random.Random(bits)
        vd = rng.getrandbits(bits) | 1 << (bits - 1)
        v = Fraction(rng.randrange(vd // 3 + 1, vd // 2), vd)
        vn, vd = v.numerator, v.denominator
        n = 2 ** (bits + 8)
        d = n - (n + pow(vn, -1, vd)) % vd
        c = (1 + vn * d) // vd
        u = Fraction(1, n + 1)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            t = third_slot_threshold(-1, u, v)
            best = min(best, time.perf_counter() - t0)
        assert t.kind is IntervalKind.UP_CLOSED
        assert (t.boundary, t.attained) == (Fraction(d - c, d), True)
        assert best <= 0.25, f"{best:.3f} s"
