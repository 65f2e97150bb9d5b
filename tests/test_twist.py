"""The twist engine: slope arithmetic, homology consistency, certified tails."""

import random
from fractions import Fraction

import pytest

from seifert_lspace import (INF, SeiferterData, Tag,
                            catalog, classify, classify_family, decide,
                            fiber_slope, h1_consistency, limit_space,
                            normalize, surgered_space, surgery_slope,
                            tunnel2_family, unknot_seiferter_data)


def F(n, d=1):
    return Fraction(n, d)


TREFOIL = SeiferterData(b=3, r1=F(1, 2), r2=F(2, 3), alpha=1, beta=0,
                        alpha3=0, beta3=1, m=6, l=5, realizable=True)
CASE1 = SeiferterData(b=-1, r1=F(1, 3), r2=F(2, 3), alpha=0, beta=-1,
                      alpha3=1, beta3=0, m=0, l=3, realizable=True)


class TestSeiferterData:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            SeiferterData(b=0, r1=F(1, 2), r2=F(1, 3), alpha=2, beta=1,
                          alpha3=1, beta3=2)

    def test_degenerate_encoding_allowed(self):
        d = SeiferterData(b=0, r1=F(1, 2), r2=F(1, 3), alpha=1, beta=0,
                          alpha3=0, beta3=1)
        assert fiber_slope(d, 0) is INF

    def test_slope_range_enforced(self):
        with pytest.raises(ValueError):
            SeiferterData(b=0, r1=F(3, 2), r2=F(1, 3), alpha=1, beta=0,
                          alpha3=0, beta3=1)


class TestFiberSlope:
    def test_zero_twist(self):
        d = CASE1
        assert fiber_slope(d, 0) == F(d.beta3, d.alpha3)

    def test_degenerate_encoding(self):
        assert fiber_slope(TREFOIL, 0) is INF
        assert fiber_slope(TREFOIL, 5) == F(1, 5)
        assert fiber_slope(TREFOIL, -3) == F(-1, 3)

    def test_linear_case(self):
        d = SeiferterData(b=0, r1=F(1, 2), r2=F(1, 3), alpha=0, beta=-1,
                          alpha3=1, beta3=4)
        assert fiber_slope(d, 7) == -7 + 4

    def test_twisted_pair_stays_unimodular(self):
        for d in (TREFOIL, CASE1, tunnel2_family("A").members[0].data):
            for n in range(-25, 26):
                assert ((n * d.alpha + d.alpha3) * d.beta
                        - (n * d.beta + d.beta3) * d.alpha) == -1

    def test_monotone_convergence(self):
        d = tunnel2_family("A").members[0].data
        rc = F(d.beta, d.alpha)
        pole = F(-d.alpha3, d.alpha)
        prev = None
        for n in range(1, 60):
            cur = fiber_slope(d, n)
            assert cur > rc
            if prev is not None:
                assert cur < prev
            prev = cur
        assert abs(fiber_slope(d, 10 ** 6) - rc) < F(1, 10 ** 7)
        prev = None
        for n in range(-1, -60, -1):
            if n > pole:
                continue
            cur = fiber_slope(d, n)
            assert cur < rc
            if prev is not None:
                assert cur > prev
            prev = cur


class TestSurgeredSpace:
    def test_trefoil_first_twist(self):
        assert surgered_space(TREFOIL, 1) == normalize(4, (F(1, 2), F(2, 3)))

    def test_pole_gives_connected_sum(self):
        f = surgered_space(TREFOIL, 0)
        assert classify(f).tag is Tag.CONNECTED_SUM_LENS

    def test_zero_twist_nondegenerate(self):
        d = tunnel2_family("B").members[0].data
        assert surgered_space(d, 0) == normalize(0, (F(4, 5), F(1, 2), F(-2, 7)))


class TestSurgerySlope:
    def test_values(self):
        assert surgery_slope(TREFOIL, 1) == 31
        d = SeiferterData(b=0, r1=F(1, 2), r2=F(1, 3), alpha=1, beta=0,
                          alpha3=0, beta3=1, m=7, l=5)
        assert surgery_slope(d, 1) == 32
        a = tunnel2_family("A").members[0].data
        assert [surgery_slope(a, n) for n in (-1, 0, 2)] == [-125, 71, 463]


class TestLimitSpace:
    def test_infinite_limit_is_connected_sum(self):
        assert classify(limit_space(CASE1)).tag is Tag.CONNECTED_SUM_LENS

    def test_degenerate_encoding_limit_is_lens(self):
        f = limit_space(TREFOIL)
        assert f == normalize(3, (F(1, 2), F(2, 3)))
        assert classify(f).tag is Tag.LENS

    def test_unknot_3_3_limit(self):
        f = limit_space(unknot_seiferter_data(3, 3))
        assert f == normalize(-2, (F(2, 3), F(2, 3), F(2, 3)))


class TestH1Consistency:
    def test_examples(self):
        assert classify(surgered_space(TREFOIL, 1)).h1 == 31
        a = tunnel2_family("A").members[0].data
        assert classify(surgered_space(a, 2)).h1 == 463
        d = unknot_seiferter_data(0, 3)
        assert classify(surgered_space(d, 1)).h1 == 9
        assert all(h1_consistency(x, n) for x in (TREFOIL, CASE1, a, d)
                   for n in range(-30, 31))

    def test_synthetic_data_fails_quietly(self):
        bogus = SeiferterData(b=0, r1=F(1, 2), r2=F(1, 3), alpha=1, beta=0,
                              alpha3=0, beta3=1, m=1000, l=1)
        assert h1_consistency(bogus, 1) is False

    def test_catalog_families_consistent(self):
        # the homology identity is a property of the underlying seiferter
        # data, so it applies to mirrored and reindexed members alike
        for spec in catalog():
            for member in spec.members:
                if member.rp2:
                    continue
                for n in range(-100, 101):
                    assert h1_consistency(member.data, n), (spec.name, n)


class TestClassifyFamily:
    def test_trefoil_all_lspace_including_pole(self):
        report = classify_family(TREFOIL, (-50, 50))
        assert all(pv.verdict.is_lspace for pv in report.points.values())
        assert report.exceptional == ((0, Tag.CONNECTED_SUM_LENS),)
        assert report.tail_pos.certified and report.tail_pos.is_lspace
        assert report.tail_neg.certified and report.tail_neg.is_lspace

    def test_unknot_family_exception_at_zero(self):
        d = unknot_seiferter_data(0, 3)
        report = classify_family(d, (-10, 10))
        fails = [n for n, pv in report.points.items() if not pv.verdict.is_lspace]
        assert fails == [0]
        assert report.points[0].tag is Tag.S2XS1

    def test_linear_case_single_possible_exception(self):
        report = classify_family(CASE1, (-10, 10))
        fails = [n for n, pv in report.points.items() if not pv.verdict.is_lspace]
        assert fails == [0]  # b + beta3 + 1 = 0 here and r1 + r2 = 1
        assert report.tail_pos.certified and report.tail_pos.is_lspace
        assert report.tail_neg.certified and report.tail_neg.is_lspace

    def test_tails_with_not_lspace_limit(self):
        d = unknot_seiferter_data(3, 3)
        report = classify_family(d, (-8, 8))
        assert not report.limit_verdict.is_lspace
        assert report.tail_pos.certified and report.tail_pos.is_lspace is False
        assert report.tail_neg.certified and report.tail_neg.is_lspace is False
        # innermost values right beyond the certificates agree pointwise
        for tail in (report.tail_pos, report.tail_neg):
            for i in range(10):
                n = tail.from_n + i * tail.side
                assert decide(surgered_space(d, n)).is_lspace is tail.is_lspace

    def test_tails_agree_with_pointwise_far_out(self):
        rng = random.Random(99)
        for spec in catalog():
            for member in spec.members:
                report = classify_family(member, (-20, 20))
                for tail in (report.tail_pos, report.tail_neg):
                    if not tail.certified:
                        continue
                    # the ten innermost certified values, then random far ones
                    offsets = list(range(10)) + [rng.randint(10, 10 ** 4)
                                                 for _ in range(20)]
                    for off in offsets:
                        n = tail.from_n + tail.side * off
                        _, form = member.point(n)
                        assert decide(form).is_lspace is tail.is_lspace, (spec.name, n)

    def test_limit_lspace_iff_some_certified_lspace_tail(self):
        # families whose limit is a nondegenerate small Seifert space
        samples = [unknot_seiferter_data(3, 3), unknot_seiferter_data(-3, 5),
                   unknot_seiferter_data(-1, 3),
                   tunnel2_family("A").members[0].data,
                   tunnel2_family("B").members[0].data]
        for d in samples:
            lim = limit_space(d)
            if len(lim.slopes) != 3:
                continue
            report = classify_family(d, (-30, 30))
            has_l_tail = ((report.tail_pos.certified and report.tail_pos.is_lspace)
                          or (report.tail_neg.certified and report.tail_neg.is_lspace))
            assert has_l_tail == decide(lim).is_lspace, d

    def test_gap_fill_covers_every_integer(self):
        # window far to the left of the pole: the right certificate starts
        # beyond the pole and the gap is covered by segments and points
        report = classify_family(TREFOIL, (-30, -20))
        assert report.tail_pos.certified
        for n in range(-19, report.tail_pos.from_n):
            assert report.lspace_at(n) == decide(surgered_space(TREFOIL, n)).is_lspace, n
        assert report.lspace_at(0)
        assert report.lspace_at(10 ** 6)
        assert report.lspace_at(-10 ** 6)

    def test_limit_exactly_on_threshold_boundary(self):
        # third_slot_threshold(-1, 2/5, 1/2) has boundary 1/7, attained; this
        # data has limit slope exactly 1/7, so the limit is an L-space, the
        # approach from above is all L-space, and the approach from below is
        # certified not-L-space.
        d = SeiferterData(b=-1, r1=F(2, 5), r2=F(1, 2), alpha=7, beta=1,
                          alpha3=6, beta3=1)
        assert fiber_slope(d, 10 ** 9) > F(1, 7) > fiber_slope(d, -10 ** 9)
        report = classify_family(d, (-10, 10))
        assert decide(report.limit).is_lspace
        assert report.tail_pos.certified and report.tail_pos.is_lspace is True
        assert report.tail_neg.certified and report.tail_neg.is_lspace is False
        for tail in (report.tail_pos, report.tail_neg):
            for i in range(8):
                n = tail.from_n + i * tail.side
                assert decide(surgered_space(d, n)).is_lspace is tail.is_lspace

    def test_random_synthetic_data_tails_match_brute_force(self):
        rng = random.Random(424242)
        built = 0
        while built < 120:
            alpha = rng.randint(-5, 5)
            beta = rng.randint(-5, 5)
            # solve alpha*beta3 - beta*alpha3 = 1 if possible
            from math import gcd as _gcd
            if _gcd(abs(alpha), abs(beta)) != 1:
                continue
            # extended euclid for alpha*x + (-beta)*y = 1 with (x, y) = (beta3, alpha3)
            def ext(a, b):
                if b == 0:
                    return (1, 0) if a == 1 else (-1, 0)
                x, y = ext(b, a % b)
                return y, x - (a // b) * y
            x, y = ext(alpha, -beta) if alpha or beta else (None, None)
            if x is None or alpha * x - beta * y != 1:
                continue
            # shift (beta3, alpha3) by multiples of (beta, alpha) to make alpha3 > 0
            for t in range(-6, 7):
                beta3, alpha3 = x + t * beta, y + t * alpha
                if alpha3 > 0 or (alpha3, beta3) == (0, 1):
                    break
            else:
                continue
            if alpha * beta3 - beta * alpha3 != 1:
                continue
            d1 = rng.randint(2, 9)
            d2 = rng.randint(2, 9)
            d = SeiferterData(b=rng.randint(-4, 3),
                              r1=F(rng.randint(1, d1 - 1), d1),
                              r2=F(rng.randint(1, d2 - 1), d2),
                              alpha=alpha, beta=beta, alpha3=alpha3, beta3=beta3)
            built += 1
            report = classify_family(d, (-6, 6))
            for tail in (report.tail_pos, report.tail_neg):
                assert tail.certified, d
                for i in [*range(12), 25, 70, 311, 4096]:
                    n = tail.from_n + i * tail.side
                    assert decide(surgered_space(d, n)).is_lspace is tail.is_lspace, (d, n)
            # window, gap segments and tails cover everything consistently
            for n in range(-30, 31):
                assert report.lspace_at(n) == decide(surgered_space(d, n)).is_lspace, (d, n)
            # a window 10^3 indices to one side of the pole leaves a gap
            # across the pole to the far tail
            pole = -alpha3 // alpha if alpha else 0
            side = 1 if built % 2 else -1
            lo = pole + side * 1000 - 6
            far = classify_family(d, (lo, lo + 12))
            for n in range(min(lo, pole) - 40, max(lo + 12, pole) + 41):
                assert far.lspace_at(n) == decide(surgered_space(d, n)).is_lspace, (d, lo, n)

    def test_epsilon_seiferter_tail_starts_certified(self):
        # r2 = 2/3 - 10^-e puts the positive tail start at 33...35 (e - 2
        # threes); everything between the window and it is one L-space segment
        for e, start in ((4, 3335), (5, 33335), (6, 333335)):
            d = SeiferterData(b=-1, r1=F(1, 3), r2=F(2, 3) - F(1, 10 ** e),
                              alpha=1, beta=0, alpha3=1, beta3=1)
            report = classify_family(d, (-50, 50))
            assert report.tail_pos.certified and report.tail_pos.from_n == start
            assert report.tail_pos.is_lspace is False
            assert report.tail_neg.certified and report.tail_neg.from_n == -51
            assert [(s.from_n, s.to_n, s.is_lspace) for s in report.segments] == \
                [(51, start - 1, True)]
            assert sorted(report.points) == list(range(-50, 51))
            for n, lspace in ((start - 1, True), (start, False)):
                assert decide(surgered_space(d, n)).is_lspace is lspace

    def test_mirrored_member_tails(self):
        from seifert_lspace import berge_sporadic
        spec = berge_sporadic("c", 1)
        member = spec.members[0]
        assert member.mirrored
        report = classify_family(member, (-5, 5))
        assert report.tail_pos.certified and report.tail_pos.is_lspace
        assert report.tail_neg.certified and report.tail_neg.is_lspace
        slope_m1, _ = member.point(-1)
        assert slope_m1 == -(22 + 31 + 11)
