"""The twist engine: slope arithmetic, homology consistency, certified tails."""

import random
from fractions import Fraction
from math import gcd

import pytest

from seifert_lspace import (INF, FamilyMember, PointVerdict, Run, SeiferterData, Tag,
                            build_family, catalog, check_guarantee, classify,
                            classify_family, decide, find_family, h1_consistency,
                            limit_space, normalize, surgered_space, surgery_slope, twist,
                            unknot_seiferter_data)
from seifert_lspace.formats import form_json, rational_json, report_json, verdict_json
from seifert_lspace.twist import _runs, _span, evaluate_point

from oracles import (fiber_slope, fraction_decide, fraction_member_point, fraction_normalize,
                     fraction_point, fraction_runs, shown)


def F(n, d=1):
    return Fraction(n, d)


TREFOIL = SeiferterData(b=3, r1=F(1, 2), r2=F(2, 3), alpha=1, beta=0,
                        alpha3=0, beta3=1, m=6, l=5)
CASE1 = SeiferterData(b=-1, r1=F(1, 3), r2=F(2, 3), alpha=0, beta=-1,
                      alpha3=1, beta3=0, m=0, l=3)


def _shown(report, lo, hi):
    """The points and the runs of ``shown(report, lo, hi)``, and the verdict
    at any n read off them, which must come from exactly one of them."""
    rows = list(shown(report, lo, hi))
    points = {r.n: r for r in rows if isinstance(r, PointVerdict)}
    runs = [r for r in rows if isinstance(r, Run)]

    def lspace_at(n):
        if n in points:
            return points[n].verdict.is_lspace
        (run,) = [r for r in runs if (r.from_n is None or r.from_n <= n)
                  and (r.to_n is None or n <= r.to_n)]
        return run.is_lspace

    return points, runs, lspace_at


def _assert_rows_map(member, want):
    """The member's report rows are ``want``, the rows of ``fraction_runs``
    on its data, mapped through n = j - offset, or n = -j - offset and
    reversed on a mirrored member: each run's ends, verdict, band base,
    threshold (b, boundary) and mirrored flag, and each single's n."""
    s = -1 if member.mirrored else 1

    def to_n(j):
        return None if j is None else s * j - member.offset

    rows = classify_family(member).rows
    assert len(rows) == len(want), (member, rows, want)
    for row, w in zip(rows, want[::s]):
        if isinstance(w, int):
            assert isinstance(row, PointVerdict) and row.n == to_n(w), (member, row, w)
            continue
        a, b = (to_n(w[0]), to_n(w[1]))[::s]
        assert (row.from_n, row.to_n, row.is_lspace, row.band_base, row.mirrored) == \
            (a, b, w[2], w[3], member.mirrored), (member, row, w)
        t, u = row.threshold, w[4]
        assert (t is None) == (u is None), (member, row, w)
        if t is not None:
            assert (t.b, t.boundary) == (u.b, u.boundary), (member, row, w)


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

    def test_slopes_must_be_fractions(self):
        # a float or a str slope is rejected where it is given, not left to
        # fail later in the integer arithmetic
        for bad in (0.5, "1/2"):
            for r1, r2 in ((bad, F(5, 7)), (F(1, 2), bad)):
                with pytest.raises(ValueError, match="Fractions"):
                    SeiferterData(b=-1, r1=r1, r2=r2, alpha=14, beta=11,
                                  alpha3=5, beta3=4, m=71, l=14)


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
        for d in (TREFOIL, CASE1, build_family("tunnel2-a").members[0].data):
            for n in range(-25, 26):
                assert ((n * d.alpha + d.alpha3) * d.beta
                        - (n * d.beta + d.beta3) * d.alpha) == -1

    def test_monotone_convergence(self):
        d = build_family("tunnel2-a").members[0].data
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
        d = build_family("tunnel2-b").members[0].data
        assert surgered_space(d, 0) == normalize(0, (F(4, 5), F(1, 2), F(-2, 7)))


def _assert_fold(member, ns):
    """surgered_space, limit_space and evaluate_point, which build a form by
    one integer fold, against the Fraction oracles at the indices ns."""
    d, s = member.data, -1 if member.mirrored else 1
    assert d.fixed == tuple(sorted([(d.r1.numerator, d.r1.denominator),
                                    (d.r2.numerator, d.r2.denominator)],
                                   key=lambda pq: F(*pq))), d
    for n in ns:
        assert surgered_space(d, n) == \
            fraction_normalize(d.b, (d.r1, d.r2, fiber_slope(d, n))), (d, n)
        assert evaluate_point(member, n) == fraction_point(member, n), (member, n)
    assert limit_space(d) == fraction_normalize(d.b, (d.r1, d.r2, d.limit_slope)), d
    assert classify_family(member).limit == fraction_normalize(
        s * d.b, [r if r is INF else s * r for r in (d.r1, d.r2, d.limit_slope)]), member


def _singles(member):
    """The indices no threshold covers: the pole and the integer values of F."""
    return [r.n for r in classify_family(member).rows if isinstance(r, PointVerdict)]


class TestFold:
    def test_catalog_data(self):
        members = [m for spec in catalog() for m in spec.members if not m.rp2]
        assert any(m.mirrored for m in members)
        for member in members:
            _assert_fold(member, range(-200, 201))

    def test_equal_and_decreasing_fixed_slopes(self):
        # r1 == r2, and r1 > r2, each at the pole, at the integer values of
        # f(n) and next to them, with the fixed pair on either side of the
        # moving one
        kinds = set()
        for r1, r2 in ((F(2, 3), F(2, 3)), (F(5, 7), F(1, 2)), (F(1, 2), F(1, 2))):
            for alpha, beta, alpha3, beta3 in ((14, 11, 5, 4), (1, 0, 1, 1), (1, 0, 0, 1),
                                               (-3, 1, 2, -1)):
                d = SeiferterData(b=-1, r1=r1, r2=r2, alpha=alpha, beta=beta,
                                  alpha3=alpha3, beta3=beta3, m=3, l=2)
                for mirrored in (False, True):
                    member = FamilyMember(data=d, mirrored=mirrored, offset=1)
                    singles = _singles(member)
                    ns = {n + i for n in singles for i in (-2, -1, 0, 1, 2)} | set(range(-30, 31))
                    _assert_fold(member, ns)
                    for n in singles:
                        j = -n - 1 if mirrored else n + 1
                        kinds.add("pole" if fiber_slope(d, j) is INF else "integer f(n)")
                kinds.add("r1 == r2" if r1 == r2 else "r1 > r2")
        assert kinds == {"pole", "integer f(n)", "r1 == r2", "r1 > r2"}

    def test_4001_digit_sporadic_data(self):
        for kind in "abcd":
            for member in build_family(f"spor-{kind}", p=10 ** 4000).members:
                _assert_fold(member, {n + i for n in _singles(member) for i in (-2, -1, 0, 1, 2)}
                             | {-10 ** 18, 0, 7, 10 ** 18})


class TestSurgerySlope:
    def test_values(self):
        assert surgery_slope(TREFOIL, 1) == 31
        d = SeiferterData(b=0, r1=F(1, 2), r2=F(1, 3), alpha=1, beta=0,
                          alpha3=0, beta3=1, m=7, l=5)
        assert surgery_slope(d, 1) == 32
        a = build_family("tunnel2-a").members[0].data
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
        a = build_family("tunnel2-a").members[0].data
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
        report = classify_family(TREFOIL)
        points, runs, _ = _shown(report, -50, 50)
        assert all(pv.verdict.is_lspace for pv in points.values())
        assert report.exceptional == ((0, Tag.CONNECTED_SUM_LENS),)
        assert report.tail_pos.is_lspace and runs[-1].is_lspace
        assert report.tail_neg.is_lspace and runs[0].is_lspace

    def test_unknot_family_exception_at_zero(self):
        d = unknot_seiferter_data(0, 3)
        points, _, _ = _shown(classify_family(d), -10, 10)
        fails = [n for n, pv in points.items() if not pv.verdict.is_lspace]
        assert fails == [0]
        assert points[0].tag is Tag.S2XS1

    def test_linear_case_single_possible_exception(self):
        report = classify_family(CASE1)
        points, _, _ = _shown(report, -10, 10)
        fails = [n for n, pv in points.items() if not pv.verdict.is_lspace]
        assert fails == [0]  # b + beta3 + 1 = 0 here and r1 + r2 = 1
        assert report.tail_pos.is_lspace
        assert report.tail_neg.is_lspace

    def test_tails_with_not_lspace_limit(self):
        d = unknot_seiferter_data(3, 3)
        report = classify_family(d)
        assert not report.limit_verdict.is_lspace
        assert report.tail_pos.is_lspace is False
        assert report.tail_neg.is_lspace is False
        # innermost values right beyond the certificates agree pointwise
        for tail in (report.tail_pos, report.tail_neg):
            for i in range(10):
                n = tail.from_n + i if tail.to_n is None else tail.to_n - i
                assert decide(surgered_space(d, n)).is_lspace is tail.is_lspace

    def test_tails_agree_with_pointwise_far_out(self):
        rng = random.Random(99)
        for spec in catalog():
            for member in spec.members:
                _, runs, _ = _shown(classify_family(member), -20, 20)
                for tail in (runs[-1], runs[0]):
                    # the ten innermost certified values, then random far ones
                    offsets = list(range(10)) + [rng.randint(10, 10 ** 4)
                                                 for _ in range(20)]
                    for off in offsets:
                        n = tail.from_n + off if tail.to_n is None else tail.to_n - off
                        _, form = fraction_member_point(member, n)
                        assert decide(form).is_lspace is tail.is_lspace, (spec.name, n)

    def test_limit_lspace_iff_some_certified_lspace_tail(self):
        # families whose limit is a nondegenerate small Seifert space
        samples = [unknot_seiferter_data(3, 3), unknot_seiferter_data(-3, 5),
                   unknot_seiferter_data(-1, 3),
                   build_family("tunnel2-a").members[0].data,
                   build_family("tunnel2-b").members[0].data]
        for d in samples:
            lim = limit_space(d)
            if len(lim.slopes) != 3:
                continue
            report = classify_family(d)
            has_l_tail = report.tail_pos.is_lspace or report.tail_neg.is_lspace
            assert has_l_tail == decide(lim).is_lspace, d

    def test_gap_fill_covers_every_integer(self):
        # window far to the left of the pole: the right certificate starts
        # beyond the pole and the gap is covered by segments and points
        report = classify_family(TREFOIL)
        _, runs, shown_at = _shown(report, -30, -20)
        for n in range(-19, runs[-1].from_n):
            want = decide(surgered_space(TREFOIL, n)).is_lspace
            assert report.lspace_at(n) == shown_at(n) == want, n
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
        report = classify_family(d)
        assert decide(report.limit).is_lspace
        assert report.tail_pos.is_lspace is True
        assert report.tail_neg.is_lspace is False
        for tail in (report.tail_pos, report.tail_neg):
            for i in range(8):
                n = tail.from_n + i if tail.to_n is None else tail.to_n - i
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
            report = classify_family(d)
            _, runs, shown_at = _shown(report, -6, 6)
            for tail in (runs[-1], runs[0]):
                for i in [*range(12), 25, 70, 311, 4096]:
                    n = tail.from_n + i if tail.to_n is None else tail.to_n - i
                    assert decide(surgered_space(d, n)).is_lspace is tail.is_lspace, (d, n)
            # window, gap segments and tails cover everything consistently
            for n in range(-30, 31):
                want = decide(surgered_space(d, n)).is_lspace
                assert report.lspace_at(n) == shown_at(n) == want, (d, n)
            # a window 10^3 indices to one side of the pole leaves a gap
            # across the pole to the far tail
            pole = -alpha3 // alpha if alpha else 0
            side = 1 if built % 2 else -1
            lo = pole + side * 1000 - 6
            far_at = _shown(report, lo, lo + 12)[2]
            for n in range(min(lo, pole) - 40, max(lo + 12, pole) + 41):
                assert far_at(n) == decide(surgered_space(d, n)).is_lspace, (d, lo, n)

    def test_epsilon_seiferter_tail_starts_certified(self):
        # r2 = 2/3 - 10^-e puts the positive tail start at 33...35 (e - 2
        # threes); everything between the window and it is one L-space segment
        for e, start in ((4, 3335), (5, 33335), (6, 333335)):
            d = SeiferterData(b=-1, r1=F(1, 3), r2=F(2, 3) - F(1, 10 ** e),
                              alpha=1, beta=0, alpha3=1, beta3=1)
            report = classify_family(d)
            points, runs, _ = _shown(report, -50, 50)
            assert report.tail_pos.from_n == runs[-1].from_n == start
            assert report.tail_pos.is_lspace is runs[-1].is_lspace is False
            assert runs[0].to_n == -51
            assert [(s.from_n, s.to_n, s.is_lspace) for s in runs[1:-1]] == \
                [(51, start - 1, True)]
            assert sorted(points) == list(range(-50, 51))
            for n, lspace in ((start - 1, True), (start, False)):
                assert decide(surgered_space(d, n)).is_lspace is lspace

    def test_mirrored_member_tails(self):
        spec = build_family("spor-c", p=1)
        member = spec.members[0]
        assert member.mirrored
        report = classify_family(member)
        assert report.tail_pos.is_lspace
        assert report.tail_neg.is_lspace
        slope_m1, _ = fraction_member_point(member, -1)
        assert slope_m1 == -(22 + 31 + 11)


def _random_seiferter(rng):
    """Valid data with small entries: alpha = 0 in about a tenth of the
    draws, the degenerate encoding (alpha3, beta3) = (0, 1) in another
    tenth, and r1 + r2 = 1 in about a fifth."""
    while True:
        kind = rng.random()
        if kind < 0.1:
            alpha, beta, alpha3, beta3 = 1, rng.randint(-6, 6), 0, 1
        else:
            alpha3 = rng.choice([1, 1, 2, 3, 5, rng.randint(1, 30)])
            alpha = 0 if kind < 0.2 else rng.randint(-9, 9)
            if gcd(alpha, alpha3) != 1:
                continue
            # alpha * beta3 = 1 mod alpha3 makes the determinant one
            beta3 = (pow(alpha, -1, alpha3) if alpha3 > 1 else 0) + alpha3 * rng.randint(-4, 4)
            beta = (alpha * beta3 - 1) // alpha3
        d1 = rng.randint(2, 12)
        r1 = F(rng.randint(1, d1 - 1), d1)
        r2 = 1 - r1 if rng.random() < 0.2 else F(rng.randint(1, 10), 11)
        return SeiferterData(b=rng.randint(-5, 4), r1=r1, r2=r2, alpha=alpha, beta=beta,
                             alpha3=alpha3, beta3=beta3)


def _huge_seiferter(rng):
    """Valid data whose slopes, matrix entries and base reach 10^18."""
    big = 10 ** 18
    while True:
        alpha3 = rng.choice([1, rng.randint(1, big)])
        alpha = rng.randint(-big, big)
        if gcd(alpha, alpha3) == 1:
            break
    beta3 = (pow(alpha, -1, alpha3) if alpha3 > 1 else 0) + alpha3 * rng.randint(-4, 4)
    beta = (alpha * beta3 - 1) // alpha3
    q1, q2 = rng.randint(2, big), rng.randint(2, big)
    return SeiferterData(b=rng.choice([rng.randint(-5, 4), rng.randint(-big, big)]),
                         r1=F(rng.randint(1, q1 - 1), q1), r2=F(rng.randint(1, q2 - 1), q2),
                         alpha=alpha, beta=beta, alpha3=alpha3, beta3=beta3,
                         m=rng.randint(-big, big), l=rng.randint(0, big))


class TestEvaluatePoint:
    def test_integer_pairs_match_the_fraction_path(self):
        """evaluate_point against the Fraction path, on mirrored and
        unmirrored members at random offsets: at the singles (the pole and
        integer f(n)), next to them and at random indices near and far."""
        rng = random.Random(5772)
        kinds = set()
        for k in range(400):
            d = _random_seiferter(rng) if k % 2 else _huge_seiferter(rng)
            offset = rng.choice([rng.randint(-9, 9), rng.randint(-10 ** 18, 10 ** 18)])
            member = FamilyMember(data=d, mirrored=rng.random() < 0.5, offset=offset)
            singles = [r.n for r in classify_family(member).rows
                       if isinstance(r, PointVerdict)]
            ns = {rng.randint(-50, 50), rng.randint(-10 ** 20, 10 ** 20), -offset,
                  10 ** 18 - rng.randint(0, 9), rng.randint(0, 9) - 10 ** 18,
                  *(n + i for n in singles for i in (-2, -1, 0, 1, 2))}
            for n in ns:
                pv = evaluate_point(member, n)
                assert pv == fraction_point(member, n), (member, n)
                kinds.add("mirrored" if member.mirrored else "unmirrored")
                if n in singles and d.alpha:
                    kinds.add("pole" if pv.form.degenerate else "integer f(n)")
            kinds.add("alpha = 0" if d.alpha == 0 else
                      "(alpha3, beta3) = (0, 1)" if d.alpha3 == 0 else
                      "10^18" if abs(d.alpha) > 10 ** 12 else "small")
        assert kinds == {"mirrored", "unmirrored", "pole", "integer f(n)", "alpha = 0",
                         "(alpha3, beta3) = (0, 1)", "10^18", "small"}

    def test_rp2_member(self):
        member = FamilyMember(rp2=True)
        for n in (-3, 0, 10 ** 20):
            assert evaluate_point(member, n) == fraction_point(member, n)

    def test_catalog_members_match_the_fraction_path(self):
        members = [m for spec in catalog() for m in spec.members]
        assert any(m.rp2 for m in members) and any(m.mirrored for m in members)
        for member in members:
            for n in range(-1000, 1001):
                assert evaluate_point(member, n) == fraction_point(member, n), (member, n)


def _linear_lspace_at(report, n):
    """The verdict at n from the one row holding it, found by a scan."""
    (row,) = [r for r in report.rows if (_span(r)[0] is None or _span(r)[0] <= n)
              and (_span(r)[1] is None or n <= _span(r)[1])]
    return row.is_lspace if isinstance(row, Run) else row.verdict.is_lspace


def _assert_lspace_at(report):
    """The bisected lspace_at against the scan, at each row's ends, one
    either side of them, and at +-10^18."""
    ns = {-10 ** 18, 10 ** 18, *(e + i for r in report.rows for e in _span(r) if e is not None
                                 for i in (-1, 0, 1))}
    for n in ns:
        assert report.lspace_at(n) is _linear_lspace_at(report, n), (report.member, n)


class TestReport:
    """A report's verdict at n is bisected from its rows, and its limit
    fields are worked out only when a writer reads them."""

    def test_lspace_at_on_the_catalog(self):
        for spec in catalog():
            for member in spec.members:
                _assert_lspace_at(classify_family(member))

    def test_check_guarantee_works_out_no_limit(self, monkeypatch):
        calls = []
        limit, decision = twist.limit_space, twist.decide

        def counting_limit(d):
            calls.append("limit_space")
            return limit(d)

        def counting_decide(f):
            calls.append("decide")
            return decision(f)

        monkeypatch.setattr(twist, "limit_space", counting_limit)
        monkeypatch.setattr(twist, "decide", counting_decide)
        for spec in catalog():
            assert check_guarantee(spec)[0], spec.name
        assert calls == []
        # the counters see a writer's reads, each field worked out once
        report = classify_family(catalog()[0].members[0])
        assert report.limit_verdict is report.limit_verdict
        assert calls == ["limit_space", "decide"]

    def test_runs_are_built_without_a_python_constructor(self):
        # a Run is a NamedTuple that classify_family fills directly: no
        # generated __init__ (2.96 us a run as a frozen dataclass) or __new__
        # runs for it; a window's clipped tails are its _replace
        import sys
        seen = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name in ("__init__", "__new__"):
                seen.append(frame.f_locals.get("self", frame.f_locals.get("_cls")))

        members = [m for spec in catalog() for m in spec.members]
        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            reports = [classify_family(m) for m in members]
        finally:
            sys.setprofile(before)
        assert not [x for x in seen if x is Run or isinstance(x, Run)]
        runs = [r for report in reports for r in report.rows if type(r) is Run]
        assert len(runs) >= 36 and all(len(r) == 7 and r.pieces for r in runs)
        report = classify_family(TREFOIL)
        tn, tp = report.tail_neg, report.tail_pos
        rows = list(report.pieces(tn.to_n - 5, tp.from_n + 5))
        assert rows[0] == tn._replace(to_n=tn.to_n - 6) and rows[0].pieces == tn.pieces
        assert rows[-1] == tp._replace(from_n=tp.from_n + 6)

    def test_report_json_writes_the_limit(self):
        for spec in catalog():
            for member in spec.members:
                out = report_json(classify_family(member), (-3, 3))
                if member.rp2:
                    slope, want = None, fraction_point(member, 0).form
                else:
                    d, s = member.data, -1 if member.mirrored else 1
                    slope = d.limit_slope
                    want = fraction_normalize(s * d.b, [r if r is INF else s * r
                                                        for r in (d.r1, d.r2, slope)])
                assert out["limit"] == form_json(want), member
                assert out["limit_verdict"] == verdict_json(fraction_decide(want)), member
                assert out["tail_pos"]["limit_slope"] == out["tail_neg"]["limit_slope"] \
                    == rational_json(slope), member


class TestRuns:
    """One walk cuts all of Z into runs and singles, the rows of a report;
    ``pieces`` cuts the rows around a window, and ``oracles.shown`` expands
    its pieces into their members."""

    def test_runs_tile_z_with_pointwise_verdicts(self):
        rng = random.Random(2718)
        kinds = set()
        for _ in range(300):
            d = _random_seiferter(rng)
            # at offset 0, unmirrored, the family's n is the data's j
            rows = _runs(FamilyMember(data=d))
            _assert_lspace_at(classify_family(d))
            runs = [r for r in rows if not isinstance(r, int)]
            singles = [r for r in rows if isinstance(r, int)]
            pole = F(-d.alpha3, d.alpha) if d.alpha else None
            kinds.add("alpha0-s2xs1" if d.alpha == 0 and singles else "alpha0" if d.alpha == 0
                      else "integer pole" if pole.denominator == 1 else "pole")
            # the walk yields runs and singles in increasing order
            parts = [(r, r) if isinstance(r, int) else r[:2] for r in rows]
            assert parts[0][0] is None and parts[-1][1] is None, d
            for (_, b), (a, _) in zip(parts, parts[1:]):
                assert b is not None and a == b + 1, (d, parts)
            if pole is not None:
                left = [r for r in runs if r[1] is not None and r[1] < pole]
                assert len(left) + sum(r[0] is not None and r[0] > pole for r in runs) \
                    == len(runs), d
                assert len(left) <= 6 and len(runs) - len(left) <= 6, (d, runs)
            for j in singles:
                v = fiber_slope(d, j)
                assert v is INF or v.denominator == 1, (d, j)
            for a, b, is_lspace, base, desc, pieces in runs:
                # the run's pieces tile it in order
                assert pieces[0][0] == a and pieces[-1][1] == b, (d, pieces)
                for (_, z, _), (x, _, _) in zip(pieces, pieces[1:]):
                    assert z is not None and x == z + 1, (d, pieces)
                if a is None and b is None:
                    points = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
                elif a is None:
                    points = [b - i for i in (0, 1, 2, 7, 100, 10 ** 6)]
                elif b is None:
                    points = [a + i for i in (0, 1, 2, 7, 100, 10 ** 6)]
                else:
                    points = {a, b, *(rng.randint(a, b) for _ in range(3))}
                for j in points:
                    assert decide(surgered_space(d, j)).is_lspace is is_lspace, (d, j)
                    if base is not None:
                        v = fiber_slope(d, j)
                        assert d.b + (v.numerator // v.denominator) == base, (d, j)
                        assert desc.b == base
        assert kinds == {"alpha0", "alpha0-s2xs1", "integer pole", "pole"}

    def test_integer_walk_matches_the_fraction_walk(self):
        """The walk on the frame against the former Fraction walk on the
        data, row by row through ``_assert_rows_map``, for a member at
        offset 0 and an unmirrored and a mirrored one at random offsets,
        each band's threshold compared through its Fraction view;
        surgered_space and limit_space against fraction_normalize of the
        Fraction slope; and every row of the mirrored and the unmirrored
        member against fraction_point, at the singles and at the ends and
        inside of runs."""
        rng = random.Random(1729)
        kinds = set()
        for k in range(360):
            d = _random_seiferter(rng) if k % 2 else _huge_seiferter(rng)
            want = fraction_runs(d)
            _assert_rows_map(FamilyMember(data=d), want)
            ends = {j for row in want for j in ((row,) if isinstance(row, int) else row[:2])
                    if j is not None}
            for j in {rng.randint(-10 ** 20, 10 ** 20), *(e + i for e in ends for i in (-1, 0, 1))}:
                assert surgered_space(d, j) == \
                    fraction_normalize(d.b, (d.r1, d.r2, fiber_slope(d, j))), (d, j)
            assert limit_space(d) == fraction_normalize(d.b, (d.r1, d.r2, d.limit_slope)), d
            for mirrored in (False, True):
                member = FamilyMember(data=d, mirrored=mirrored, offset=rng.randint(-9, 9))
                _assert_rows_map(member, want)
                for row in classify_family(member).rows:
                    if isinstance(row, PointVerdict):
                        assert row == fraction_point(member, row.n), (member, row)
                        continue
                    a, b = row.from_n, row.to_n
                    if a is None and b is None:
                        a, b = -10 ** 18, 10 ** 18
                    ns = {a if a is not None else b - 10 ** 18,
                          b if b is not None else a + 10 ** 18}
                    if a is not None and b is not None:
                        ns.add(rng.randint(a, b))
                    for n in ns:
                        assert fraction_point(member, n).verdict.is_lspace is row.is_lspace, \
                            (member, row, n)
            singles = any(isinstance(r, int) for r in want)
            kinds.add(("alpha = 0, S2 x S1" if singles else "alpha = 0") if d.alpha == 0 else
                      "(alpha3, beta3) = (0, 1)" if d.alpha3 == 0 else
                      "integer limit" if abs(d.alpha) == 1 else
                      "negative alpha" if d.alpha < 0 else "positive alpha")
            kinds.add("10^18" if max(abs(d.alpha), d.alpha3) > 10 ** 12 else "small")
        assert kinds == {"alpha = 0", "alpha = 0, S2 x S1", "(alpha3, beta3) = (0, 1)",
                         "integer limit", "negative alpha", "positive alpha", "10^18", "small"}

    def test_windowless_report_rows(self):
        report = classify_family(find_family("K(3,2;5,n)").members[0])
        # f(n) = 1/n: the singles are the pole and the integer slopes -1 and 1
        assert [_span(r) for r in report.rows] == \
            [(None, -2), (-1, -1), (0, 0), (1, 1), (2, None)]
        assert [type(r) for r in report.rows] == [Run, *[PointVerdict] * 3, Run]

    def test_shown_does_not_depend_on_the_window(self):
        rng = random.Random(3141)
        for _ in range(120):
            d = _random_seiferter(rng)
            for mirrored in (False, True):
                member = FamilyMember(data=d, mirrored=mirrored, offset=rng.randint(-9, 9))
                # the pole, or for alpha = 0 the one possible S2 x S1 index,
                # as a family index
                pole = -d.alpha3 // d.alpha if d.alpha else d.b + d.beta3 + 1
                pole = -pole - member.offset if mirrored else pole - member.offset
                windows = [(lo, lo + rng.randint(0, 9))
                           for lo in (rng.randint(-12, 3), pole + rng.randint(-150, 150))]
                whole = classify_family(member)
                a, b = (_shown(whole, *w)[2] for w in windows)
                # the report's points are exactly the singles
                assert sum(isinstance(r, PointVerdict) for r in whole.rows) == \
                    sum(isinstance(r, int) for r in _runs(member)), (d, mirrored)
                lo = min(pole, *windows[0], *windows[1]) - 20
                hi = max(pole, *windows[0], *windows[1]) + 20
                for n in range(lo, hi + 1):
                    assert a(n) is b(n) is whole.lspace_at(n), (d, mirrored, windows, n)

    def test_shown_partitions_z(self, monkeypatch):
        rng = random.Random(1618)
        members = [FamilyMember(rp2=True)]
        for _ in range(150):
            d = _random_seiferter(rng)
            members += [FamilyMember(data=d, mirrored=mirrored, offset=rng.randint(-9, 9))
                        for mirrored in (False, True)]
        evaluated = []
        point, columns = twist.evaluate_point, twist.Piece.columns

        def counting_point(member, n):
            evaluated.append(n)
            return point(member, n)

        def counting_columns(piece):
            evaluated.extend(range(piece.lo + 1, piece.hi + 1))
            return columns(piece)

        # evaluate_point evaluates the singles and the first member of each
        # piece, and a piece's columns its other members
        monkeypatch.setattr(twist, "evaluate_point", counting_point)
        monkeypatch.setattr(twist.Piece, "columns", counting_columns)
        exceptional = (Tag.S2XS1, Tag.CONNECTED_SUM_LENS)
        for member in members:
            lo = rng.randint(-40, 30)
            hi = lo + rng.randint(0, 12)
            evaluated.clear()
            report = classify_family(member)
            window = list(shown(report, lo, hi))
            # each index is evaluated at most once, and each of the window's
            assert len(evaluated) == len(set(evaluated)), (member, evaluated)
            assert set(range(lo, hi + 1)) <= set(evaluated), (member, evaluated)
            for rows in (report.rows, window):
                spans = [_span(r) for r in rows]
                # the rows tile Z in order: only the first starts at -inf,
                # only the last ends at +inf, and none is empty
                assert spans[0][0] is None and spans[-1][1] is None, (member, spans)
                for (a, b), (c, _) in zip(spans, spans[1:]):
                    assert b is not None and c == b + 1, (member, spans)
                    assert a is None or a <= b, (member, spans)
            # the window's members are evaluated, each as evaluate_point has it
            points = [r for r in window if isinstance(r, PointVerdict) and lo <= r.n <= hi]
            assert points == [evaluate_point(member, n) for n in range(lo, hi + 1)], member
            # every S2 x S1 or connected-sum member is a single
            assert [(p.n, p.tag) for p in points if p.tag in exceptional] == \
                [(n, tag) for n, tag in report.exceptional if lo <= n <= hi], member
        with pytest.raises(ValueError):
            next(shown(report, 1, 0))
