"""Catalog families and their arithmetic guarantee checkers."""

from fractions import Fraction

import pytest

from seifert_lspace import (ALL_N, Guarantee, GuaranteeKind, PreconditionFailed,
                            Tag, TorusKnotDegenerate, TwistedTorusKind,
                            berge_sporadic, berge_type_vii_viii, catalog,
                            check_guarantee, classify, classify_family,
                            decide, distinctness_bound, eudave_munoz_rp2_family,
                            find_family, h1_order, linking_guarantee, normalize,
                            satellite_guarantee, surgered_space,
                            torus_pq_candidates, tunnel2_family,
                            twisted_torus_family, unknot_seiferter_data,
                            unknot_seiferter_family)


def F(n, d=1):
    return Fraction(n, d)


N_GE_M1 = Guarantee(GuaranteeKind.N_GE, -1)


class TestLinkingGuarantee:
    def test_examples(self):
        assert linking_guarantee(3, 2, 5) == ALL_N
        assert linking_guarantee(13, 2, 9) == ALL_N
        assert linking_guarantee(5, 3, 2) == N_GE_M1

    def test_boundary(self):
        # l^2 = 16 equals 2pq = 16: the all-n case includes the boundary
        assert linking_guarantee(4, 2, 4) == ALL_N
        assert linking_guarantee(4, 2, 3) == N_GE_M1


class TestTorusPqCandidates:
    def test_trefoil(self):
        assert torus_pq_candidates(3, 2, 5) == [(3, F(2, 3), F(1, 2))]

    def test_meridian(self):
        assert torus_pq_candidates(3, 2, 1) == [(-1, F(2, 3), F(1, 2))]

    def test_no_integral_section(self):
        assert torus_pq_candidates(3, 2, 6) == []  # gcd(l, pq) > 1

    def test_requires_coprime_pq(self):
        with pytest.raises(PreconditionFailed):
            torus_pq_candidates(4, 2, 3)

    @pytest.mark.parametrize("p,q,l", [(3, 2, 5), (5, 2, 7), (5, 2, 3), (4, 3, 5),
                                       (5, 3, 7), (5, 3, 4), (13, 2, 9), (7, 3, 10)])
    def test_h1_identity_on_window(self, p, q, l):
        from seifert_lspace import INF
        assert torus_pq_candidates(p, q, l), (p, q, l)
        for B, r1, r2 in torus_pq_candidates(p, q, l):
            for n in range(-20, 21):
                raw = (r1, r2, INF) if n == 0 else (r1, r2, F(1, n))
                got = classify(normalize(B, raw)).h1
                assert got == abs(p * q + n * l * l)

    def test_all_n_guarantee_forces_b_out_of_middle(self):
        for p, q, l in ((3, 2, 5), (13, 2, 9), (7, 2, 9), (7, 4, 11), (5, 3, 6)):
            if linking_guarantee(p, q, l) != ALL_N:
                continue
            for B, _, _ in torus_pq_candidates(p, q, l):
                assert B >= 1 or B <= -3


class TestTwistedTorusFamilies:
    def test_p_plus_q(self):
        spec = twisted_torus_family(TwistedTorusKind.P_PLUS_Q, p=5, q=2)
        assert spec.guarantee == ALL_N
        assert 49 > 2 * 5 * 2

    def test_block_4p1(self):
        spec = twisted_torus_family(TwistedTorusKind.K4P1, p=1)
        assert spec.guarantee == ALL_N
        assert spec.members[0].data.m == 12
        assert spec.members[0].data.l == 5

    def test_p_minus_q(self):
        spec = twisted_torus_family(TwistedTorusKind.P_MINUS_Q, p=5, q=2)
        assert spec.guarantee == N_GE_M1
        assert spec.members[0].data.l == 3

    def test_parameter_validation(self):
        with pytest.raises(PreconditionFailed):
            twisted_torus_family(TwistedTorusKind.P_PLUS_Q, p=4, q=2)
        with pytest.raises(PreconditionFailed):
            twisted_torus_family(TwistedTorusKind.K4P1, p=0)

    def test_k2p2_intermediate_slope_identity(self):
        # the K(2p+3, 2p+1; 2p+2) base surgery arises from a lens surgery at
        # -8p^2-16p-7 by one twist along a circle of linking number 2p+2
        for p in range(1, 21):
            assert -8 * p * p - 16 * p - 7 + (2 * p + 2) ** 2 == (-2 * p - 1) * (2 * p + 3)


class TestUnknotFamilies:
    def test_m0_p3_first_twist(self):
        d = unknot_seiferter_data(0, 3)
        assert surgered_space(d, 1) == normalize(-2, (F(2, 3), F(1, 3)))
        assert decide(surgered_space(d, 1)).is_lspace
        assert d.m + 1 * d.l ** 2 == 9

    def test_m0_p3_zero_twist_is_product(self):
        d = unknot_seiferter_data(0, 3)
        assert classify(surgered_space(d, 0)).tag is Tag.S2XS1

    def test_m_minus1_p3_pole_at_one(self):
        d = unknot_seiferter_data(-1, 3)
        f = surgered_space(d, 1)
        assert classify(f).tag is Tag.CONNECTED_SUM_LENS
        assert decide(f).is_lspace

    def test_validation(self):
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_family(1, 3)
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_data(0, 4)
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_data(1, 3)  # p = 2m + 1
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_data(2, 3)  # p = 2m - 1

    def test_linking_number(self):
        assert unknot_seiferter_data(-2, 5).l == 7


class TestTunnel2:
    def test_forms_at_zero(self):
        a = tunnel2_family("A").members[0].data
        f = surgered_space(a, 0)
        assert f == normalize(-1, (F(4, 5), F(5, 7), F(1, 2)))
        assert decide(f).is_lspace
        b = tunnel2_family("B").members[0].data
        f = surgered_space(b, 0)
        assert f == normalize(-1, (F(5, 7), F(4, 5), F(1, 2)))
        assert decide(f).is_lspace

    def test_negative_member_still_lspace(self):
        a = tunnel2_family("A").members[0].data
        assert surgered_space(a, -1) is not None
        assert decide(surgered_space(a, -1)).is_lspace
        assert a.m + (-1) * a.l ** 2 == -125


class TestBergeSporadic:
    def test_kind_a(self):
        spec = berge_sporadic("a", 2)
        d = spec.members[0].data
        assert d.l == 9 and d.m == 26
        assert spec.guarantee == ALL_N
        assert d.m + d.l ** 2 == 107 == 22 * 4 + 9 * 2 + 1

    def test_kind_b(self):
        spec = berge_sporadic("b", 1)
        d = spec.members[0].data
        assert (d.m, d.l) == (12, 5)
        assert d.m + d.l ** 2 == 37 == 22 + 13 + 2

    def test_kind_d(self):
        spec = berge_sporadic("d", 1)
        d = spec.members[0].data
        assert (d.m, d.l) == (22, 7)
        assert 49 >= 2 * 11 * 2
        assert spec.guarantee == ALL_N
        slope, _ = spec.members[0].point(-1)
        assert slope == -(22 + 35 + 14)

    def test_slope_polynomials(self):
        for p in range(1, 21):
            assert p * (6 * p + 1) + (4 * p + 1) ** 2 == 22 * p * p + 9 * p + 1
            assert (3 * p + 1) * (2 * p + 1) + (4 * p + 1) ** 2 == 22 * p * p + 13 * p + 2
            assert -((3 * p + 2) * (2 * p + 1) + (4 * p + 3) ** 2) == -(22 * p * p + 31 * p + 11)
            assert -((6 * p + 5) * (p + 1) + (4 * p + 3) ** 2) == -(22 * p * p + 35 * p + 14)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionFailed):
            berge_sporadic("a", 1)
        with pytest.raises(PreconditionFailed):
            berge_sporadic("e", 2)


class TestBergeViiViii:
    def test_positive_product_bounds_n(self):
        spec = berge_type_vii_viii(2, 3, "VII")
        assert spec.guarantee == Guarantee(GuaranteeKind.N_LE, 2)
        spec = berge_type_vii_viii(2, 3, "VIII")
        assert spec.guarantee == Guarantee(GuaranteeKind.N_LE, 0)

    def test_negative_product_all_n(self):
        spec = berge_type_vii_viii(-2, 5, "VIII")
        assert spec.guarantee == ALL_N

    def test_degenerate_parameters(self):
        assert isinstance(berge_type_vii_viii(1, 2, "VII"), TorusKnotDegenerate)
        assert isinstance(berge_type_vii_viii(-2, 3, "VII"), TorusKnotDegenerate)

    def test_coprimality_required(self):
        with pytest.raises(PreconditionFailed):
            berge_type_vii_viii(2, 4, "VII")


class TestSatelliteAndDistinctness:
    def test_satellite(self):
        assert satellite_guarantee(2, 4, 1) is True
        assert satellite_guarantee(2, 12, 2) is True
        with pytest.raises(PreconditionFailed):
            satellite_guarantee(3, 8, 1)

    def test_distinctness(self):
        assert distinctness_bound(5, 3, 3) is True
        assert distinctness_bound(5, 3, 4) is False
        assert distinctness_bound(2, 0, 2) is True


class TestEudaveMunoz:
    def test_slopes_and_indices(self):
        s = eudave_munoz_rp2_family(1)
        assert "slope 8" in s.description and "(1, 2)" in s.description
        s = eudave_munoz_rp2_family(2)
        assert "slope 40" in s.description and "(2, 5)" in s.description
        s = eudave_munoz_rp2_family(-1)
        assert "slope 16" in s.description and "(1, 4)" in s.description

    def test_rejects_zero(self):
        with pytest.raises(PreconditionFailed):
            eudave_munoz_rp2_family(0)

    def test_members_are_lspace_everywhere(self):
        report = classify_family(eudave_munoz_rp2_family(1).members[0], (-5, 5))
        assert all(pv.verdict.is_lspace for pv in report.points.values())
        assert report.tail_pos.certified and report.tail_pos.is_lspace


class TestRegressionContract:
    @pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.name)
    def test_catalog_guarantees_confirmed(self, spec):
        ok, problems = check_guarantee(spec, (-50, 50))
        assert ok, problems

    def test_failures_inside_gap_segments_are_checked(self):
        # a window far right of the pole leaves the not-L-space run
        # 335..1989 to a segment; the one-sided claims see it only there
        from seifert_lspace import FamilyMember, FamilySpec, SeiferterData, check_reports
        data = SeiferterData(b=-1, r1=F(1, 3), r2=F(1997, 3000),
                             alpha=1, beta=0, alpha3=1, beta3=1)
        member = FamilyMember(data=data)
        reports = [classify_family(member, (1990, 2000))]

        def check(guarantee):
            return check_reports(FamilySpec("eps", "", (), guarantee, (member,)), reports)

        assert check(Guarantee(GuaranteeKind.N_LE, 334)) == (True, [])
        ok, problems = check(Guarantee(GuaranteeKind.N_LE, 400))
        assert not ok and problems == ["eps: fails at n=[335..400] <= 400"]
        ok, problems = check(ALL_N)
        assert not ok and "335..1989" in problems[0]

    def test_find_family(self):
        assert find_family("tunnel2-A").name == "tunnel2-A"
        assert find_family("K(3,2;5,n)").name == "K(3,2;5,n)"
        with pytest.raises(KeyError):
            find_family("no-such-family")


class TestBuildFamily:
    def test_kinds_cover_catalog_shapes(self):
        from seifert_lspace import build_family, family_kinds
        assert {"p+q", "p-q", "unknot", "spor-a", "berge-vii", "em-rp2"} <= set(family_kinds())
        spec = build_family("p+q", p=7, q=3)
        assert spec.members[0].data.l == 10 and spec.members[0].data.m == 21
        spec = build_family("unknot", m=-2, p=5)
        assert spec.members[0].data.l == 7
        assert isinstance(build_family("berge-vii", a=1, b=2), TorusKnotDegenerate)
        with pytest.raises(KeyError):
            build_family("nope", p=1)

    def test_built_families_check_out(self):
        from seifert_lspace import build_family
        for kind, params in (("p+q", {"p": 7, "q": 3}), ("spor-b", {"p": 2}),
                             ("unknot", {"m": -2, "p": 5}), ("em-rp2", {"l": -3})):
            spec = build_family(kind, **params)
            ok, problems = check_guarantee(spec, (-20, 20))
            assert ok, problems
